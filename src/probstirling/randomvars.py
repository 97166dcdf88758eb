"""Random-variable specifications with exact rational parameters.

A :class:`RandomVar` is a tagged, immutable description of a distribution:
nine named families, a point mass, and a user-supplied moment sequence.
Parameter validation happens at construction.  A zero mean is legal here
(only the first-kind / reversion operations reject it, at call time), with
the exception of the normal distribution whose closed forms need mu != 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .series import Scalar, _rat

__all__ = ["RandomVar", "builtin_random_vars"]

SAMPLABLE_KINDS = (
    "bernoulli", "binomial", "poisson", "exponential", "gamma",
    "geometric", "normal", "negbinomial", "uniform01", "pointmass",
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class RandomVar:
    """Immutable distribution spec; build via the named constructors."""

    kind: str
    params: tuple = ()
    moments: tuple = ()

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def bernoulli(p: Scalar) -> "RandomVar":
        p = _rat(p)
        _require(0 < p <= 1, "bernoulli requires 0 < p <= 1")
        return RandomVar("bernoulli", (("p", p),))

    @staticmethod
    def binomial(m: int, p: Scalar) -> "RandomVar":
        p = _rat(p)
        _require(isinstance(m, int) and m >= 1, "binomial requires a positive integer m")
        _require(0 < p <= 1, "binomial requires 0 < p <= 1")
        return RandomVar("binomial", (("m", Fraction(m)), ("p", p)))

    @staticmethod
    def poisson(alpha: Scalar) -> "RandomVar":
        alpha = _rat(alpha)
        _require(alpha > 0, "poisson requires alpha > 0")
        return RandomVar("poisson", (("alpha", alpha),))

    @staticmethod
    def exponential(alpha: Scalar) -> "RandomVar":
        alpha = _rat(alpha)
        _require(alpha > 0, "exponential requires rate alpha > 0")
        return RandomVar("exponential", (("alpha", alpha),))

    @staticmethod
    def gamma(alpha: Scalar, beta: Scalar) -> "RandomVar":
        alpha, beta = _rat(alpha), _rat(beta)
        _require(alpha > 0 and beta > 0, "gamma requires alpha > 0 and beta > 0")
        return RandomVar("gamma", (("alpha", alpha), ("beta", beta)))

    @staticmethod
    def geometric(p: Scalar) -> "RandomVar":
        """Geometric on {1, 2, 3, ...} with success probability p."""
        p = _rat(p)
        _require(0 < p < 1, "geometric requires 0 < p < 1")
        return RandomVar("geometric", (("p", p),))

    @staticmethod
    def normal(mu: Scalar, sigma2: Scalar) -> "RandomVar":
        mu, sigma2 = _rat(mu), _rat(sigma2)
        _require(mu != 0, "normal requires mu != 0")
        _require(sigma2 > 0, "normal requires sigma2 > 0")
        return RandomVar("normal", (("mu", mu), ("sigma2", sigma2)))

    @staticmethod
    def negbinomial(r: int, p: Scalar) -> "RandomVar":
        """Number of failures before the r-th success (support {0, 1, 2, ...})."""
        p = _rat(p)
        _require(isinstance(r, int) and r >= 1, "negbinomial requires a positive integer r")
        _require(0 < p < 1, "negbinomial requires 0 < p < 1")
        return RandomVar("negbinomial", (("r", Fraction(r)), ("p", p)))

    @staticmethod
    def uniform01() -> "RandomVar":
        return RandomVar("uniform01")

    @staticmethod
    def pointmass(c: Scalar) -> "RandomVar":
        return RandomVar("pointmass", (("c", _rat(c)),))

    @staticmethod
    def custom(moments: Iterable[Scalar]) -> "RandomVar":
        """Distribution given purely by its raw moment sequence E[Y^n].

        moments[0] must be 1; supply as many entries as the largest series
        order you intend to use.
        """
        ms = tuple(_rat(m) for m in moments)
        _require(len(ms) >= 1 and ms[0] == 1, "custom moments must start with E[Y^0] = 1")
        return RandomVar("custom", (), ms)

    # -- accessors ------------------------------------------------------------

    def param(self, name: str) -> Fraction:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(f"{self.kind} has no parameter {name!r}")

    def mean(self) -> Fraction:
        k = self.kind
        if k == "bernoulli":
            return self.param("p")
        if k == "binomial":
            return self.param("m") * self.param("p")
        if k == "poisson":
            return self.param("alpha")
        if k == "exponential":
            return 1 / self.param("alpha")
        if k == "gamma":
            return self.param("alpha") / self.param("beta")
        if k == "geometric":
            return 1 / self.param("p")
        if k == "normal":
            return self.param("mu")
        if k == "negbinomial":
            return self.param("r") * (1 - self.param("p")) / self.param("p")
        if k == "uniform01":
            return Fraction(1, 2)
        if k == "pointmass":
            return self.param("c")
        if k == "custom":
            if len(self.moments) < 2:
                raise ValueError("custom spec has no first moment")
            return self.moments[1]
        raise ValueError(f"unknown random variable kind {self.kind!r}")

    @property
    def is_samplable(self) -> bool:
        return self.kind in SAMPLABLE_KINDS

    def describe(self) -> str:
        if self.kind == "custom":
            shown = ",".join(str(m) for m in self.moments[:4])
            suffix = ",..." if len(self.moments) > 4 else ""
            return f"custom(moments={shown}{suffix})"
        if not self.params:
            return self.kind
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}({inner})"


def builtin_random_vars() -> tuple:
    """The ten built-in distributions with standard test parameters."""
    return (
        RandomVar.bernoulli(Fraction(1, 2)),
        RandomVar.binomial(3, Fraction(1, 2)),
        RandomVar.poisson(2),
        RandomVar.exponential(3),
        RandomVar.gamma(Fraction(1, 2), 2),
        RandomVar.geometric(Fraction(1, 3)),
        RandomVar.normal(1, 1),
        RandomVar.negbinomial(2, Fraction(1, 2)),
        RandomVar.uniform01(),
        RandomVar.pointmass(1),
    )
