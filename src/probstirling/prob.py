"""Probabilistic layer: moment series of a random variable and the number
families derived from them.

For a random variable Y and degeneracy parameter lam, the central object is
the exact series of E[(1 + lam t)^(Y/lam)] (the degenerate moment generating
function).  Its shifted k-th divided powers generate the second-kind
triangle; the compositional inverse of (mgf - 1) -- the probabilistic
degenerate logarithm -- generates the first-kind triangle; substituting -lam
gives the rising-factorial ("heterogeneous") variants.  Higher-order
Bernoulli/Daehee/Cauchy analogues come from rational powers of the same
series.

Every function is pure; mgf and bundle construction are memoized on the
immutable (rv, lam, order) key.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .randomvars import RandomVar
from .series import Scalar, Series, _rat, memo
from .special import (
    Triangle,
    bernoulli_from_mgf,
    binom,
    deg_exp,
    log_deg_exp,
    order_from_log,
    triangle,
    triangle_from_base,
)

__all__ = [
    "ProbBundle",
    "mgf_deg",
    "mgf_deg_neg",
    "moment",
    "bundle",
    "prob_triangle",
    "sj_moment",
    "prob_order_numbers",
    "bernoulli_from_mgf",
    "order_from_log",
    "prob_log",
    "schlomilch_s1",
    "schlomilch_sum",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Degenerate moment generating functions
# ---------------------------------------------------------------------------

@memo
def mgf_deg(rv: RandomVar, lam: Scalar, order: int) -> Series:
    """Exact series of E[(1 + lam t)^(Y/lam)] to the given order.

    Each named distribution is built as a finite pipeline of exact series
    operations; the custom distribution expands degenerate falling-factorial
    moments in terms of the supplied raw moments.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    kind = rv.kind
    one = Series.one(order)
    if kind == "bernoulli":
        p = rv.param("p")
        return one + (deg_exp(lam, 1, order) - one).scale(p)
    if kind == "binomial":
        m, p = rv.param("m"), rv.param("p")
        base = Series.one(order) + (deg_exp(lam, 1, order) - one).scale(p)
        return base.pow(m)
    if kind == "poisson":
        alpha = rv.param("alpha")
        return (deg_exp(lam, 1, order) - one).scale(alpha).exp()
    if kind == "exponential":
        alpha = rv.param("alpha")
        return Series.constant(alpha, order) / (
            Series.constant(alpha, order) - log_deg_exp(lam, order)
        )
    if kind == "gamma":
        alpha, beta = rv.param("alpha"), rv.param("beta")
        base = Series.constant(beta, order) / (
            Series.constant(beta, order) - log_deg_exp(lam, order)
        )
        return base.pow(alpha)
    if kind == "geometric":
        p = rv.param("p")
        e = deg_exp(lam, 1, order)
        return e.scale(p) / (one - e.scale(1 - p))
    if kind == "normal":
        mu, sigma2 = rv.param("mu"), rv.param("sigma2")
        log_e = log_deg_exp(lam, order)
        exponent = log_e.scale(mu) + (log_e * log_e).scale(sigma2 / 2)
        return exponent.exp()
    if kind == "negbinomial":
        r, p = rv.param("r"), rv.param("p")
        base = Series.constant(p, order) / (one - deg_exp(lam, 1, order).scale(1 - p))
        return base.pow(r)
    if kind == "uniform01":
        e = deg_exp(lam, 1, order + 1)
        num = (e - Series.one(order + 1)).shift_down(1)
        den = log_deg_exp(lam, order + 1).shift_down(1)
        return num / den
    if kind == "pointmass":
        return deg_exp(lam, rv.param("c"), order)
    if kind == "custom":
        if len(rv.moments) < order + 1:
            raise ValueError(
                f"custom spec provides {len(rv.moments)} moments, need {order + 1}"
            )
        s1 = triangle("s1", _ZERO, order)
        egf = []
        for n in range(order + 1):
            total = _ZERO
            for k in range(n + 1):
                s = s1.value(n, k)
                if s:
                    total += s * lam ** (n - k) * rv.moments[k]
            egf.append(total)
        return Series.from_egf(egf)
    raise ValueError(f"unknown random variable kind {kind!r}")


def mgf_deg_neg(rv: RandomVar, lam: Scalar, order: int) -> Series:
    """Series of E[(1 + lam t)^(-Y/lam)], i.e. the mgf of -Y.

    Computed by substituting -lam and flipping the sign of t, which is an
    exact identity of the degenerate exponential.
    """
    m = mgf_deg(rv, -_rat(lam), order)
    return Series(-c if n % 2 else c for n, c in enumerate(m.coeffs))


def moment(rv: RandomVar, n: int) -> Fraction:
    """Raw moment E[Y^n], read off the lam = 0 moment series."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return mgf_deg(rv, _ZERO, n).egf(n)


# ---------------------------------------------------------------------------
# Bundles and triangles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbBundle:
    """mgf, its shifted delta series, and that series' compositional inverse."""

    rv: RandomVar
    lam: Fraction
    order: int
    mgf: Series
    delta: Series
    reverted: Series


@memo
def bundle(rv: RandomVar, lam: Scalar, order: int) -> ProbBundle:
    """Build (and cache) the mgf / delta / reverted triple for (rv, lam).

    Requires E[Y] != 0, otherwise mgf - 1 has no compositional inverse.
    The round trip compose(delta, reverted) = t is asserted on construction.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    m = mgf_deg(rv, lam, order)
    delta = m - Series.one(order)
    if order >= 1 and delta.coeff(1) == 0:
        raise ValueError(
            f"E[Y] = 0 for {rv.describe()}: first-kind operations are undefined"
        )
    reverted = delta.revert()
    if delta.compose(reverted) != Series.t(order):
        raise AssertionError("reversion failed to invert the moment series")
    return ProbBundle(rv, lam, order, m, delta, reverted)


_PROB_FAMILIES = ("s2", "s1", "h", "g")


@memo
def prob_triangle(rv: RandomVar, lam: Scalar, family: str, nmax: int) -> Triangle:
    """Probabilistic triangle for Y: second/first kind and their -lam variants.

    family "s2": EGF coefficients of (mgf - 1)**k / k!;
    family "s1": the same for the compositional inverse (needs E[Y] != 0);
    families "h" / "g": the s2 / s1 constructions at -lam.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if family not in _PROB_FAMILIES:
        raise ValueError(f"unknown probabilistic triangle family {family!r}")
    params = (("rv", rv.describe()),)
    base_lam = lam if family in ("s2", "s1") else -lam
    order = max(nmax, 1)
    if family in ("s2", "h"):
        # a zero mean is fine here: no reversion is involved
        base = mgf_deg(rv, base_lam, order) - Series.one(order)
    else:
        base = bundle(rv, base_lam, order).reverted
    return triangle_from_base(base, "prob-" + family, lam, nmax, params)


def sj_moment(rv: RandomVar, lam: Scalar, j: int, n: int) -> Fraction:
    """Degenerate falling-factorial moment of the sum of j i.i.d. copies of Y.

    Independence makes the moment series of the sum the j-th power of the
    single-variable series; j = 0 is the empty sum (a point mass at 0).
    """
    if j < 0 or n < 0:
        raise ValueError("j and n must be >= 0")
    return _mgf_power(rv, lam, j, n).egf(n)


@memo
def _mgf_power(rv: RandomVar, lam: Fraction, j: int, order: int) -> Series:
    return mgf_deg(rv, lam, order).pow(j)


# ---------------------------------------------------------------------------
# Order-gamma number families
# ---------------------------------------------------------------------------

def prob_order_numbers(rv: RandomVar, lam: Scalar, gamma: Scalar, x: Scalar,
                       family: str, order: int) -> Series:
    """Probabilistic higher-order Bernoulli / Daehee / Cauchy number series.

    bernoulli: (t / (mgf - 1))**gamma * mgf**x;
    daehee / cauchy: the same constructions applied to the probabilistic
    degenerate logarithm (x must be 0 there).  Non-integer gamma is accepted
    only when E[Y] = 1.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    lam = _rat(lam)
    if family == "bernoulli":
        return bernoulli_from_mgf(mgf_deg(rv, lam, order + 1), gamma, x)
    if _rat(x) != 0:
        raise ValueError(f"the {family} family does not take a shift argument")
    return order_from_log(prob_log(rv, lam, order + 1), gamma, family)


def prob_log(rv: RandomVar, lam: Scalar, order: int) -> Series:
    """The probabilistic degenerate logarithm: inverse of mgf - 1 under composition.

    Reversion needs the linear coefficient, so order 0 is read off the
    order-1 inverse (still refused when E[Y] = 0).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    return bundle(rv, lam, max(order, 1)).reverted.truncate(order)


# ---------------------------------------------------------------------------
# Schlomilch evaluation
# ---------------------------------------------------------------------------

def schlomilch_sum(mean: Fraction, second_kind, n: int, k: int) -> Fraction:
    """Alternating binomial sum expressing first-kind values via second-kind ones.

    `second_kind` is any callable (n, k) -> Fraction; only second-kind data
    is consumed, never a reversion.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    total = _ZERO
    for j in range(n - k + 1):
        c = binom(n + j - 1, n + j - k) * binom(2 * n - k, n - k - j)
        if not c:
            continue
        term = c * second_kind(n - k + j, j) * mean ** (-(n + j))
        total += -term if j % 2 else term
    return total


def schlomilch_s1(rv: RandomVar, lam: Scalar, n: int, k: int) -> Fraction:
    """First-kind triangle entry computed through the Schlomilch sum.

    Serves as the reversion-free route to S1-type values; the engine triangle
    (via prob_log) is its independent cross-check.
    """
    lam = _rat(lam)
    if not 0 <= k <= n:  # before 2 (n - k) sizes a table
        raise ValueError("need 0 <= k <= n")
    mean = rv.mean()
    if mean == 0:
        raise ValueError("Schlomilch evaluation requires E[Y] != 0")
    t2 = prob_triangle(rv, lam, "s2", 2 * (n - k))
    return schlomilch_sum(mean, t2.value, n, k)
