"""Exact truncated formal power series over the rationals.

A :class:`Series` stores the coefficients ``c0..cN`` of a power series known
modulo ``t**(N+1)``.  The coefficient field is `fractions.Fraction`, so no
rounding ever occurs.  Every operation is closed at the common truncation
order: combining series of different orders raises
:class:`OrderMismatchError` instead of silently re-truncating.  Instances are
immutable and hashable, hence safe to share across threads and to use as
cache keys.

Exponential-generating-function (EGF) coefficients ``a_n = n! * c_n`` are
read with :meth:`Series.egf` / :func:`coeff_egf`.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Union

__all__ = [
    "OrderMismatchError",
    "Series",
    "as_delta",
    "coeff_egf",
    "lagrange_extract",
]

Scalar = Union[Fraction, int]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class OrderMismatchError(ValueError):
    """Two series of different truncation orders were combined."""


def _rat(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational (int or Fraction), got {value!r}")


class Series:
    """Power series truncated at a fixed order, with exact coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = tuple(_rat(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least its constant coefficient")
        self._coeffs = cs

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([_ZERO] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([_ONE] + [_ZERO] * order)

    @classmethod
    def t(cls, order: int) -> "Series":
        """The series of the formal variable itself (zero when order = 0)."""
        if order < 0:
            raise ValueError("order must be >= 0")
        if order == 0:
            return cls([_ZERO])
        return cls([_ZERO, _ONE] + [_ZERO] * (order - 1))

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "Series":
        return cls([_rat(value)] + [_ZERO] * order)

    @classmethod
    def from_egf(cls, egf_values: Iterable[Scalar]) -> "Series":
        """Build a series from EGF coefficients a_n, i.e. c_n = a_n / n!."""
        return cls(
            _rat(a) / factorial(n) for n, a in enumerate(egf_values)
        )

    # -- basic accessors ------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        """Raw coefficient c_n."""
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient index {n} out of range 0..{self.order}")
        return self._coeffs[n]

    def egf(self, n: int) -> Fraction:
        """EGF coefficient a_n = n! * c_n."""
        return self.coeff(n) * factorial(n)

    @property
    def is_delta(self) -> bool:
        """True when c0 = 0 and c1 != 0 (the series has a compositional inverse)."""
        return self.order >= 1 and self._coeffs[0] == 0 and self._coeffs[1] != 0

    def _check_order(self, other: "Series") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"series orders differ: {self.order} vs {other.order}"
            )

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        return Series(a + b for a, b in zip(self._coeffs, other._coeffs))

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        return Series(a - b for a, b in zip(self._coeffs, other._coeffs))

    def __neg__(self):
        return Series(-c for c in self._coeffs)

    def scale(self, value: Scalar) -> "Series":
        v = _rat(value)
        return Series(v * c for c in self._coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        n = self.order
        a, b = self._coeffs, other._coeffs
        out = [_ZERO] * (n + 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j in range(n - i + 1):
                if b[j]:
                    out[i + j] += ai * b[j]
        return Series(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(_ONE / _rat(other))
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        g = other._coeffs
        if g[0] == 0:
            raise ValueError("division by a series with zero constant term")
        n = self.order
        f = self._coeffs
        inv_g0 = _ONE / g[0]
        q = [_ZERO] * (n + 1)
        for m in range(n + 1):
            acc = f[m]
            for i in range(m):
                if q[i] and g[m - i]:
                    acc -= q[i] * g[m - i]
            q[m] = acc * inv_g0
        return Series(q)

    # -- structural operations ------------------------------------------------

    def truncate(self, order: int) -> "Series":
        """Forget coefficients above `order` (deliberate precision drop)."""
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order-{self.order} series to {order}")
        return Series(self._coeffs[: order + 1])

    def shift_down(self, k: int = 1) -> "Series":
        """Divide by t**k; the first k coefficients must vanish.

        The result is known only to order N - k.
        """
        if k < 0 or k > self.order:
            raise ValueError("shift amount out of range")
        if any(self._coeffs[i] for i in range(k)):
            raise ValueError("cannot divide by t**%d: low-order coefficients nonzero" % k)
        return Series(self._coeffs[k:])

    def diff(self) -> "Series":
        """Formal derivative, known to order N - 1."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 series")
        return Series(i * self._coeffs[i] for i in range(1, self.order + 1))

    def compose(self, inner: "Series") -> "Series":
        """Substitute `inner` (which must have zero constant term) into self.

        Sums f_k * g**k over ascending powers of g = `inner`, each power one
        ``__mul__`` from the last.  g**k starts at t**(k*v), v the valuation
        of g, which ``__mul__`` skips, so this costs O(N**3) coefficient
        products, about a third of Horner's rule; powers with k*v > N vanish
        and are never formed.
        """
        self._check_order(inner)
        g = inner._coeffs
        if g[0] != 0:
            raise ValueError("composition requires an inner series with zero constant term")
        n = self.order
        f = self._coeffs
        out = [f[0]] + [_ZERO] * n
        # valuation of g; n + 1 for g = 0 leaves only the constant term
        val = next((i for i, c in enumerate(g) if c), n + 1)
        power = Series.one(n)
        for k in range(1, n // val + 1):
            power = power * inner
            if f[k]:
                p = power._coeffs
                for m in range(k * val, n + 1):
                    if p[m]:
                        out[m] += f[k] * p[m]
        return Series(out)

    def revert(self) -> "Series":
        """Compositional inverse of a delta series.

        Solves compose(self, h) = t one coefficient at a time.  With
        pw[k][n] = [t**n] h**k, the coefficient of t**n (n >= 2) in f(h) is
        f_1 h_n + sum_{k=2..n} f_k pw[k][n] = 0, and for k >= 2

            pw[k][n] = sum_{i=1..n-k+1} h_i pw[k-1][n-i]

        needs only h_1..h_{n-1}.  Filling the table one column n at a time
        therefore gives h_n = -(sum_{k=2..n} f_k pw[k][n]) / f_1 in O(N**3)
        coefficient products.

        This route must stay independent of :meth:`compose`, ``__mul__`` and
        :func:`lagrange_extract`: the round trip compose(f, h) = t and the
        Lagrange formulas are the checks on it, and would stop checking
        anything if they shared its code.
        """
        as_delta(self)
        n_max = self.order
        f = self._coeffs
        inv_f1 = _ONE / f[1]
        h = [_ZERO] * (n_max + 1)
        h[1] = inv_f1
        # pw[k] holds [t**m] h**k for m < n after column n - 1; pw[1] is h.
        pw = [None, h] + [[_ZERO] * (n_max + 1) for _ in range(2, n_max + 1)]
        for n in range(2, n_max + 1):
            acc = _ZERO
            for k in range(2, n + 1):
                prev = pw[k - 1]
                s = _ZERO
                for i in range(1, n - k + 2):
                    if h[i] and prev[n - i]:
                        s += h[i] * prev[n - i]
                pw[k][n] = s
                if f[k] and s:
                    acc += f[k] * s
            h[n] = -acc * inv_f1
        return Series(h)

    # -- transcendental operations --------------------------------------------

    def exp(self) -> "Series":
        """exp(f) for a series with zero constant term."""
        f = self._coeffs
        if f[0] != 0:
            raise ValueError("exp requires zero constant term")
        n_max = self.order
        e = [_ONE] + [_ZERO] * n_max
        for n in range(1, n_max + 1):
            acc = _ZERO
            for j in range(1, n + 1):
                if f[j] and e[n - j]:
                    acc += j * f[j] * e[n - j]
            e[n] = acc / n
        return Series(e)

    def log1p(self) -> "Series":
        """log(1 + f) for a series f with zero constant term."""
        f = self._coeffs
        if f[0] != 0:
            raise ValueError("log1p requires zero constant term")
        n_max = self.order
        out = [_ZERO] * (n_max + 1)
        for n in range(1, n_max + 1):
            acc = _ZERO
            for k in range(1, n):
                if out[k] and f[n - k]:
                    acc += k * out[k] * f[n - k]
            out[n] = f[n] - acc / n
        return Series(out)

    def pow(self, gamma: Scalar) -> "Series":
        """f**gamma for rational gamma.

        Any integer gamma works whenever it keeps the result a power series
        (nonnegative for zero constant term, arbitrary otherwise).  A
        non-integer gamma requires constant term 1, since c0**gamma would be
        irrational in general.
        """
        g = _rat(gamma)
        f = self._coeffs
        n_max = self.order
        if f[0] == 0:
            if g.denominator != 1 or g < 0:
                raise ValueError(
                    "a series with zero constant term only admits nonnegative integer powers"
                )
            return self._int_pow_delta(int(g))
        if g.denominator != 1 and f[0] != 1:
            raise ValueError(
                "non-integer power requires constant term 1 (result would be irrational)"
            )
        p0 = f[0] ** g if g.denominator == 1 else _ONE
        out = [_ZERO] * (n_max + 1)
        out[0] = p0
        inv_f0 = _ONE / f[0]
        for n in range(1, n_max + 1):
            acc = _ZERO
            for m in range(1, n + 1):
                if f[m] and out[n - m]:
                    acc += g * m * f[m] * out[n - m]
            for m in range(1, n):
                if out[m] and f[n - m]:
                    acc -= m * out[m] * f[n - m]
            out[n] = acc * inv_f0 / n
        return Series(out)

    __pow__ = pow

    def _int_pow_delta(self, g: int) -> "Series":
        n_max = self.order
        if g == 0:
            return Series.one(n_max)
        val = next((i for i, c in enumerate(self._coeffs) if c), None)
        if val is None or val * g > n_max:
            return Series.zero(n_max)
        unit = self.shift_down(val)
        powered = unit.pow(g).truncate(n_max - val * g)
        return Series(([_ZERO] * (val * g)) + list(powered._coeffs))

    # -- dunder plumbing --------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Series) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self._coeffs[:5])
        if self.order >= 5:
            shown += ", ..."
        return f"Series([{shown}], order={self.order})"


def as_delta(f: Series) -> Series:
    """Validate that f is a delta series (c0 = 0, c1 != 0) and return it."""
    if f.order < 1 or f.coeffs[0] != 0:
        raise ValueError("expected a delta series: constant term must vanish")
    if f.coeffs[1] == 0:
        raise ValueError("expected a delta series: linear coefficient must be nonzero")
    return f


def coeff_egf(f: Series, n: int) -> Fraction:
    """EGF coefficient a_n = n! * c_n of f."""
    return f.egf(n)


def lagrange_extract(g, f: Series, n: int, k=None, formula: str = "C") -> Fraction:
    """Coefficient extraction for the compositional inverse of f, without reverting.

    With fbar the compositional inverse of the delta series f, the three
    variants compute

        "A":  [t^n] g(fbar(t))   = (1/n) [t^(n-1)] g'(t) (t/f(t))^n
        "B":  [t^n] (fbar(t))^k  = (k/n) [t^(n-k)] (t/f(t))^n
        "C":  [t^n] fbar(t)      = (1/n) [t^(n-1)] (t/f(t))^n

    evaluated from the right-hand sides only (derivative, reciprocal and
    powers of t/f(t)); ``Series.revert`` is never called, which makes this
    the independent oracle for it.
    """
    as_delta(f)
    if n > f.order:
        raise ValueError(f"requested coefficient {n} exceeds series order {f.order}")
    if formula == "A":
        if g is None:
            raise ValueError("formula A needs the outer series g")
        if n < 0:
            raise ValueError("formula A requires n >= 0")
        if n == 0:
            return g.coeff(0)
        f._check_order(g)
        t_over_f = Series.one(f.order - 1) / f.shift_down(1)
        prod = g.diff() * t_over_f.pow(n)
        return prod.coeff(n - 1) / n
    if formula == "B":
        if k is None or k < 1:
            raise ValueError("formula B requires a positive integer k")
        if n < k:
            raise ValueError("formula B requires n >= k")
        t_over_f = Series.one(f.order - 1) / f.shift_down(1)
        return Fraction(k, n) * t_over_f.pow(n).coeff(n - k)
    if formula == "C":
        if n < 1:
            raise ValueError("formula C requires n >= 1")
        t_over_f = Series.one(f.order - 1) / f.shift_down(1)
        return t_over_f.pow(n).coeff(n - 1) / n
    raise ValueError(f"unknown extraction formula {formula!r}")
