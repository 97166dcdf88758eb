"""Deterministic special-number families over exact rationals.

Degenerate falling/rising factorials, degenerate exponential and logarithm
series, the Stirling-type triangles (first/second kind, Lah, and the
rising-falling "heterogeneous" connection triangles), partial Bell
polynomials, higher-order Bernoulli/Daehee/Cauchy numbers, and a couple of
auxiliary families (Bernoulli-Pade, degenerate Frobenius-Euler).

The Stirling-type triangles are always computed from their generating
functions; closed-form and recurrence-based duplicates live in
:mod:`probstirling.verify` so the two computation paths stay independent.
Every one of them, deterministic or probabilistic, is built by
`triangle_from_base`, which raises the base to its powers on integer
numerators over one denominator and makes one `Fraction` per table entry.
It has its own power loop, shared with neither `Series.compose`,
`Series.revert` nor `Series.__mul__`, so a fault in one of those kernels
and a fault in the triangles show up as different failures.
Partial Bell polynomials are the exception: `bell_triangle` fills a whole
table B_{n,k}, 0 <= k <= n <= nmax, from Comtet's recurrence, touching no
series arithmetic, so the verification suites can use it as an oracle for
the generating-function triangles; `partial_bell` reads one entry of it.

The two base series every probabilistic object is built on, the degenerate
exponential `deg_exp` and its logarithm `log_deg_exp`, are memoised closed
forms on integers: one running product, one `Fraction` per coefficient.
They share no code with `falling_factorial`, which stays the input of the
inclusion-exclusion oracle in :mod:`probstirling.verify`, so a fault in
either shows up apart from the other.

All functions are pure, and the parameter lam = 0 selects the classical
(non-degenerate) specialization exactly, never as a numeric limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd
from operator import mul
from typing import Sequence

from .series import Series, Scalar, _rat, _scaled, as_delta, memo

__all__ = [
    "Triangle",
    "binom",
    "falling_factorial",
    "rising_factorial",
    "deg_exp",
    "deg_log",
    "log_deg_exp",
    "triangle",
    "triangle_from_base",
    "partial_bell",
    "bell_triangle",
    "order_numbers",
    "bernoulli_from_mgf",
    "order_from_log",
    "bernoulli_pade_a2",
    "frobenius_euler",
    "lah_bell",
    "hetero_bell",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

TRIANGLE_FAMILIES = ("s1", "s2", "lah", "h", "g")


def binom(top: Scalar, k: int) -> Fraction:
    """Generalized binomial coefficient C(top, k), zero for k < 0.

    An `int` top is read as it is; a rational top p/q gives the integer
    product p(p - q)...(p - (k-1) q) over q**k k!, one `Fraction`.
    """
    if k < 0:
        return _ZERO
    if type(top) is not int:
        top = _rat(top)
        q = top.denominator
        if q != 1:
            p, num = top.numerator, 1
            for i in range(k):
                num *= p - i * q
            return Fraction(num, q**k * factorial(k))
        top = top.numerator
    if top >= 0:
        return Fraction(comb(top, k))
    # C(m, k) = (-1)^k C(k - m - 1, k) for a negative integer m
    c = comb(k - top - 1, k)
    return Fraction(-c if k % 2 else c)


def falling_factorial(x: Scalar, n: int, lam: Scalar) -> Fraction:
    """x(x - lam)(x - 2 lam)...(x - (n-1) lam); the empty product is 1.

    lam = 1 gives the ordinary falling factorial, lam = 0 gives x**n.  With
    x = p/q and lam = r/s it is the integer running product of
    p s - i r q over (q s)**n, one `Fraction`.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    x, lam = _rat(x), _rat(lam)
    top, step = x.numerator * lam.denominator, lam.numerator * x.denominator
    num = 1
    for i in range(n):
        num *= top - i * step
    return Fraction(num, (x.denominator * lam.denominator) ** n)


def rising_factorial(x: Scalar, n: int, lam: Scalar) -> Fraction:
    """x(x + lam)(x + 2 lam)...(x + (n-1) lam), computed directly.

    Deliberately not reduced to a sign-flipped falling factorial, so the two
    can cross-check each other: its own integer running product of
    p s + i r q over (q s)**n, for x = p/q and lam = r/s.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    x, lam = _rat(x), _rat(lam)
    top, step = x.numerator * lam.denominator, lam.numerator * x.denominator
    num = 1
    for i in range(n):
        num *= top + i * step
    return Fraction(num, (x.denominator * lam.denominator) ** n)


@memo
def deg_exp(lam: Scalar, x: Scalar, order: int) -> Series:
    """Degenerate exponential (1 + lam t)^(x/lam) as a series.

    The coefficient of t**n is x(x - lam)...(x - (n-1) lam) / n!.  With
    x = p/q and lam = r/s it is the single `Fraction(num_n, den_n)` of the
    integer running product num_n = num_{n-1} (p s - (n-1) r q),
    den_n = den_{n-1} q s n, from num_0 = den_0 = 1; lam = 0 yields exp(x t)
    without a special case.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    step = lam.numerator * x.denominator
    top, scale = x.numerator * lam.denominator, x.denominator * lam.denominator
    num = den = 1
    coeffs = [_ONE]
    for n in range(1, order + 1):
        num *= top - (n - 1) * step
        den *= scale * n
        coeffs.append(Fraction(num, den))
    return Series(coeffs)


def deg_log(lam: Scalar, order: int) -> Series:
    """Degenerate logarithm of 1 + t: ((1 + t)**lam - 1) / lam, that is
    ``Series.t(order).log1p(lam)``.

    This is the compositional inverse of deg_exp(lam, 1, order) - 1; at
    lam = 0 it degenerates to log(1 + t).
    """
    return Series.t(order).log1p(lam)


@memo
def log_deg_exp(lam: Scalar, order: int) -> Series:
    """log of the degenerate exponential: (1/lam) log(1 + lam t), or t at lam = 0.

    Read off the logarithm's series: c_0 = 0 and c_n = (-lam)**(n-1) / n,
    one `Fraction` per coefficient.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    num = den = 1
    coeffs = [_ZERO]
    for n in range(1, order + 1):
        coeffs.append(Fraction(num, den * n))
        num *= -lam.numerator
        den *= lam.denominator
    return Series(coeffs)


@dataclass(frozen=True)
class Triangle:
    """Lower-triangular table of exact rationals indexed by (n, k).

    Entries outside 0 <= k <= n <= nmax read as zero.  `params` carries
    family-specific metadata (e.g. the random-variable description for the
    probabilistic variants) as (name, text) pairs.
    """

    family: str
    lam: Fraction
    nmax: int
    rows: tuple
    params: tuple = ()

    def value(self, n: int, k: int) -> Fraction:
        if 0 <= k <= n <= self.nmax:
            return self.rows[n][k]
        return _ZERO

    def __getitem__(self, nk) -> Fraction:
        n, k = nk
        return self.value(n, k)

    def row(self, n: int) -> tuple:
        return self.rows[n]


def triangle_from_base(base: Series, family: str, lam: Scalar, nmax: int,
                       params: tuple = ()) -> Triangle:
    """Triangle whose (n, k) entry is the EGF coefficient of base**k / k! at n.

    `base` must be a series of order >= nmax with zero constant term.  Its
    first nmax + 1 coefficients are scaled once to integers B over one
    denominator d; base**k is kept as integer numerators over one
    denominator, found by one integer convolution of base**(k-1) with B and
    reduced by the gcd of the whole power, and entry (n, k) is the single
    `Fraction(p_k[n] * n!, den_k * k!)`.  No `Series` is built, and the
    power loop is deliberately its own: it must stay independent of
    `Series.compose`, `Series.revert` and `Series.__mul__`, which the
    verification suites check against these triangles.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if base.order < nmax:
        raise ValueError("base series order is smaller than nmax")
    if base.coeffs[0] != 0:
        raise ValueError("triangle base must have zero constant term")
    b, d = _scaled(base.coeffs[: nmax + 1])
    rb = b[::-1]  # b_nmax..b_0, so rb[nmax - m] = b_m
    fact = [factorial(i) for i in range(nmax + 1)]
    rows = [[_ZERO] * (n + 1) for n in range(nmax + 1)]
    rows[0][0] = _ONE
    # base**k = power[i] / den; base**(k-1) vanishes below t**(k-1) and b_0 = 0
    power, den = [1] + [0] * nmax, 1
    for k in range(1, nmax + 1):
        power = [0] * k + [
            sum(map(mul, power[k - 1:n], rb[nmax - n + k - 1:nmax]))
            for n in range(k, nmax + 1)
        ]
        den *= d
        g = gcd(den, *power)
        if g > 1:
            power = [p // g for p in power]
            den //= g
        for n in range(k, nmax + 1):
            if power[n]:
                rows[n][k] = Fraction(power[n] * fact[n], den * fact[k])
    return Triangle(family, _rat(lam), nmax, tuple(tuple(r) for r in rows), params)


def _base_series(family: str, lam: Fraction, order: int) -> Series:
    if family == "s2":
        return deg_exp(lam, 1, order) - Series.one(order)
    if family == "s1":
        return deg_log(lam, order)
    if family == "lah":
        # t / (1 - t)
        return Series([_ZERO] + [_ONE] * order)
    if family == "h":
        return deg_exp(-lam, 1, order) - Series.one(order)
    if family == "g":
        return deg_log(-lam, order)
    raise ValueError(f"unknown triangle family {family!r}")


@memo
def triangle(family: str, lam: Scalar, nmax: int) -> Triangle:
    """Stirling-type triangle computed from its generating function.

    family: "s2" / "s1" (degenerate Stirling, classical at lam = 0),
    "lah" (lam ignored), "h" / "g" (the rising-to-falling connection
    coefficients and their inverses).
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    return triangle_from_base(_base_series(family, lam, nmax), family, lam, nmax)


def bell_triangle(x: Sequence[Scalar], nmax: int) -> Triangle:
    """Partial Bell polynomials B_{n,k}(x1, x2, ...) for 0 <= k <= n <= nmax.

    Filled row by row with the recurrence (Comtet, Advanced Combinatorics,
    section 3.3)

        B_{n,k} = sum_{i=1}^{n-k+1} C(n-1, i-1) x_i B_{n-i,k-1},

    from B_{0,0} = 1 and B_{n,0} = 0 for n >= 1.  Only x1, ..., x_nmax enter
    the table, so `x` needs at least nmax entries.  No series arithmetic and
    no generating-function triangle is involved.  The result is a Triangle
    of family "bell" whose lam field is unused (0).
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if len(x) < nmax:
        raise ValueError(f"need at least {nmax} sequence entries, got {len(x)}")
    xs, d = _scaled([_rat(v) for v in x][:nmax])
    # B_{n,k} is homogeneous of degree k: with x_i = xs[i-1] / d the entry
    # is the integer recurrence over xs, divided by d**k.  cols[k][m] is
    # the integer B_{m,k}
    cols = [[1]]
    rows = [(_ONE,)]
    for n in range(1, nmax + 1):
        # w[i - 1] = C(n-1, i-1) x_i for i = 1..n
        w = [comb(n - 1, i) * xs[i] for i in range(n)]
        cols[0].append(0)
        cols.append([0] * n)
        row = [_ZERO] * (n + 1)
        dk = 1
        for k in range(1, n + 1):
            dk *= d
            # sum_{i=1}^{n-k+1} w[i-1] B_{n-i,k-1}; rows n-1 down to k-1
            below = cols[k - 1]
            total = sum(map(mul, w[: n - k + 1], reversed(below[k - 1:n])))
            cols[k].append(total)
            if total:
                row[k] = Fraction(total, dk)
        rows.append(tuple(row))
    return Triangle("bell", _ZERO, nmax, tuple(rows))


def partial_bell(x: Sequence[Scalar], n: int, k: int) -> Fraction:
    """Partial Bell polynomial B_{n,k}(x1, ..., x_{n-k+1}).

    The (n, k) entry of `bell_triangle`, with `x` cut to its first n-k+1
    entries and padded with zeros; B_{n,k} never reads x_m for m > n-k+1.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if len(x) < n - k + 1:
        raise ValueError(f"need at least {n - k + 1} sequence entries, got {len(x)}")
    padded = list(x[: n - k + 1]) + [_ZERO] * max(k - 1, 0)
    return bell_triangle(padded, n).value(n, k)


def _check_gamma(gamma: Fraction, mean: Fraction) -> None:
    if gamma.denominator != 1 and mean != 1:
        raise ValueError(
            "non-integer order requires E[Y] = 1; the normalization "
            f"E[Y]**gamma would be irrational (E[Y] = {mean})"
        )


def bernoulli_from_mgf(mgf: Series, gamma: Scalar, x: Scalar = 0) -> Series:
    """Higher-order Bernoulli-type series (t/(mgf-1))**gamma * mgf**x.

    The result is one order shorter than `mgf` (the shift by t costs one
    coefficient).
    """
    gamma, x = _rat(gamma), _rat(x)
    order = mgf.order - 1
    delta = as_delta(mgf - Series.one(mgf.order))
    _check_gamma(gamma, delta.coeff(1))
    q = Series.one(order) / delta.shift_down(1)
    result = q.pow(gamma)
    if x:
        result = result * mgf.pow(x).truncate(order)
    return result


def order_from_log(log_series: Series, gamma: Scalar, family: str) -> Series:
    """Daehee- or Cauchy-type series from a logarithm-type delta series.

    daehee: (log/t)**gamma, cauchy: (t/log)**gamma; one order is consumed by
    the shift.
    """
    gamma = _rat(gamma)
    as_delta(log_series)
    _check_gamma(gamma, 1 / log_series.coeff(1))
    shifted = log_series.shift_down(1)
    if family == "daehee":
        return shifted.pow(gamma)
    if family == "cauchy":
        return (Series.one(shifted.order) / shifted).pow(gamma)
    raise ValueError(f"unknown order-number family {family!r}")


def order_numbers(lam: Scalar, gamma: Scalar, x: Scalar, family: str,
                  order: int) -> Series:
    """Series of higher-order degenerate Bernoulli, Daehee or Cauchy numbers.

    EGF coefficients of, respectively,

        bernoulli: (t / (e_lam(t) - 1))**gamma * e_lam(t)**x
        daehee:    (log_lam(1 + t) / t)**gamma
        cauchy:    (t / log_lam(1 + t))**gamma

    where e_lam / log_lam are the degenerate exponential and logarithm.  Both
    bases have unit constant term, so any rational gamma is valid.  The shift
    x is only defined for the bernoulli family.
    """
    lam = _rat(lam)
    if family == "bernoulli":
        return bernoulli_from_mgf(deg_exp(lam, 1, order + 1), gamma, x)
    if _rat(x) != 0:
        raise ValueError(f"the {family} family does not take a shift argument")
    return order_from_log(deg_log(lam, order + 1), gamma, family)


def bernoulli_pade_a2(order: int) -> Series:
    """Series (t^2/2!) / (e^t - 1 - t); its EGF coefficients start 1, -1/3, ..."""
    n = order + 2
    e = deg_exp(0, 1, n)
    den = (e - Series.one(n) - Series.t(n)).shift_down(2)
    return (Series.one(order) / den).scale(Fraction(1, 2))


@memo
def frobenius_euler(lam: Scalar, r: int, u: Scalar, order: int) -> Series:
    """Degenerate Frobenius-Euler numbers of order r: ((1-u)/(e_lam(t)-u))**r."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if u == 1:
        raise ValueError("parameter u must differ from 1")
    if r < 0:
        raise ValueError("order r must be a nonnegative integer")
    den = deg_exp(lam, 1, order) - Series.constant(u, order)
    base = Series.constant(1 - u, order) / den
    return base.pow(r)


def lah_bell(x: Scalar, n: int) -> Fraction:
    """Lah-Bell polynomial value: sum_k L(n,k) x**k."""
    x = _rat(x)
    t = triangle("lah", _ZERO, n)
    return sum((t.value(n, k) * x**k for k in range(n + 1)), _ZERO)


def hetero_bell(lam: Scalar, x: Scalar, n: int) -> Fraction:
    """Bell-type polynomial over the rising-connection triangle: sum_k H(n,k) x**k."""
    lam, x = _rat(lam), _rat(x)
    t = triangle("h", lam, n)
    return sum((t.value(n, k) * x**k for k in range(n + 1)), _ZERO)
