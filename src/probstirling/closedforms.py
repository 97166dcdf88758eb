"""Distribution-specific closed forms for the probabilistic triangles and logs.

For each of the nine named distributions, the second-kind entries, the
first-kind entries and the logarithm coefficients admit printed formulas in
terms of classical tables (Stirling, Lah, Frobenius-Euler, Bernoulli-Pade).
This module evaluates those formulas *literally*, without ever reverting a
series, so they can serve as an independent check of the reversion-based
engine in :mod:`probstirling.prob`.

Every formula except the negative binomial's is a finite sum of rationals
and is returned as an exact `Fraction`.  The gamma first kind and the normal
first kind and log are printed with an infinite auxiliary sum, but every
term past index n is exactly 0 (a finite difference of order above a
polynomial's degree), so they are summed to n only.  The negative-binomial
forms (both kinds) are genuinely infinite: they are evaluated as partial
sums to a caller-chosen depth and returned as :class:`NumericResult`, with a
stabilization flag instead of a convergence proof.  Their partial sums are
accumulated in exact rational arithmetic; floating point only enters for the
irrational scale factors of the first kind (and for the final comparison
value).

Some printed sums are re-associated, each to the same exact value and
without leaving this module's route: the negative-binomial second kind sums
its double sum over Stirling tables through one integer connection table
T(j, l), (-r y)_j = sum_l T(j, l) (y)_l, built by its own recurrence, and
the gamma second kind's inner sum is a finite difference that vanishes
below the diagonal.  The negative-binomial partial sums are integer dot
products over one common denominator per sequence, and the binomial,
normal and uniform second kinds and the binomial first kind sum their
terms as integers over the lcm of their denominators.  Seven logs are
log_lam(u) = (u - 1).log1p(lam) of a printed unit series u, with no
composition; the normal and uniform logs are their first kinds at k = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .randomvars import RandomVar
from .series import Scalar, Series, _rat, memo
from .special import (
    binom,
    deg_log,
    falling_factorial,
    frobenius_euler,
    bernoulli_pade_a2,
    triangle,
)

__all__ = ["CLOSED_FORM_KINDS", "NumericResult", "closed_form", "uniform_first_kind"]

_ZERO = Fraction(0)
_ONE = Fraction(1)

CLOSED_FORM_KINDS = (
    "bernoulli", "binomial", "poisson", "exponential", "gamma",
    "geometric", "normal", "negbinomial", "uniform01",
)


# movement of the partial sums over five depth steps below this (relative)
# level implies a remaining tail far inside the 1e-9 comparison tolerance
# for the geometric-rate sums handled here
_STABILIZATION_RTOL = 1e-11


@dataclass(frozen=True)
class NumericResult:
    """Truncated evaluation of a printed infinite-sum formula.

    `stabilized` reports whether the partial sums moved by less than one part
    in 1e12 over the last five depth steps; an unstabilized value should be
    treated as inconclusive rather than wrong.
    """

    value: float
    depth: int
    stabilized: bool

    @classmethod
    def from_partials(cls, full: Fraction | float, short: Fraction | float,
                      depth: int) -> "NumericResult":
        """Result for partial sums at `depth` (full) and `depth - 5` (short)."""
        full, short = float(full), float(short)
        stabilized = abs(full - short) <= _STABILIZATION_RTOL * max(1.0, abs(full))
        return cls(full, depth, stabilized)


# ---------------------------------------------------------------------------
# Shared table access (bucketed so different requested sizes share a build)
# ---------------------------------------------------------------------------

def _bucket(need: int) -> int:
    """`need` rounded up to a multiple of 30."""
    return ((need + 29) // 30) * 30


def _tab(family: str, lam: Fraction, need: int):
    return triangle(family, lam, max(10, _bucket(need)))


def _over_lcm(nums: list, dens: list) -> Fraction:
    """sum(a / b for a, b in zip(nums, dens)) for integers a, b: each term
    scaled to the lcm of the denominators, one `Fraction`."""
    d = math.lcm(*dens)
    return Fraction(sum([a * (d // b) for a, b in zip(nums, dens)]), d)


# ---------------------------------------------------------------------------
# Second-kind closed forms
# ---------------------------------------------------------------------------

def _s2_value(rv: RandomVar, lam: Fraction, n: int, k: int, depth: int):
    kind = rv.kind
    if kind == "bernoulli":
        return rv.param("p") ** k * _tab("s2", lam, n).value(n, k)
    if kind == "binomial":
        m, p = rv.param("m"), rv.param("p")
        s2c, s1c = _tab("s2", _ZERO, n), _tab("s1", _ZERO, n)
        s2l = _tab("s2", lam, n)
        nums, dens = [], []
        for j in range(k, n + 1):
            c_jk = s2c.value(j, k)
            if not c_jk:
                continue
            for i in range(j, n + 1):
                s1v, s2v = s1c.value(i, j), s2l.value(n, i)
                nums.append(m.numerator**j * p.numerator**i
                            * c_jk.numerator * s1v.numerator * s2v.numerator)
                dens.append(m.denominator**j * p.denominator**i
                            * c_jk.denominator * s1v.denominator * s2v.denominator)
        return _over_lcm(nums, dens)
    if kind == "poisson":
        alpha = rv.param("alpha")
        s2c, s2l = _tab("s2", _ZERO, n), _tab("s2", lam, n)
        return sum(
            (alpha**j * s2c.value(j, k) * s2l.value(n, j) for j in range(k, n + 1)),
            _ZERO,
        )
    if kind == "exponential":
        alpha = rv.param("alpha")
        s1c = _tab("s1", _ZERO, n)
        total = _ZERO
        for j in range(k, n + 1):
            c = binom(j, k) * falling_factorial(j - 1, j - k, 1)
            if c:
                total += c * alpha ** (-j) * lam ** (n - j) * s1c.value(n, j)
        return total
    if kind == "gamma":
        # the printed inner sum over j, sum_j (-1)^(k-j) C(k, j) (alpha j + l - 1)_l,
        # is (-1)^(k+l) _alt_difference(-alpha, l, k), hence 0 for l < k
        alpha, beta = rv.param("alpha"), rv.param("beta")
        s1c = _tab("s1", _ZERO, n)
        total = _ZERO
        for l in range(k, n + 1):
            s1v = s1c.value(n, l)
            if not s1v:
                continue
            term = _alt_difference(-alpha, l, k) * beta ** (-l) * lam ** (n - l) * s1v
            total += -term if (k + l) % 2 else term
        return total / factorial(k)
    if kind == "geometric":
        p = rv.param("p")
        u = 1 / (1 - p)
        total = _ZERO
        for j in range(k + 1):
            sign = -1 if j % 2 else 1
            total += sign * binom(k, j) * frobenius_euler(lam, j, u, n).egf(n)
        return total * (1 / (p - 1)) ** k / factorial(k)
    if kind == "normal":
        mu, half = rv.param("mu"), rv.param("sigma2") / 2
        s2c, s1c = _tab("s2", _ZERO, n), _tab("s1", _ZERO, n)
        nums, dens = [], []
        for m in range(k, n + 1):
            s1v = s1c.value(n, m)
            if not s1v:
                continue
            for j in range(k, m + 1):
                # m!/j! C(j, m-j) mu^(2j-m) (sigma2/2)^(m-j) lam^(n-m) S2(j, k) s1(n, m)
                c = factorial(m) // factorial(j) * comb(j, m - j)
                if not c:
                    continue
                s2v = s2c.value(j, k)
                nums.append(c * mu.numerator ** (2 * j - m) * half.numerator ** (m - j)
                            * lam.numerator ** (n - m) * s2v.numerator * s1v.numerator)
                dens.append(mu.denominator ** (2 * j - m) * half.denominator ** (m - j)
                            * lam.denominator ** (n - m) * s2v.denominator * s1v.denominator)
        return _over_lcm(nums, dens)
    if kind == "negbinomial":
        return _nb_s2(rv.param("p"), int(rv.param("r")), lam, n, k, depth)
    if kind == "uniform01":
        s2c, s1c = _tab("s2", _ZERO, 2 * n), _tab("s1", _ZERO, n)
        nums, dens = [], []
        for m in range(n + 1):
            s1v = s1c.value(n, m)
            if not s1v:
                continue
            for j in range(k + 1):
                # (-1)^(k-j) C(k, j) / C(m+j, j) lam^(n-m) S2(m+j, j) s1(n, m)
                s2v = s2c.value(m + j, j)
                num = (comb(k, j) * lam.numerator ** (n - m)
                       * s2v.numerator * s1v.numerator)
                nums.append(-num if (k - j) % 2 else num)
                dens.append(comb(m + j, j) * lam.denominator ** (n - m)
                            * s2v.denominator * s1v.denominator)
        return _over_lcm(nums, dens) / factorial(k)
    raise ValueError(f"no second-kind closed form for {kind!r}")


# ---------------------------------------------------------------------------
# First-kind closed forms
# ---------------------------------------------------------------------------

def _s1_value(rv: RandomVar, lam: Fraction, n: int, k: int, depth: int):
    kind = rv.kind
    if kind == "bernoulli":
        return rv.param("p") ** (-n) * _tab("s1", lam, n).value(n, k)
    if kind == "binomial":
        m, p = rv.param("m"), rv.param("p")
        s2c, s1c = _tab("s2", _ZERO, n), _tab("s1", _ZERO, n)
        s1l = _tab("s1", lam, n)
        nums, dens = [], []
        for j in range(k, n + 1):
            s1lv = s1l.value(j, k)
            if not s1lv:
                continue
            for i in range(j, n + 1):
                # p^(-j) m^(-i) S2(i, j) s1(n, i) s1_lam(j, k)
                s2v, s1v = s2c.value(i, j), s1c.value(n, i)
                nums.append(p.denominator**j * m.denominator**i
                            * s2v.numerator * s1v.numerator * s1lv.numerator)
                dens.append(p.numerator**j * m.numerator**i
                            * s2v.denominator * s1v.denominator * s1lv.denominator)
        return _over_lcm(nums, dens)
    if kind == "poisson":
        alpha = rv.param("alpha")
        s1c, s1l = _tab("s1", _ZERO, n), _tab("s1", lam, n)
        return sum(
            (alpha ** (-j) * s1l.value(j, k) * s1c.value(n, j) for j in range(k, n + 1)),
            _ZERO,
        )
    if kind == "exponential":
        alpha = rv.param("alpha")
        s2c, lah = _tab("s2", _ZERO, n), _tab("lah", _ZERO, n)
        total = _ZERO
        for j in range(k, n + 1):
            sign = -1 if (n - j) % 2 else 1
            total += (
                sign * lah.value(n, j) * alpha**j * lam ** (j - k) * s2c.value(j, k)
            )
        return total
    if kind == "gamma":
        return _gamma_s1(rv.param("alpha"), rv.param("beta"), lam, n, k)
    if kind == "geometric":
        p = rv.param("p")
        lah, s1l = _tab("lah", _ZERO, n), _tab("s1", lam, n)
        return sum(
            (
                lah.value(n, j) * p**j * (p - 1) ** (n - j) * s1l.value(j, k)
                for j in range(k, n + 1)
            ),
            _ZERO,
        )
    if kind == "normal":
        if lam == 0:
            raise ValueError("the printed normal first-kind formula needs lam != 0")
        return _normal_s1(rv.param("mu"), rv.param("sigma2"), lam, n, k)
    if kind == "negbinomial":
        return _nb_s1(rv.param("p"), int(rv.param("r")), lam, n, k, depth)
    if kind == "uniform01":
        return uniform_first_kind(lam, n, k)
    raise ValueError(f"no first-kind closed form for {kind!r}")


# ---------------------------------------------------------------------------
# Logarithm closed forms
# ---------------------------------------------------------------------------

@memo
def _log_series(rv: RandomVar, lam: Fraction, order: int) -> Series:
    """log_lam(u) of the distribution's printed unit series u, as (u - 1).log1p(lam)."""
    kind = rv.kind
    one, t = Series.one(order), Series.t(order)
    if kind == "bernoulli":
        return t.scale(1 / rv.param("p")).log1p(lam)
    if kind == "binomial":
        m, p = rv.param("m"), rv.param("p")
        return ((one + t).pow(1 / m) - one).scale(1 / p).log1p(lam)
    if kind == "poisson":
        return t.log1p().scale(1 / rv.param("alpha")).log1p(lam)
    if kind == "exponential":
        exponent = (t * (one + t).pow(-1)).scale(rv.param("alpha"))
        return (exponent.exp() - one).log1p(lam)
    if kind == "gamma":
        alpha, beta = rv.param("alpha"), rv.param("beta")
        exponent = (one - (one + t).pow(-1 / alpha)).scale(beta)
        return (exponent.exp() - one).log1p(lam)
    if kind == "geometric":
        ratio = (one + t) / (one + t.scale(1 - rv.param("p")))
        return (ratio - one).log1p(lam)
    if kind == "negbinomial":
        r, p = int(rv.param("r")), rv.param("p")
        ratio = (one - (one + t).pow(Fraction(-1, r)).scale(p)).scale(1 / (1 - p))
        return (ratio - one).log1p(lam)
    raise ValueError(f"no exact log pipeline for {kind!r}")


def _log_value(rv: RandomVar, lam: Fraction, n: int, depth: int) -> Fraction:
    if n == 0:
        return _ZERO
    if rv.kind in ("normal", "uniform01"):  # log_lam coefficients = first kind at k = 1
        return _s1_value(rv, lam, n, 1, depth)
    order = max(8, ((n + 7) // 8) * 8)
    return _log_series(rv, lam, order).egf(n)


# ---------------------------------------------------------------------------
# Gamma and normal: printed as infinite sums, exactly 0 past index n
# ---------------------------------------------------------------------------

@memo
def _alt_difference(c: Fraction, n: int, l: int) -> Fraction:
    """sum_j (-1)^j C(l, j) (c j)_n: the l-th finite difference of the degree-n
    polynomial j -> (c j)_n, up to sign, hence 0 for every l > n."""
    total = _ZERO
    for j in range(l + 1):
        term = binom(l, j) * falling_factorial(c * j, n, 1)
        total += -term if j % 2 else term
    return total


def _gamma_s1(alpha: Fraction, beta: Fraction, lam: Fraction,
              n: int, k: int) -> Fraction:
    # the printed sum over l is infinite, but _alt_difference is 0 past l = n
    s2c = _tab("s2", _ZERO, n)
    total = _ZERO
    for l in range(k, n + 1):
        s2v = s2c.value(l, k)
        if not s2v:
            continue
        total += (
            _alt_difference(-1 / alpha, n, l)
            * beta**l
            * lam ** (l - k)
            * s2v
            / factorial(l)
        )
    return total


@memo
def _normal_w(mu: Fraction, sigma2: Fraction, lam: Fraction,
              k: int, m: int) -> Fraction:
    # the printed sum over j is infinite, but _alt_difference is 0 past j = m
    ratio = lam * mu / sigma2
    s2c = _tab("s2", _ZERO, m)
    total = _ZERO
    for j in range(k, m + 1):
        s2v = s2c.value(j, k)
        if not s2v:
            continue
        term = ratio**j * s2v * _alt_difference(Fraction(1, 2), m, j) / factorial(j)
        total += -term if j % 2 else term
    return total


def _normal_s1(mu: Fraction, sigma2: Fraction, lam: Fraction,
               n: int, k: int) -> Fraction:
    s1c = _tab("s1", _ZERO, n)
    total = _ZERO
    for m in range(n + 1):
        s1v = s1c.value(n, m)
        if not s1v:
            continue
        total += s1v * 2**m * (sigma2 / mu**2) ** m * _normal_w(mu, sigma2, lam, k, m)
    return total / lam**k


# ---------------------------------------------------------------------------
# Negative binomial: genuinely infinite, partial sums at depth - 5 and depth
# ---------------------------------------------------------------------------

@memo
def _nb_connection(r: int, depth: int) -> tuple:
    """Rows j = 0..depth of the integers T(j, l) with (-r y)_j = sum_l T(j, l) (y)_l.

    T(j, l) = sum_m (-r)^m s1(j, m) S2(m, l), built without either table by
    T(j, l) = -r T(j-1, l-1) - (r l + j - 1) T(j-1, l), from
    (y)_l (-r y - (j-1)) = -r (y)_{l+1} - (r l + j - 1) (y)_l.
    """
    rows = [(1,)]
    for j in range(1, depth + 1):
        prev = rows[-1]
        row = [0] * (j + 1)
        for l in range(j + 1):
            above_left = prev[l - 1] if l else 0
            above = prev[l] if l < j else 0
            row[l] = -r * above_left - (r * l + j - 1) * above
        rows.append(tuple(row))
    return tuple(rows)


# The second kind sums (p-1)^j a_k(j)/j! (j)_{n,lam} over j: the weights
# depend on (p, r, k) and the falling-factorial column on (n, lam) only, so
# each is built once per depth and shared by every entry that needs it.
@memo
def _nb_s2_weights(p: Fraction, r: int, k: int, depth: int) -> tuple:
    """(p-1)^j a_k(j) / j! for j = 0..depth, where the printed
    a_k(j) = sum_m (-r)^m s1(j, m) sum_l (p^r - 1)^(k-l) p^(r l) S2(m, l) / (k-l)!
    is summed over m first: a_k(j) = sum_{l <= min(j, k)} T(j, l) c_l, with
    T the connection table of `_nb_connection` and
    c_l = (p^r - 1)^(k-l) p^(r l) / (k-l)!."""
    c = [(p**r - 1) ** (k - l) * p ** (r * l) / factorial(k - l) for l in range(k + 1)]
    weights = []
    for j, row in enumerate(_nb_connection(r, depth)):
        a = sum((row[l] * c[l] for l in range(min(j, k) + 1)), _ZERO)
        weights.append((p - 1) ** j * a / factorial(j))
    return tuple(weights)


@memo
def _falling_column(n: int, lam: Fraction, depth: int) -> tuple:
    """(j)_{n,lam} for j = 0..depth, one factor (j - (n-1) lam) on the column for n - 1."""
    if n == 0:
        return (_ONE,) * (depth + 1)
    shift = (n - 1) * lam
    return tuple(f * (j - shift) for j, f in enumerate(_falling_column(n - 1, lam, depth)))


def _partial_sums(a: tuple, b: tuple, depth: int) -> tuple:
    """sum_j a_j b_j over j <= depth and over j <= depth - 5, both exact,
    as integer dot products over one common denominator per sequence."""
    a, b = a[: depth + 1], b[: depth + 1]
    da = math.lcm(*(x.denominator for x in a))
    db = math.lcm(*(x.denominator for x in b))
    products = [
        x.numerator * (da // x.denominator) * y.numerator * (db // y.denominator)
        for x, y in zip(a, b)
    ]
    short = sum(products[: depth - 4])
    total = short + sum(products[depth - 4:])
    return Fraction(total, da * db), Fraction(short, da * db)


def _nb_s2(p: Fraction, r: int, lam: Fraction,
           n: int, k: int, depth: int) -> NumericResult:
    """Exact partial sums to depth and to depth - 5, in one pass."""
    total, short = _partial_sums(
        _nb_s2_weights(p, r, k, depth), _falling_column(n, lam, depth), depth
    )
    return NumericResult.from_partials(total, short, depth)


@memo
def _deg_log_power(lam: Fraction, nmax: int, l: int) -> Series:
    """deg_log(lam)**l to order nmax, built from the (l-1)-th power."""
    if l == 0:
        return Series.one(nmax)
    if l == 1:
        return deg_log(lam, nmax)
    return _deg_log_power(lam, nmax, l - 1) * _deg_log_power(lam, nmax, 1)


@memo
def _deg_s1_column(lam: Fraction, nmax: int, l: int) -> tuple:
    """m! [t^m] deg_log(lam)**l / l! for m = 0..nmax: column l of the
    degenerate first kind, read once from the power table for every n."""
    power, lf = _deg_log_power(lam, nmax, l), factorial(l)
    return tuple(power.egf(m) / lf for m in range(nmax + 1))


@memo
def _nb_s1_signed(p: Fraction, r: int, n: int, depth: int) -> tuple:
    """(-p)^m (-m/r)_n / m! for m = 0..depth, shared by every lam."""
    return tuple(
        (-p) ** m * falling_factorial(Fraction(-m, r), n, 1) / factorial(m)
        for m in range(depth + 1)
    )


@memo
def _nb_s1_inners(p: Fraction, r: int, lam: Fraction, n: int, depth: int) -> tuple:
    """For l = 0..n, the exact inner sums over m to depth and to depth - 5
    (column l is 0 above row l, so every sum may start at m = 0)."""
    nmax = _bucket(depth)  # one power table for nearby depths
    signed = _nb_s1_signed(p, r, n, depth)
    return tuple(
        _partial_sums(signed, _deg_s1_column(lam, nmax, l), depth) for l in range(n + 1)
    )


def _nb_s1(p: Fraction, r: int, lam: Fraction,
           n: int, k: int, depth: int) -> NumericResult:
    # The scale factors (1/(1-p))**(lam l) and log_lam(1/(1-p))**(k-l) are
    # irrational for fractional lam, so these partial sums are floats.
    q = 1 / (1 - p)
    qf, lamf = float(q), float(lam)
    log_lam_q = math.log(qf) if lam == 0 else (qf**lamf - 1.0) / lamf
    inners = _nb_s1_inners(p, r, lam, n, depth)
    total = short = 0.0
    for l in range(k + 1):
        scale = qf ** (lamf * l) * log_lam_q ** (k - l) / factorial(k - l)
        inner, inner_short = inners[l]
        total += float(inner) * scale
        short += float(inner_short) * scale
    return NumericResult.from_partials(total, short, depth)


# ---------------------------------------------------------------------------
# Uniform first kind: multinomial convolution over Bernoulli-Pade numbers
# ---------------------------------------------------------------------------

@memo
def _a2_values(nmax: int) -> tuple:
    series = bernoulli_pade_a2(nmax)
    return tuple(series.egf(i) for i in range(nmax + 1))


@memo
def _uni_m(parts: int, m: int) -> Fraction:
    """Sum over compositions of m into `parts` parts of multinomial * A2 products."""
    if parts == 0:
        return _ONE if m == 0 else _ZERO
    a2 = _a2_values(max(10, m))
    total = _ZERO
    for j in range(m + 1):
        rest = _uni_m(parts - 1, m - j)
        if rest and a2[j]:
            total += binom(m, j) * a2[j] * rest
    return total


@memo
def _uni_t(parts: int, s: int) -> Fraction:
    """Sum over compositions of s into `parts` parts of multinomial / prod(l_i + 1)."""
    if parts == 0:
        return _ONE if s == 0 else _ZERO
    total = _ZERO
    for l in range(s + 1):
        rest = _uni_t(parts - 1, s - l)
        if rest:
            total += binom(s, l) / (l + 1) * rest
    return total


def uniform_first_kind(lam: Scalar, n: int, k: int) -> Fraction:
    """First-kind entry for the uniform distribution on [0, 1], evaluated from
    the Bernoulli-Pade multinomial formula (no reversion involved)."""
    lam = _rat(lam)
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if n == 0:
        return _ONE
    total = _ZERO
    for m in range(n - k + 1):
        mm = _uni_m(n, m)
        if not mm:
            continue
        s = n - k - m
        tt = _uni_t(k, s)
        if tt:
            total += (n - m) * binom(n - k, m) * mm * lam**s * tt
    return Fraction(2**n, n) * binom(n, k) * total


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

def closed_form(rv: RandomVar, lam: Scalar, family: str, n: int, k: int = 0,
                depth: int = 60):
    """Evaluate the printed closed form for one triangle entry or log coefficient.

    family "s2" / "s1": value at (n, k).  family "log": EGF coefficient at n
    (k is ignored).  Finite formulas return an exact Fraction; the
    negative-binomial first and second kinds, whose auxiliary sum is
    infinite, return a :class:`NumericResult` truncated at `depth`.  `depth`
    must be >= 10 for every distribution, whether or not it is used.
    """
    lam = _rat(lam)
    if depth < 10:
        raise ValueError("truncation depth must be >= 10")
    if rv.kind not in CLOSED_FORM_KINDS:
        raise ValueError(f"no closed forms for {rv.kind!r} (named distributions only)")
    if n < 0:
        raise ValueError("n must be >= 0")
    if family == "log":
        return _log_value(rv, lam, n, depth)
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if family == "s2":
        return _s2_value(rv, lam, n, k, depth)
    if family == "s1":
        return _s1_value(rv, lam, n, k, depth)
    raise ValueError(f"unknown closed-form family {family!r}")
