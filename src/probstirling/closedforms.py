"""Distribution-specific closed forms for the probabilistic triangles and logs.

For each of the nine named distributions, the second-kind entries, the
first-kind entries and the logarithm coefficients admit printed formulas in
terms of classical tables (Stirling, Lah, Frobenius-Euler, Bernoulli-Pade).
This module evaluates those formulas *literally*, without ever reverting a
series, so they can serve as an independent check of the reversion-based
engine in :mod:`probstirling.prob`.

Every formula is returned as an exact `Fraction`.  The gamma first kind
and the normal first kind and log are printed with an infinite auxiliary
sum, but every term past index n is exactly 0 (a finite difference of order
above a polynomial's degree), so they are summed to n only.  The
negative-binomial forms (both kinds) are printed as infinite series in a
generating function whose argument is exactly 1 at the evaluation point,
so each collapses to a finite sum over i = k..n of a degenerate Stirling
table against an integer connection table.

Some printed sums are re-associated, each to the same exact value and
without leaving this module's route: the negative-binomial forms sum through
the integer tables T and V of `_nb_connection`, built by their own
recurrence, and the gamma second kind's inner sum is a finite difference
that vanishes below the diagonal.  The negative-binomial, binomial, normal
and uniform second kinds and the negative-binomial and binomial first
kinds sum their terms as integers over the lcm of their denominators.
Seven logs are log_lam(u) = (u - 1).log1p(lam) of a printed unit series u,
with no composition; the normal and uniform logs are their first kinds at
k = 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm

from .randomvars import RandomVar
from .series import Scalar, Series, _rat, memo
from .special import (
    binom,
    falling_factorial,
    frobenius_euler,
    bernoulli_pade_a2,
    triangle,
)

__all__ = ["CLOSED_FORM_KINDS", "closed_form", "uniform_first_kind"]

_ZERO = Fraction(0)
_ONE = Fraction(1)

CLOSED_FORM_KINDS = (
    "bernoulli", "binomial", "poisson", "exponential", "gamma",
    "geometric", "normal", "negbinomial", "uniform01",
)


class NumericResult:
    """Returned by no closed form: every one is an exact `Fraction`.

    Kept only because the benchmark harness's tracer (`perfbench/tracer.py`)
    reads this name to count non-exact closed-form results.
    """


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
    d = lcm(*dens)
    return Fraction(sum([a * (d // b) for a, b in zip(nums, dens)]), d)


# ---------------------------------------------------------------------------
# Second-kind closed forms
# ---------------------------------------------------------------------------

def _s2_value(rv: RandomVar, lam: Fraction, n: int, k: int) -> Fraction:
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
        return _nb_s2(rv.param("p"), int(rv.param("r")), lam, n, k)
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

def _s1_value(rv: RandomVar, lam: Fraction, n: int, k: int) -> Fraction:
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
        return _nb_s1(rv.param("p"), int(rv.param("r")), lam, n, k)
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


def _log_value(rv: RandomVar, lam: Fraction, n: int) -> Fraction:
    if n == 0:
        return _ZERO
    if rv.kind in ("normal", "uniform01"):  # log_lam coefficients = first kind at k = 1
        return _s1_value(rv, lam, n, 1)
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
# Negative binomial: printed as infinite sums, finite at the evaluation point
# ---------------------------------------------------------------------------

@memo
def _nb_connection(c: int, d: int, nmax: int) -> tuple:
    """Rows n = 0..nmax of the integers C(n, l) with
    prod_{j<n} (c y - d j) = sum_l C(n, l) (y)_l, built by
    C(n, l) = c C(n-1, l-1) + (c l - d (n-1)) C(n-1, l), from
    (y)_l (c y - d (n-1)) = c (y)_{l+1} + (c l - d (n-1)) (y)_l.

    (c, d) = (-r, 1) gives T, (-r y)_n = sum_l T(n, l) (y)_l, the sum
    T(n, l) = sum_m (-r)^m s1(n, m) S2(m, l) of the printed second kind;
    (c, d) = (-1, r) gives V, prod_{j<n} (-y - j r) = sum_l V(n, l) (y)_l.
    """
    rows = [(1,)]
    for n in range(1, nmax + 1):
        prev = rows[-1]
        row = [0] * (n + 1)
        for l in range(n + 1):
            above_left = prev[l - 1] if l else 0
            above = prev[l] if l < n else 0
            row[l] = c * above_left + (c * l - d * (n - 1)) * above
        rows.append(tuple(row))
    return tuple(rows)


def _nb_s2(p: Fraction, r: int, lam: Fraction, n: int, k: int) -> Fraction:
    """sum_{i=k..n} S2_lam(n, i) (1/q)^i T(i, k), q = p/(p-1): the printed
    double sum, whose generating function has argument exactly 1 here."""
    pn, pd = p.numerator, p.denominator  # 1/q = (pn - pd) / pn
    s2l, conn = _tab("s2", lam, n), _nb_connection(-r, 1, _bucket(n))
    nums, dens = [], []
    for i in range(k, n + 1):
        s2v = s2l.value(n, i)
        nums.append(s2v.numerator * (pn - pd) ** i * conn[i][k])
        dens.append(s2v.denominator * pn**i)
    return _over_lcm(nums, dens)


def _nb_s1(p: Fraction, r: int, lam: Fraction, n: int, k: int) -> Fraction:
    """r^(-n) sum_{i=k..n} V(n, i) q^i s1_lam(i, k), q = p/(p-1): the printed
    sum, whose irrational scale factors cancel at the evaluation point."""
    pn, pd = p.numerator, p.denominator  # q = -pn / (pd - pn)
    s1l, conn = _tab("s1", lam, n), _nb_connection(-1, r, _bucket(n))
    nums, dens = [], []
    for i in range(k, n + 1):
        s1v = s1l.value(i, k)
        nums.append(conn[n][i] * (-pn) ** i * s1v.numerator)
        dens.append((pd - pn) ** i * s1v.denominator * r**n)
    return _over_lcm(nums, dens)


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

def closed_form(rv: RandomVar, lam: Scalar, family: str, n: int,
                k: int = 0) -> Fraction:
    """Evaluate the printed closed form for one triangle entry or log coefficient.

    family "s2" / "s1": value at (n, k).  family "log": EGF coefficient at n
    (k is ignored).  Every formula, for all nine distributions, gives an
    exact Fraction.
    """
    lam = _rat(lam)
    if rv.kind not in CLOSED_FORM_KINDS:
        raise ValueError(f"no closed forms for {rv.kind!r} (named distributions only)")
    if n < 0:
        raise ValueError("n must be >= 0")
    if family == "log":
        return _log_value(rv, lam, n)
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if family == "s2":
        return _s2_value(rv, lam, n, k)
    if family == "s1":
        return _s1_value(rv, lam, n, k)
    raise ValueError(f"unknown closed-form family {family!r}")
