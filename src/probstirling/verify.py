"""Identity verification suites and Monte Carlo cross-checks.

Three layers live here:

* recurrence / closed-form / textbook-moment oracles that deliberately
  duplicate quantities the engine computes from generating functions, so
  every check compares two genuinely independent computation paths;
* the exact identity suites (`check_orthogonality`, `identity_suite`,
  `limit_suite`) producing structured :class:`VerificationReport` objects;
* a seeded Monte Carlo estimator (`mc_check`) that validates expectation
  semantics statistically.  Samplers are built from PCG64 uniform draws
  only, so results are reproducible bit for bit for a fixed seed.

Exact identities are compared rationally, and so are the closed forms of
every distribution except the negative binomial.  Its two truncated numeric
closed forms (first and second kind) are compared within 1e-9 relative
tolerance and report "inconclusive" (never "fail") when their partial sums
have not stabilized at the configured depth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from math import factorial, lcm
from typing import Iterable, Optional, Sequence

import numpy as np

from .closedforms import CLOSED_FORM_KINDS, NumericResult, closed_form
from .prob import (
    bernoulli_from_mgf,
    mgf_deg,
    mgf_deg_neg,
    prob_log,
    prob_order_numbers,
    prob_triangle,
    schlomilch_sum,
    sj_moment,
)
from .randomvars import RandomVar, builtin_random_vars
from .series import Series, _rat, lagrange_extract, memo
from .special import (
    Triangle,
    bell_triangle,
    binom,
    deg_exp,
    deg_log,
    falling_factorial,
    order_numbers,
    rising_factorial,
    triangle,
    triangle_from_base,
)

__all__ = [
    "IdentityRecord",
    "VerificationReport",
    "MCEstimate",
    "DEFAULT_GAMMAS",
    "DEFAULT_LAMBDA_GRID",
    "NUMERIC_TOLERANCE",
    "MAX_SAMPLES",
    "stirling1_oracle",
    "stirling2_oracle",
    "stirling1_deg_oracle",
    "stirling2_deg_incl_excl",
    "rising_incl_excl",
    "lah_closed",
    "moment_oracle",
    "sum_power_moment",
    "check_orthogonality",
    "identity_suite",
    "limit_suite",
    "eq_identities_pass",
    "mc_check",
    "sample_rv",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

DEFAULT_GAMMAS = tuple(range(-3, 5))
DEFAULT_LAMBDA_GRID = (
    Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 3), Fraction(2),
)
NUMERIC_TOLERANCE = 1e-9
MAX_SAMPLES = 10_000_000  # mc_check allocates about 100 MB per 10**6 gamma samples


# ---------------------------------------------------------------------------
# Report types
# ---------------------------------------------------------------------------

@dataclass
class IdentityRecord:
    identity: str
    rv: str
    lam: str
    nmax: int
    status: str                      # pass | fail | inconclusive
    first_failure: Optional[tuple] = None
    lhs: Optional[str] = None
    rhs: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "rv": self.rv,
            "lambda": self.lam,
            "nmax": self.nmax,
            "status": self.status,
            "first_failure": list(self.first_failure) if self.first_failure else None,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass
class VerificationReport:
    suite: str
    records: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.records)

    @property
    def failed(self) -> bool:
        return any(r.status == "fail" for r in self.records)

    def failures(self) -> list:
        return [r for r in self.records if r.status == "fail"]

    def inconclusive(self) -> list:
        return [r for r in self.records if r.status == "inconclusive"]

    def extend(self, other: "VerificationReport") -> None:
        self.records.extend(other.records)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "failed": self.failed,
            "records": [r.to_dict() for r in self.records],
        }


@dataclass
class MCEstimate:
    target: str
    samples: int
    seed: int
    estimate: float
    std_error: float
    exact: Fraction
    z: float

    @property
    def within_band(self) -> bool:
        return abs(self.z) <= 5.0

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "samples": self.samples,
            "seed": self.seed,
            "estimate": format(self.estimate, ".12g"),
            "std_error": format(self.std_error, ".12g"),
            "exact": str(self.exact),
            "z": format(self.z, ".12g"),
        }


# ---------------------------------------------------------------------------
# Oracles: recurrences, closed forms, textbook moments
# ---------------------------------------------------------------------------

def _recurrence_table(nmax: int, coefficient) -> tuple:
    """Rows 0..nmax of T(n,k) = T(n-1,k-1) + coefficient(n-1, k) T(n-1,k), T(0,0) = 1."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    rows = [[_ONE]]
    for n in range(1, nmax + 1):
        prev = rows[-1]
        row = [_ZERO] * (n + 1)
        for k in range(n + 1):
            above_left = prev[k - 1] if k >= 1 else _ZERO
            above = prev[k] if k <= n - 1 else _ZERO
            row[k] = above_left + coefficient(n - 1, k) * above
        rows.append(row)
    return tuple(tuple(r) for r in rows)


def stirling1_oracle(nmax: int) -> tuple:
    """Signed first-kind Stirling table via s(n,k) = s(n-1,k-1) - (n-1) s(n-1,k)."""
    return stirling1_deg_oracle(nmax, _ZERO)


@memo
def stirling2_oracle(nmax: int) -> tuple:
    """Second-kind Stirling table via S(n,k) = S(n-1,k-1) + k S(n-1,k)."""
    return _recurrence_table(nmax, lambda m, k: k)


@memo
def stirling1_deg_oracle(nmax: int, lam: Fraction) -> tuple:
    """Degenerate first-kind table via S(n+1,k) = S(n,k-1) + (k lam - n) S(n,k)."""
    return _recurrence_table(nmax, lambda m, k: k * lam - m)


def _incl_excl_row(values: Sequence[Fraction]) -> tuple:
    """(1/k!) sum_j (-1)^(k-j) C(k, j) f(j) for k = 0..len(values) - 1, from
    values = f(0), f(1), ...: the k-th differences of f at 0, over k!.

    The differences are taken on integer numerators over one common
    denominator, so each entry costs one Fraction.
    """
    d = lcm(*(v.denominator for v in values))
    diffs = [v.numerator * (d // v.denominator) for v in values]
    row = []
    for k in range(len(values)):
        row.append(Fraction(diffs[0], d * factorial(k)))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return tuple(row)


def stirling2_deg_incl_excl(n: int, k: int, lam: Fraction) -> Fraction:
    """Degenerate second-kind entry from the inclusion-exclusion sum."""
    return _incl_excl_row([falling_factorial(j, n, lam) for j in range(k + 1)])[k]


def rising_incl_excl(n: int, k: int, lam: Fraction) -> Fraction:
    """Rising-factorial connection entry from its inclusion-exclusion sum."""
    return _incl_excl_row([rising_factorial(j, n, lam) for j in range(k + 1)])[k]


def lah_closed(n: int, k: int) -> Fraction:
    """Lah numbers in closed form: n!/k! C(n-1, k-1)."""
    if not 0 <= k <= n:
        return _ZERO
    if n == 0:
        return _ONE
    return Fraction(factorial(n), factorial(k)) * binom(n - 1, k - 1)


def moment_oracle(rv: RandomVar, n: int) -> Fraction:
    """Raw moment E[Y^n] from textbook formulas, bypassing the series engine."""
    if n == 0:
        return _ONE
    kind = rv.kind
    if kind == "bernoulli":
        return rv.param("p")
    if kind == "binomial":
        m, p = rv.param("m"), rv.param("p")
        s2 = stirling2_oracle(n)
        return sum(
            (s2[n][i] * falling_factorial(m, i, 1) * p**i for i in range(1, n + 1)),
            _ZERO,
        )
    if kind == "poisson":
        alpha = rv.param("alpha")
        s2 = stirling2_oracle(n)
        return sum((s2[n][i] * alpha**i for i in range(1, n + 1)), _ZERO)
    if kind == "exponential":
        return factorial(n) / rv.param("alpha") ** n
    if kind == "gamma":
        return rising_factorial(rv.param("alpha"), n, 1) / rv.param("beta") ** n
    if kind == "geometric":
        p = rv.param("p")
        q = 1 - p
        s2 = stirling2_oracle(n)
        return sum(
            (s2[n][i] * factorial(i) * q ** (i - 1) / p**i for i in range(1, n + 1)),
            _ZERO,
        )
    if kind == "normal":
        mu, sigma2 = rv.param("mu"), rv.param("sigma2")
        prev2, prev1 = _ONE, mu
        for m in range(2, n + 1):
            prev2, prev1 = prev1, mu * prev1 + (m - 1) * sigma2 * prev2
        return prev1 if n >= 1 else prev2
    if kind == "negbinomial":
        r, p = rv.param("r"), rv.param("p")
        ratio = (1 - p) / p
        s2 = stirling2_oracle(n)
        return sum(
            (
                s2[n][i] * rising_factorial(r, i, 1) * ratio**i
                for i in range(1, n + 1)
            ),
            _ZERO,
        )
    if kind == "uniform01":
        return Fraction(1, n + 1)
    if kind == "pointmass":
        return rv.param("c") ** n
    if kind == "custom":
        if n >= len(rv.moments):
            raise ValueError(f"custom spec has no moment of order {n}")
        return rv.moments[n]
    raise ValueError(f"unknown random variable kind {kind!r}")


@memo
def sum_power_moment(rv: RandomVar, j: int, n: int) -> Fraction:
    """E[(Y1 + ... + Yj)^n] by multinomial expansion over single-copy oracle moments."""
    if j == 0:
        return _ONE if n == 0 else _ZERO
    total = _ZERO
    for i in range(n + 1):
        total += binom(n, i) * moment_oracle(rv, i) * sum_power_moment(rv, j - 1, n - i)
    return total


# ---------------------------------------------------------------------------
# Record construction helpers
# ---------------------------------------------------------------------------

def _record(identity: str, rv_desc: str, lam: Fraction, nmax: int,
            pairs: Iterable[tuple]) -> IdentityRecord:
    """Compare each (index, lhs, rhs): exactly, or within NUMERIC_TOLERANCE
    when rhs is a NumericResult, whose unstabilized values are inconclusive."""
    first_inconclusive = None
    for index, lhs, rhs in pairs:
        if isinstance(rhs, NumericResult):
            e = float(lhs)
            if not rhs.stabilized:
                if first_inconclusive is None:
                    first_inconclusive = tuple(index), e, rhs.value
                continue
            if abs(rhs.value - e) <= NUMERIC_TOLERANCE * max(1.0, abs(e)):
                continue
            lhs_text, rhs_text = format(e, ".12g"), format(rhs.value, ".12g")
        elif lhs == rhs:
            continue
        else:
            lhs_text, rhs_text = str(lhs), str(rhs)
        return IdentityRecord(
            identity, rv_desc, str(lam), nmax, "fail",
            first_failure=tuple(index), lhs=lhs_text, rhs=rhs_text,
        )
    if first_inconclusive is not None:
        index, e, value = first_inconclusive
        return IdentityRecord(
            identity, rv_desc, str(lam), nmax, "inconclusive",
            first_failure=index, lhs=format(e, ".12g"), rhs=format(value, ".12g"),
        )
    return IdentityRecord(identity, rv_desc, str(lam), nmax, "pass")


def _rational_sequence(seed: int, length: int) -> list:
    rng = random.Random(seed)
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(length)]


# ---------------------------------------------------------------------------
# Orthogonality suite
# ---------------------------------------------------------------------------

_INVERSE_FAMILY = {"s2": "s1", "prob-s2": "prob-s1", "h": "g", "prob-h": "prob-g"}


def check_orthogonality(t2: Triangle, t1: Triangle, seed: int = 20250801) -> VerificationReport:
    """Orthogonality and both inverse relations for a second/first-kind pair.

    The inverse relations are exercised on a seeded pseudo-random rational
    sequence, transformed one way and recovered through the other triangle.
    """
    if t2.nmax != t1.nmax:
        raise ValueError("triangles must share nmax")
    expected = _INVERSE_FAMILY.get(t2.family)
    if expected is None or t1.family != expected:
        raise ValueError(
            f"family {t1.family!r} is not the first-kind partner of {t2.family!r}"
        )
    nmax = t2.nmax
    rv_desc = dict(t2.params).get("rv", "-")
    lam = t2.lam
    report = VerificationReport("orthogonality")

    def orthogonality(outer: Triangle, inner: Triangle):
        for n in range(nmax + 1):
            for l in range(n + 1):
                total = sum(
                    (outer.value(n, k) * inner.value(k, l) for k in range(l, n + 1)), _ZERO
                )
                yield (n, l), total, (_ONE if n == l else _ZERO)

    b = _rational_sequence(seed, nmax + 1)

    def inversion(transposed: bool):
        # columns: a_n = sum_k T2(n,k) b_k; rows: a_n = sum_k T2(k,n) b_k
        def apply(t: Triangle, seq: list, n: int) -> Fraction:
            if transposed:
                return sum((t.value(k, n) * seq[k] for k in range(n, nmax + 1)), _ZERO)
            return sum((t.value(n, k) * seq[k] for k in range(n + 1)), _ZERO)

        a = [apply(t2, b, n) for n in range(nmax + 1)]
        for n in range(nmax + 1):
            yield (n,), apply(t1, a, n), b[n]

    for identity, pairs in (
        ("orthogonality-left", orthogonality(t2, t1)),
        ("orthogonality-right", orthogonality(t1, t2)),
        ("inversion-columns", inversion(False)),
        ("inversion-rows", inversion(True)),
    ):
        report.records.append(_record(identity, rv_desc, lam, nmax, pairs))
    return report


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

def eq_identities_pass(nmax: int) -> Iterable[tuple]:
    """The two pure binomial-sum identities used by the Schlomilch derivation.

    Yields (index, lhs, rhs) for 1 <= n <= nmax (n = 0 makes the shared
    factor n/(n+j) an indeterminate 0/0 and is excluded).
    """
    for n in range(1, nmax + 1):
        for k in range(n + 1):
            for j in range(n - k + 1):
                lhs1 = sum(
                    (binom(n + i - 1, i) * binom(i, j) for i in range(j, n - k + 1)),
                    _ZERO,
                )
                rhs1 = Fraction(n, n + j) * binom(2 * n - k, n) * binom(n - k, j)
                yield (n, k, j, 1), lhs1, rhs1
                lhs2 = (
                    binom(n - 1, k - 1)
                    * binom(2 * n - k, n)
                    * Fraction(n, n + j)
                    * binom(n - k, j)
                    / binom(n - k + j, j)
                )
                rhs2 = binom(n + j - 1, n + j - k) * binom(2 * n - k, n - k - j)
                yield (n, k, j, 2), lhs2, rhs2


def _uniform_divided_power_pairs(lam: Fraction, nmax: int, t1: Triangle):
    """Divided powers of the uniform-distribution log via an extraction identity
    that only uses series in the classical exponential (no reversion)."""
    order = nmax + 2
    e = deg_exp(0, 1, order)
    v = (e - Series.one(order)).shift_down(1) - Series.one(order - 1)
    a_series = Series.one(order - 2) / v.shift_down(1)
    log_e = (deg_exp(0, 1, order - 1) - Series.one(order - 1)).log1p(lam)
    w = log_e.shift_down(1) / v.shift_down(1)
    for k in range(nmax):
        dwk = w.pow(k).diff()
        for n in range(k + 1, nmax + 1):
            rhs_series = a_series.pow(n - k).truncate(order - 3) * dwk
            rhs = rhs_series.coeff(n - k - 1) / ((n - k) * factorial(k))
            lhs = t1.value(n, k) / factorial(n)
            yield (n, k), lhs, rhs


@memo
def _lam_only_records(lam: Fraction, nmax: int) -> tuple:
    """The identity_suite records that involve no random variable, rv "-".

    The deterministic first-kind/Bernoulli and second-kind/Cauchy bridges,
    the triangle connections and the binomial-sum identities depend on
    (lam, nmax) only, so every distribution shares one evaluation.
    """
    det_t1 = triangle("s1", lam, nmax)
    det_t2 = triangle("s2", lam, nmax)
    det_h = triangle("h", lam, nmax)
    det_lah = triangle("lah", _ZERO, nmax)
    e_delta = deg_exp(lam, 1, nmax + 1) - Series.one(nmax + 1)

    # row n reads the order-n numbers at t^0..t^(n-1) only: at k = 0 the
    # factor C(n-1, -1) is 0, so each series is built to order n - 1
    def bridge(numbers: Series, n: int, k: int) -> Fraction:
        return binom(n - 1, k - 1) * numbers.egf(n - k) if k else _ZERO

    def first_kind_order_bridge():
        for n in range(1, nmax + 1):
            bern_n = order_numbers(lam, n, 0, "bernoulli", n - 1)
            for k in range(n + 1):
                lhs = det_t1.value(n, k)
                yield (n, k, 1), lhs, bridge(bern_n, n, k)
                if k >= 1:
                    extracted = lagrange_extract(None, e_delta, n, k, "B")
                    yield (n, k, 2), lhs, extracted * Fraction(
                        factorial(n), factorial(k)
                    )

    def second_kind_cauchy_bridge():
        for n in range(1, nmax + 1):
            cau_pos = order_numbers(lam, n, 0, "cauchy", n - 1)
            cau_neg = order_numbers(-lam, n, 0, "cauchy", n - 1)
            for k in range(n + 1):
                yield (n, k, 1), det_h.value(n, k), bridge(cau_neg, n, k)
                yield (n, k, 2), det_t2.value(n, k), bridge(cau_pos, n, k)

    det_s1c = stirling1_oracle(nmax)
    det_s2c = stirling2_oracle(nmax)

    def triangle_connections():
        for n in range(nmax + 1):
            for k in range(n + 1):
                rhs = _ZERO
                for l in range(k, n + 1):
                    term = det_s2c[l][k] * det_s1c[n][l] * lam ** (n - l)
                    rhs += -term if (n - l) % 2 else term
                yield (n, k, 1), det_h.value(n, k), rhs
                rhs2 = _ZERO
                for l in range(k, n + 1):
                    term = det_t1.value(n, l) * det_h.value(l, k)
                    rhs2 += -term if (n - l) % 2 else term
                yield (n, k, 2), det_lah.value(n, k), rhs2

    return tuple(
        _record(identity, "-", lam, nmax, pairs)
        for identity, pairs in (
            ("first-kind-order-bridge", first_kind_order_bridge()),
            ("second-kind-cauchy-bridge", second_kind_cauchy_bridge()),
            ("triangle-connections", triangle_connections()),
            ("binomial-sum-identities", eq_identities_pass(min(nmax, 14))),
        )
    )


@memo
def _double_sum_weights(gamma: int, n: int) -> tuple:
    """The distribution-free part of bernoulli-double-sum: the nonzero
    (j, (-1)^j sum_{k=j..n} C(gamma+k-1, k) C(k, j) / C(n+j, j))."""
    weights = []
    for j in range(n + 1):
        w = sum(
            (binom(gamma + k - 1, k) * binom(k, j) for k in range(j, n + 1)), _ZERO
        ) / binom(n + j, j)
        if w:
            weights.append((j, -w if j % 2 else w))
    return tuple(weights)


def identity_suite(rv: RandomVar, lam, nmax: int,
                   gammas: Sequence[int] = DEFAULT_GAMMAS,
                   depth: int = 60) -> VerificationReport:
    """Run every supported identity for one (rv, lam) configuration.

    `nmax` must be >= 1.  `gammas` must be integers (poles are skipped where
    an identity excludes them): a non-integer rational raises ValueError, a
    float TypeError.  `depth` (>= 10) truncates the negative-binomial closed
    forms.

    The records that involve no random variable (the deterministic bridges,
    the triangle connections and the binomial-sum identities) are evaluated
    once per (lam, nmax) and shared across distributions: each suite gets a
    copy carrying its own rv, so a failure among them shows in every suite.
    """
    lam = _rat(lam)
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    if depth < 10:
        raise ValueError("truncation depth must be >= 10")
    mean = rv.mean()
    if mean == 0:
        raise ValueError(f"identity suite requires E[Y] != 0, got {rv.describe()}")
    gammas = tuple(_rat(g) for g in gammas)
    if any(g.denominator != 1 for g in gammas):
        raise ValueError(f"gammas must be integers, got {', '.join(map(str, gammas))}")
    gammas = tuple(int(g) for g in gammas)
    desc = rv.describe()
    nbig = 2 * nmax
    report = VerificationReport("identity")
    rec = report.records.append

    t2big = prob_triangle(rv, lam, "s2", nbig)
    t1 = prob_triangle(rv, lam, "s1", nmax)
    thbig = prob_triangle(rv, lam, "h", nbig)
    tg = prob_triangle(rv, lam, "g", nmax)
    log_series = prob_log(rv, lam, nmax)

    @cache
    def beta(gamma: int) -> Series:
        return prob_order_numbers(rv, lam, gamma, 0, "bernoulli", nmax)

    @cache
    def neg_beta(gamma: int) -> Series:
        return bernoulli_from_mgf(mgf_deg_neg(rv, lam, nmax + 1), gamma)

    @cache
    def mean_power(exponent: int) -> Fraction:
        return mean**exponent

    falling_moments = [sj_moment(rv, lam, 1, i) for i in range(nmax + 2)]
    rising_moments = [sj_moment(rv, -lam, 1, i) for i in range(nmax + 1)]

    # partial Bell polynomials B_{n,k}(x_1, ..., x_nmax), one table per
    # argument sequence; entries with n <= nmax read no x_m past m = nmax
    bell_args = range(1, nmax + 1)
    first_kind_bell = bell_triangle([beta(m).egf(m - 1) for m in bell_args], nmax)
    falling_bell = bell_triangle(falling_moments[1:], nmax)
    rising_bell = bell_triangle(rising_moments[1:], nmax)
    neg_beta_bell = bell_triangle([-neg_beta(m).egf(m - 1) for m in bell_args], nmax)
    minus_lam_mgf = mgf_deg(rv, -lam, nmax + 1)
    minus_lam_beta_bell = bell_triangle(
        [bernoulli_from_mgf(minus_lam_mgf, m).egf(m - 1) for m in bell_args], nmax
    )
    # shifted falling moments: the m-th argument is E[(Y)_{m+1,lam}] / (m+1)
    shifted_args_bell = bell_triangle(
        [falling_moments[m + 1] / (m + 1) for m in bell_args], nmax
    )

    # orthogonality and inverse relations
    ortho = check_orthogonality(
        prob_triangle(rv, lam, "s2", nmax), t1
    )
    report.extend(ortho)

    # first-kind entries: reversion vs binomial-bernoulli bridge vs partial Bell
    def first_kind_three_way():
        for n in range(nmax + 1):
            for k in range(n + 1):
                engine = t1.value(n, k)
                bridge = binom(n - 1, k - 1) * beta(n).egf(n - k) if n else _ONE
                yield (n, k, 1), engine, bridge
                yield (n, k, 2), engine, first_kind_bell.value(n, k)

    rec(_record("first-kind-three-way", desc, lam, nmax, first_kind_three_way()))

    # second-kind entries: powers vs inclusion-exclusion vs partial Bell
    def second_kind_three_way():
        for n in range(nmax + 1):
            incl = _incl_excl_row([sj_moment(rv, lam, j, n) for j in range(n + 1)])
            for k in range(n + 1):
                engine = t2big.value(n, k)
                yield (n, k, 1), engine, incl[k]
                yield (n, k, 2), engine, falling_bell.value(n, k)

    rec(_record("second-kind-three-way", desc, lam, nmax, second_kind_three_way()))

    # moment series vs textbook moments (the one check a perturbed moment breaks)
    def mgf_vs_moments():
        s1c = stirling1_oracle(nmax)
        for n in range(nmax + 1):
            engine = falling_moments[n]
            total = _ZERO
            for k in range(n + 1):
                if s1c[n][k]:
                    total += s1c[n][k] * lam ** (n - k) * moment_oracle(rv, k)
            yield (n,), engine, total

    rec(_record("mgf-vs-moments", desc, lam, nmax, mgf_vs_moments()))

    # rising-factorial second kind: four independent expressions
    neg_mgf = mgf_deg_neg(rv, lam, nmax)
    neg_t2 = triangle_from_base(
        (neg_mgf - Series.one(neg_mgf.order)).truncate(nmax), "neg-s2", lam, nmax
    )

    def rising_second_kind():
        for n in range(nmax + 1):
            sign = -1 if n % 2 else 1
            incl = _incl_excl_row([sj_moment(rv, -lam, j, n) for j in range(n + 1)])
            for k in range(n + 1):
                h = thbig.value(n, k)
                yield (n, k, 1), h, sign * neg_t2.value(n, k)
                yield (n, k, 2), h, incl[k]
                yield (n, k, 3), h, rising_bell.value(n, k)

    rec(_record("rising-second-kind-four-way", desc, lam, nmax, rising_second_kind()))

    # rising-factorial first kind: sign-flipped reversion of -Y, plus Bell forms
    neg_delta = neg_mgf - Series.one(neg_mgf.order)
    neg_t1 = triangle_from_base(neg_delta.revert().truncate(nmax), "neg-s1", lam, nmax)

    def rising_first_kind():
        for n in range(nmax + 1):
            for k in range(n + 1):
                g = tg.value(n, k)
                sign = -1 if k % 2 else 1
                yield (n, k, 1), g, sign * neg_t1.value(n, k)
                yield (n, k, 2), g, neg_beta_bell.value(n, k)
                yield (n, k, 3), g, minus_lam_beta_bell.value(n, k)
                bridge = (
                    sign * binom(n - 1, k - 1) * neg_beta(n).egf(n - k)
                    if n
                    else _ONE
                )
                yield (n, k, 4), g, bridge

    rec(_record("rising-first-kind-multi-way", desc, lam, nmax, rising_first_kind()))

    # partial Bell of shifted falling moments vs second-kind sums
    def shifted_bell():
        for n in range(nmax + 1):
            for k in range(n + 1):
                lhs = shifted_args_bell.value(n, k)
                rhs = sum(
                    (
                        binom(n + k, k - j)
                        * Fraction(factorial(n), factorial(n + k))
                        * (-mean) ** (k - j)
                        * t2big.value(n + j, j)
                        for j in range(k + 1)
                    ),
                    _ZERO,
                )
                yield (n, k), lhs, rhs

    rec(_record("shifted-bell-vs-second-kind", desc, lam, nmax, shifted_bell()))

    # higher-order Bernoulli numbers from the shifted Bell polynomials
    def bernoulli_from_bell():
        for gamma in gammas:
            weights = [
                falling_factorial(-gamma, k, 1) * mean_power(-gamma - k)
                for k in range(nmax + 1)
            ]
            for n in range(nmax + 1):
                lhs = beta(gamma).egf(n)
                rhs = sum(
                    (weights[k] * shifted_args_bell.value(n, k) for k in range(n + 1)),
                    _ZERO,
                )
                yield (gamma, n), lhs, rhs

    rec(_record("bernoulli-from-shifted-bell", desc, lam, nmax, bernoulli_from_bell()))

    # higher-order Bernoulli numbers as a double sum over second-kind entries
    def bernoulli_double_sum():
        for gamma in gammas:
            for n in range(nmax + 1):
                lhs = beta(gamma).egf(n)
                rhs = sum(
                    (
                        w * mean_power(-gamma - j) * t2big.value(n + j, j)
                        for j, w in _double_sum_weights(gamma, n)
                    ),
                    _ZERO,
                )
                yield (gamma, n), lhs, rhs

    rec(_record("bernoulli-double-sum", desc, lam, nmax, bernoulli_double_sum()))

    # Schlomilch sums against the reversion-based triangles
    def schlomilch_pairs(second_kind: Triangle, first_kind: Triangle):
        for n in range(nmax + 1):
            for k in range(n + 1):
                lhs = schlomilch_sum(mean, second_kind.value, n, k)
                yield (n, k), lhs, first_kind.value(n, k)

    rec(_record("schlomilch", desc, lam, nmax, schlomilch_pairs(t2big, t1)))
    rec(_record("schlomilch-rising", desc, lam, nmax, schlomilch_pairs(thbig, tg)))

    # log coefficients from second-kind data only
    def log_from_second_kind():
        # the Schlomilch sum at k = 1, where C(n+j-1, n+j-1) = 1
        for n in range(1, nmax + 1):
            yield (n,), log_series.egf(n), schlomilch_sum(mean, t2big.value, n, 1)

    rec(_record("log-from-second-kind", desc, lam, nmax, log_from_second_kind()))

    # Daehee / Cauchy orders against first-kind sums and Bernoulli ratios:
    # sign +1 pairs the Daehee numbers of order gamma with Bernoulli order
    # gamma, sign -1 pairs the Cauchy numbers with Bernoulli order -gamma
    order_families = (("daehee", 1), ("cauchy", -1))

    @cache
    def order_series(family: str, gamma: int) -> Series:
        return prob_order_numbers(rv, lam, gamma, 0, family, nmax)

    def order_sum(family: str, sign: int):
        for gamma in gammas:
            d = order_series(family, gamma)
            weights = [beta(sign * gamma).egf(k) for k in range(nmax + 1)]
            for n in range(nmax + 1):
                rhs = sum((weights[k] * t1.value(n, k) for k in range(n + 1)), _ZERO)
                yield (gamma, n), d.egf(n), rhs

    def order_ratio(family: str, sign: int):
        for gamma in gammas:
            d = order_series(family, gamma)
            for n in range(nmax + 1):
                shifted = gamma + sign * n
                if shifted == 0:
                    continue
                rhs = Fraction(gamma, shifted) * beta(sign * shifted).egf(n)
                yield (gamma, n), d.egf(n), rhs

    for family, sign in order_families:
        rec(_record(f"{family}-from-first-kind", desc, lam, nmax,
                    order_sum(family, sign)))
    for family, sign in order_families:
        rec(_record(f"{family}-bernoulli-ratio", desc, lam, nmax,
                    order_ratio(family, sign)))

    # records shared by every distribution at this (lam, nmax), see above
    report.records.extend(
        replace(record, rv=desc) for record in _lam_only_records(lam, nmax)
    )

    # distribution-specific closed forms: exact for every named distribution
    # but the negative binomial, whose depth-truncated triangles compare
    # numerically (its log closed form is exact too)
    if rv.kind in CLOSED_FORM_KINDS:
        ncap = min(nmax, 10)

        def s2_closed():
            for n in range(ncap + 1):
                for k in range(n + 1):
                    yield (n, k), t2big.value(n, k), closed_form(rv, lam, "s2", n, k, depth)

        rec(_record("closed-form-s2", desc, lam, nmax, s2_closed()))

        normal_at_zero = rv.kind == "normal" and lam == 0  # printed forms need lam != 0
        if not normal_at_zero:
            def s1_closed():
                for n in range(ncap + 1):
                    for k in range(n + 1):
                        yield (n, k), t1.value(n, k), closed_form(rv, lam, "s1", n, k, depth)

            rec(_record("closed-form-s1", desc, lam, nmax, s1_closed()))

            def log_closed():
                for n in range(1, ncap + 1):
                    yield (n,), log_series.egf(n), closed_form(rv, lam, "log", n, 0, depth)

            rec(_record("closed-form-log", desc, lam, nmax, log_closed()))

    if rv.kind == "uniform01":
        rec(_record("uniform-divided-power-lemma", desc, lam, nmax,
                    _uniform_divided_power_pairs(lam, nmax, t1)))

    # point mass at 1 must reduce every family to its deterministic counterpart
    if rv.kind == "pointmass" and rv.param("c") == 1:
        def reduction():
            det_t1, det_t2, det_h, det_g = (
                triangle(family, lam, nmax) for family in ("s1", "s2", "h", "g")
            )
            for n in range(nmax + 1):
                for k in range(n + 1):
                    yield (n, k, 1), t1.value(n, k), det_t1.value(n, k)
                    yield (n, k, 2), t2big.value(n, k), det_t2.value(n, k)
                    yield (n, k, 3), thbig.value(n, k), det_h.value(n, k)
                    yield (n, k, 4), tg.value(n, k), det_g.value(n, k)
            det_log = deg_log(lam, nmax)
            for n in range(nmax + 1):
                yield (n, 0, 5), log_series.egf(n), det_log.egf(n)

        rec(_record("pointmass-reduction", desc, lam, nmax, reduction()))

    return report


# ---------------------------------------------------------------------------
# Limit suite
# ---------------------------------------------------------------------------

def limit_suite(nmax: int) -> VerificationReport:
    """Classical-limit checks: lam = 0 tables, the Lah specialization at
    lam = 1, step-one factorials, and the point-mass reductions."""
    report = VerificationReport("limits")
    rec = report.records.append

    s1c, s2c = stirling1_oracle(nmax), stirling2_oracle(nmax)
    pairs_all = [(n, k) for n in range(nmax + 1) for k in range(n + 1)]

    def triangle_records(rows):
        for identity, lam, family, oracle in rows:
            t = triangle(family, lam, nmax)
            rec(_record(
                identity, "-", lam, nmax,
                (((n, k), t.value(n, k), oracle(n, k)) for n, k in pairs_all),
            ))

    triangle_records((
        ("classical-s2-table", _ZERO, "s2", lambda n, k: s2c[n][k]),
        ("classical-s1-table", _ZERO, "s1", lambda n, k: s1c[n][k]),
        ("rising-limit-zero", _ZERO, "h", lambda n, k: s2c[n][k]),
        ("rising-inverse-limit-zero", _ZERO, "g", lambda n, k: s1c[n][k]),
        ("rising-limit-one-lah", _ONE, "h", lah_closed),
        ("lah-closed-form", _ZERO, "lah", lah_closed),
    ))

    x, small = Fraction(7, 2), min(nmax, 8)
    for identity, engine, classical in (
        ("falling-step-one", falling_factorial, _classical_falling),
        ("rising-step-one", rising_factorial, _classical_rising),
    ):
        rec(_record(
            identity, "-", _ONE, small,
            (((n,), engine(x, n, 1), classical(x, n)) for n in range(small + 1)),
        ))

    def incl_excl_table(factorial_fn, lam: Fraction):
        # one inclusion-exclusion row per n, over f(j) = factorial_fn(j, n, lam)
        rows = [
            _incl_excl_row([factorial_fn(j, n, lam) for j in range(n + 1)])
            for n in range(nmax + 1)
        ]
        return lambda n, k: rows[n][k]

    triangle_records(
        row
        for lam in (Fraction(1, 2), Fraction(-1, 3))
        for row in (
            ("deg-s2-incl-excl", lam, "s2", incl_excl_table(falling_factorial, lam)),
            ("rising-incl-excl", lam, "h", incl_excl_table(rising_factorial, lam)),
            ("deg-s1-recurrence", lam, "s1",
             lambda n, k, deg1=stirling1_deg_oracle(nmax, lam): deg1[n][k]),
        )
    )

    # lam = 0 probabilistic second kind vs inclusion-exclusion on plain moments
    for rv in builtin_random_vars():
        t2 = prob_triangle(rv, _ZERO, "s2", small)

        def classical_prob(rv=rv, t2=t2):
            for n in range(small + 1):
                incl = _incl_excl_row([sum_power_moment(rv, j, n) for j in range(n + 1)])
                for k in range(n + 1):
                    yield (n, k), t2.value(n, k), incl[k]

        rec(_record(
            "prob-classical-limit", rv.describe(), _ZERO, small, classical_prob()
        ))

    # point mass at 1: every probabilistic family collapses to the deterministic one
    pm = RandomVar.pointmass(1)
    for lam in (Fraction(0), Fraction(1, 2), Fraction(-1, 3)):
        cap = min(nmax, 10)

        def pm_pairs(lam=lam, cap=cap):
            for family in ("s2", "s1", "h", "g"):
                tp = prob_triangle(pm, lam, family, cap)
                td = triangle(family, lam, cap)
                for n in range(cap + 1):
                    for k in range(n + 1):
                        yield (n, k, family), tp.value(n, k), td.value(n, k)
            pl = prob_log(pm, lam, cap)
            dl = deg_log(lam, cap)
            for n in range(cap + 1):
                yield (n, 0, "log"), pl.coeff(n), dl.coeff(n)
            for gamma in (1, 2, -2):
                for family in ("bernoulli", "daehee", "cauchy"):
                    ps = prob_order_numbers(pm, lam, gamma, 0, family, cap)
                    ds = order_numbers(lam, gamma, 0, family, cap)
                    for n in range(cap + 1):
                        yield (n, gamma, family), ps.egf(n), ds.egf(n)

        rec(_record("pointmass-reduction", pm.describe(), lam, cap, pm_pairs()))

    return report


def _classical_falling(x: Fraction, n: int) -> Fraction:
    out = _ONE
    for i in range(n):
        out *= x - i
    return out


def _classical_rising(x: Fraction, n: int) -> Fraction:
    out = _ONE
    for i in range(n):
        out *= x + i
    return out


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def sample_rv(rv: RandomVar, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized sampler built exclusively from PCG64 uniform draws.

    Every rejection loop draws full-width uniform arrays, so for a fixed seed
    the consumed stream (and hence the output) is identical across runs.
    """
    kind = rv.kind
    if kind == "pointmass":
        return np.full(size, float(rv.param("c")))
    if kind == "uniform01":
        return rng.random(size)
    if kind == "bernoulli":
        return (rng.random(size) < float(rv.param("p"))).astype(np.float64)
    if kind == "binomial":
        m, p = int(rv.param("m")), float(rv.param("p"))
        out = np.zeros(size)
        for _ in range(m):
            out += rng.random(size) < p
        return out
    if kind == "poisson":
        return _poisson_knuth(rng, float(rv.param("alpha")), size)
    if kind == "exponential":
        return -np.log1p(-rng.random(size)) / float(rv.param("alpha"))
    if kind == "gamma":
        shape, rate = float(rv.param("alpha")), float(rv.param("beta"))
        return _gamma_marsaglia_tsang(rng, shape, size) / rate
    if kind == "geometric":
        p = float(rv.param("p"))
        return np.floor(np.log1p(-rng.random(size)) / np.log1p(-p)) + 1.0
    if kind == "normal":
        mu, sigma2 = float(rv.param("mu")), float(rv.param("sigma2"))
        return mu + np.sqrt(sigma2) * _standard_normal(rng, size)
    if kind == "negbinomial":
        r, p = int(rv.param("r")), float(rv.param("p"))
        out = np.zeros(size)
        for _ in range(r):
            out += np.floor(np.log1p(-rng.random(size)) / np.log1p(-p))
        return out
    raise ValueError(f"{rv.describe()} is not samplable")


def _standard_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    u1 = rng.random(size)
    u2 = rng.random(size)
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


def _poisson_knuth(rng: np.random.Generator, alpha: float, size: int) -> np.ndarray:
    limit = np.exp(-alpha)
    prod = np.ones(size)
    count = np.zeros(size)
    active = np.ones(size, dtype=bool)
    while active.any():
        prod = np.where(active, prod * rng.random(size), prod)
        count = np.where(active, count + 1.0, count)
        active &= prod > limit
    return count - 1.0


def _gamma_marsaglia_tsang(rng: np.random.Generator, shape: float, size: int) -> np.ndarray:
    boosted = shape < 1.0
    a = shape + 1.0 if boosted else shape
    d = a - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(size)
    need = np.ones(size, dtype=bool)
    while need.any():
        x = _standard_normal(rng, size)
        u = rng.random(size)
        v = (1.0 + c * x) ** 3
        with np.errstate(divide="ignore", invalid="ignore"):
            log_v = np.where(v > 0, np.log(np.where(v > 0, v, 1.0)), 0.0)
            log_u = np.log(np.where(u > 0, u, 1e-300))
        accept = need & (v > 0) & (log_u < 0.5 * x * x + d - d * v + d * log_v)
        out[accept] = d * v[accept]
        need &= ~accept
    if boosted:
        u = rng.random(size)
        out *= np.power(np.where(u > 0, u, 1e-300), 1.0 / shape)
    return out


def mc_check(rv: RandomVar, lam, n: int, j: int, samples: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of the degenerate falling-factorial moment of the
    j-fold i.i.d. sum, compared with the exact engine value as a z-score.

    `samples` must lie in 1000..MAX_SAMPLES; outside that, ValueError is
    raised before anything is allocated."""
    lam = _rat(lam)
    if not rv.is_samplable:
        raise ValueError(f"{rv.describe()} is not samplable")
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    if samples > MAX_SAMPLES:
        raise ValueError(f"at most {MAX_SAMPLES} samples, got {samples}")
    rng = np.random.Generator(np.random.PCG64(seed))
    total = np.zeros(samples)
    for _ in range(j):
        total += sample_rv(rv, samples, rng)
    lam_f = float(lam)
    values = np.ones(samples)
    for i in range(n):
        values *= total - i * lam_f
    estimate = float(values.mean())
    std_error = float(values.std(ddof=1) / np.sqrt(samples))
    exact = sj_moment(rv, lam, j, n)
    if std_error == 0.0:
        z = 0.0 if estimate == float(exact) else float("inf")
    else:
        z = (estimate - float(exact)) / std_error
    target = f"E[(S_{j})_{{{n},{lam}}}] for {rv.describe()}"
    return MCEstimate(target, samples, seed, estimate, std_error, exact, z)
