"""Acceptance criteria for the whole package, one test per criterion.

Each criterion prints a single PASS/FAIL line (written straight to the
terminal so it survives pytest capture).  Exact identities, and every
closed form but the negative binomial's, are asserted with rational
equality; the truncated negative-binomial closed forms use 1e-9 relative
tolerance at depth >= 60, with "inconclusive" reserved for unstabilized
partial sums.
"""

import dataclasses
import time
from fractions import Fraction as F

import conftest
import pytest

from probstirling import verify
from probstirling.prob import (
    bundle,
    mgf_deg,
    prob_triangle,
    schlomilch_sum,
)
from probstirling.randomvars import RandomVar, builtin_random_vars
from probstirling.series import Series, lagrange_extract
from probstirling.special import binom, order_numbers, triangle
from probstirling.verify import (
    DEFAULT_GAMMAS,
    check_orthogonality,
    eq_identities_pass,
    identity_suite,
    limit_suite,
    mc_check,
)

GRID_LAMBDAS = (F(0), F(1, 2), F(-1, 3))
GRID_RVS = builtin_random_vars()
CONFIGS = [(rv, lam) for rv in GRID_RVS for lam in GRID_LAMBDAS]
CLOSED_FORM_DEPTH = 150


def announce(line: str) -> None:
    print(line)
    # also surface the line in the terminal summary, past pytest's capture
    conftest.CRITERION_LINES.append(line)


@pytest.fixture(scope="module")
def suite_reports():
    """Full identity suite for every (distribution, lambda) configuration."""
    reports = {}
    for rv, lam in CONFIGS:
        reports[(rv, lam)] = identity_suite(
            rv, lam, nmax=10, gammas=DEFAULT_GAMMAS, depth=CLOSED_FORM_DEPTH
        )
    return reports


def _assert_records(reports, identities, criterion):
    failures = []
    inconclusive = []
    for (rv, lam), report in reports.items():
        for record in report.records:
            if record.identity not in identities:
                continue
            if record.status == "fail":
                failures.append(
                    (rv.describe(), str(lam), record.identity,
                     record.first_failure, record.lhs, record.rhs)
                )
            elif record.status == "inconclusive":
                inconclusive.append((rv.describe(), str(lam), record.identity))
    status = "FAIL" if failures else "PASS"
    extra = f", inconclusive={len(inconclusive)}" if inconclusive else ""
    announce(f"{status}: {criterion}{extra}")
    assert not failures, failures
    return inconclusive


def test_orthogonality_grid():
    """Second/first-kind orthogonality for ten distributions, three lambdas, n <= 12."""
    started = time.monotonic()
    failures = []
    for rv, lam in CONFIGS:
        report = check_orthogonality(
            prob_triangle(rv, lam, "s2", 12), prob_triangle(rv, lam, "s1", 12)
        )
        if not report.passed:
            failures.append((rv.describe(), str(lam), report.failures()[0].identity))
    elapsed = time.monotonic() - started
    status = "FAIL" if failures or elapsed >= 60 else "PASS"
    announce(f"{status}: orthogonality grid (10 rv x 3 lambda, n<=12) in {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 60


def test_schlomilch_formulas():
    """Second-kind-only sums reproduce both first-kind families, n <= 12."""
    failures = []
    for rv, lam in CONFIGS:
        mean = rv.mean()
        t2 = prob_triangle(rv, lam, "s2", 24)
        t1 = prob_triangle(rv, lam, "s1", 12)
        th = prob_triangle(rv, lam, "h", 24)
        tg = prob_triangle(rv, lam, "g", 12)
        for n in range(13):
            for k in range(n + 1):
                if schlomilch_sum(mean, t2.value, n, k) != t1.value(n, k):
                    failures.append((rv.describe(), str(lam), "falling", n, k))
                if schlomilch_sum(mean, th.value, n, k) != tg.value(n, k):
                    failures.append((rv.describe(), str(lam), "rising", n, k))
    status = "FAIL" if failures else "PASS"
    announce(f"{status}: Schlomilch sums vs reversion engine (n<=12)")
    assert not failures, failures[:5]


def test_three_way_equalities(suite_reports):
    """First- and second-kind entries through three independent routes, n <= 10."""
    _assert_records(
        suite_reports,
        {"first-kind-three-way", "second-kind-three-way"},
        "three-way equalities (generating function / inclusion-exclusion "
        "/ partial Bell, binomial bridge)",
    )


def test_rising_family_equalities(suite_reports):
    """Rising-factorial (heterogeneous) families through all printed routes, n <= 10."""
    _assert_records(
        suite_reports,
        {"rising-second-kind-four-way", "rising-first-kind-multi-way"},
        "rising-family four-way / multi-way equalities (including -Y paths)",
    )


def test_gamma_family_identities(suite_reports):
    """Bell-sum lemmas, double-sum expansion, log expansion, Daehee/Cauchy laws."""
    _assert_records(
        suite_reports,
        {
            "shifted-bell-vs-second-kind",
            "bernoulli-from-shifted-bell",
            "bernoulli-double-sum",
            "log-from-second-kind",
            "daehee-from-first-kind",
            "cauchy-from-first-kind",
            "daehee-bernoulli-ratio",
            "cauchy-bernoulli-ratio",
        },
        "order-gamma identities over gamma in -3..4 minus poles (n <= 10)",
    )


def test_distribution_closed_forms(suite_reports):
    """Printed per-distribution formulas: exactly, except the truncated
    negative-binomial triangles, within 1e-9 relative at depth >= 60 (or
    reported inconclusive)."""
    inconclusive = _assert_records(
        suite_reports,
        {
            "closed-form-s2",
            "closed-form-s1",
            "closed-form-log",
            "uniform-divided-power-lemma",
        },
        f"distribution closed forms (depth {CLOSED_FORM_DEPTH})",
    )
    # at this depth every supported sum stabilizes; surface any that did not
    assert inconclusive == [], inconclusive


def test_lagrange_oracle_and_order_bridges():
    """Extraction formulas vs reversion on every moment series (n <= 14), and
    the first/second-kind bridges through order-n Bernoulli/Cauchy numbers."""
    failures = []
    order = 14
    for rv, lam in CONFIGS:
        delta = mgf_deg(rv, lam, order) - Series.one(order)
        fbar = bundle(rv, lam, order).reverted
        power = Series.one(order)
        for k in range(1, order + 1):
            power = power * fbar
            for n in range(k, order + 1):
                if lagrange_extract(None, delta, n, k, "B") != power.coeff(n):
                    failures.append((rv.describe(), str(lam), "B", n, k))
        for n in range(1, order + 1):
            if lagrange_extract(None, delta, n, None, "C") != fbar.coeff(n):
                failures.append((rv.describe(), str(lam), "C", n))
    for lam in GRID_LAMBDAS:
        t1 = triangle("s1", lam, order)
        t2 = triangle("s2", lam, order)
        th = triangle("h", lam, order)
        for n in range(1, order + 1):
            bern = order_numbers(lam, n, 0, "bernoulli", order)
            cau_pos = order_numbers(lam, n, 0, "cauchy", order)
            cau_neg = order_numbers(-lam, n, 0, "cauchy", order)
            for k in range(n + 1):
                if t1.value(n, k) != binom(n - 1, k - 1) * bern.egf(n - k):
                    failures.append(("deterministic", str(lam), "first-kind-bridge", n, k))
                if t2.value(n, k) != binom(n - 1, k - 1) * cau_pos.egf(n - k):
                    failures.append(("deterministic", str(lam), "second-kind-bridge", n, k))
                if th.value(n, k) != binom(n - 1, k - 1) * cau_neg.egf(n - k):
                    failures.append(("deterministic", str(lam), "rising-bridge", n, k))
    status = "FAIL" if failures else "PASS"
    announce(f"{status}: Lagrange extraction oracle and order-number bridges (n<=14)")
    assert not failures, failures[:5]


def test_classical_limits():
    """lam = 0 tables, Lah at lam = 1, factorials at step one, point-mass
    reductions of every probabilistic family; exact, n <= 12."""
    report = limit_suite(12)
    status = "PASS" if report.passed else "FAIL"
    announce(f"{status}: classical limits and point-mass reductions (n<=12)")
    assert report.passed, [
        (r.identity, r.rv, r.first_failure, r.lhs, r.rhs) for r in report.failures()
    ]


def test_binomial_sum_identities():
    """The two pure binomial identities, exact for all 0 <= j <= n-k, n <= 14."""
    failures = [
        (index, str(lhs), str(rhs))
        for index, lhs, rhs in eq_identities_pass(14)
        if lhs != rhs
    ]
    status = "FAIL" if failures else "PASS"
    announce(f"{status}: binomial sum identities (n<=14)")
    assert not failures, failures[:5]


MC_CONFIGS = [
    (RandomVar.poisson(2), F(1, 2), 3, 2, 7),
    (RandomVar.bernoulli(F(1, 2)), F(0), 1, 1, 11),
    (RandomVar.exponential(3), F(1, 3), 2, 3, 13),
    (RandomVar.gamma(F(1, 2), 2), F(1, 2), 2, 2, 17),
    (RandomVar.normal(1, 1), F(-1, 3), 4, 1, 19),
    (RandomVar.geometric(F(1, 3)), F(1), 3, 3, 23),
]


def test_monte_carlo_bands():
    """Six sampled configurations at 1e6 draws stay within |z| <= 5."""
    started = time.monotonic()
    results = []
    for rv, lam, n, j, seed in MC_CONFIGS:
        estimate = mc_check(rv, lam, n, j, 1_000_000, seed)
        results.append(estimate)
    elapsed = time.monotonic() - started
    worst = max(abs(r.z) for r in results)
    ok = worst <= 5 and elapsed < 120
    announce(
        f"{'PASS' if ok else 'FAIL'}: Monte Carlo bands "
        f"(6 configs, 1e6 samples, worst |z| = {worst:.2f}) in {elapsed:.1f}s"
    )
    for r in results:
        assert abs(r.z) <= 5, (r.target, r.z)
    assert elapsed < 120


def test_negative_controls(monkeypatch):
    """A corrupted triangle entry and a perturbed moment must be caught."""
    rv = RandomVar.geometric(F(1, 3))
    t2 = prob_triangle(rv, F(1, 2), "s2", 8)
    rows = [list(r) for r in t2.rows]
    rows[5][2] += F(1, 9973)
    corrupted = dataclasses.replace(t2, rows=tuple(tuple(r) for r in rows))
    ortho = check_orthogonality(corrupted, prob_triangle(rv, F(1, 2), "s1", 8))
    original = verify.moment_oracle
    monkeypatch.setattr(
        verify, "moment_oracle",
        lambda rv, n: original(rv, n) + (F(1, 9973) if n == 3 else 0),
    )
    perturbed = identity_suite(rv, F(1, 2), 5)
    ok = ortho.failed and perturbed.failed
    announce(f"{'PASS' if ok else 'FAIL'}: negative controls trip the suites")
    assert ortho.failed
    assert perturbed.failed
