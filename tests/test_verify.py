"""Verification suites, oracles, reports and the Monte Carlo layer."""

import dataclasses
from math import factorial
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probstirling import verify
from probstirling.closedforms import NumericResult
from probstirling.prob import prob_triangle, sj_moment
from probstirling.randomvars import RandomVar
from probstirling.series import Series, clear_caches
from probstirling.special import binom, triangle
from probstirling.verify import (
    check_orthogonality,
    eq_identities_pass,
    identity_suite,
    lah_closed,
    limit_suite,
    mc_check,
    moment_oracle,
    sample_rv,
    stirling1_deg_oracle,
    stirling1_oracle,
    stirling2_deg_incl_excl,
    stirling2_oracle,
    sum_power_moment,
)

LAM = F(1, 3)


# -- oracles ---------------------------------------------------------------------

_big_coprime_denominators = st.sampled_from([1, 999_983, 1_000_003, 2**61 - 1, 10**12 + 39])
_dot_entry = st.one_of(
    st.just(F(0)),
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-9, max_value=9, max_denominator=50),
    st.builds(F, st.integers(-10**20, 10**20), _big_coprime_denominators),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12).flatmap(lambda m: st.tuples(
    st.lists(_dot_entry, min_size=m, max_size=m),
    st.lists(_dot_entry, min_size=m, max_size=m),
)))
def test_dot_matches_the_fraction_sum(xs_ys):
    # empty and all-zero inputs, mixed signs, ints, large coprime denominators
    xs, ys = xs_ys
    got = verify._dot(xs, ys)
    assert type(got) is F
    assert got == sum((F(x) * y for x, y in zip(xs, ys)), F(0))
    assert verify._dot([F(0)] * len(xs), ys) == 0


def test_stirling_oracle_known_rows():
    s1, s2 = stirling1_oracle(5), stirling2_oracle(5)
    assert list(s1[4]) == [0, -6, 11, -6, 1]
    assert list(s2[4]) == [0, 1, 7, 6, 1]
    assert list(s2[5]) == [0, 1, 15, 25, 10, 1]


def test_degenerate_oracles_match_engine_tables():
    lam = F(1, 2)
    t1, t2 = triangle("s1", lam, 7), triangle("s2", lam, 7)
    deg1 = stirling1_deg_oracle(7, lam)
    for n in range(8):
        for k in range(n + 1):
            assert deg1[n][k] == t1.value(n, k)
            assert stirling2_deg_incl_excl(n, k, lam) == t2.value(n, k)


def literal_incl_excl(k, values):
    """(1/k!) sum_j (-1)^(k-j) C(k, j) f(j), one entry at a time."""
    total = F(0)
    for j in range(k + 1):
        term = binom(k, j) * values[j]
        total += -term if (k - j) % 2 else term
    return total / factorial(k)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30),
                max_size=11))
def test_incl_excl_row_matches_the_entrywise_sum(values):
    row = verify._incl_excl_row(values)
    assert row == tuple(literal_incl_excl(k, values) for k in range(len(values)))
    assert all(type(entry) is F for entry in row)


@pytest.mark.parametrize(
    "oracle",
    [stirling1_oracle, stirling2_oracle, lambda nmax: stirling1_deg_oracle(nmax, F(1, 2))],
    ids=["stirling1", "stirling2", "stirling1_deg"],
)
def test_recurrence_oracles_reject_negative_nmax(oracle):
    with pytest.raises(ValueError, match="nmax must be >= 0"):
        oracle(-1)
    assert oracle(0) == ((1,),)


def test_lah_closed_oracle():
    assert lah_closed(4, 2) == 36
    assert lah_closed(0, 0) == 1
    assert lah_closed(3, 5) == 0


def test_moment_oracle_normal_recurrence():
    rv = RandomVar.normal(2, F(1, 4))
    # m_n = mu m_{n-1} + (n-1) sigma^2 m_{n-2}
    values = [moment_oracle(rv, n) for n in range(6)]
    for n in range(2, 6):
        assert values[n] == 2 * values[n - 1] + (n - 1) * F(1, 4) * values[n - 2]


def test_sum_power_moment_matches_engine():
    rv = RandomVar.geometric(F(1, 2))
    for j in range(4):
        for n in range(5):
            assert sum_power_moment(rv, j, n) == sj_moment(rv, 0, j, n)


# -- orthogonality ----------------------------------------------------------------

def test_orthogonality_deterministic_pair():
    report = check_orthogonality(triangle("s2", LAM, 10), triangle("s1", LAM, 10))
    assert report.passed


def test_orthogonality_probabilistic_pair():
    rv = RandomVar.poisson(2)
    report = check_orthogonality(
        prob_triangle(rv, LAM, "s2", 8), prob_triangle(rv, LAM, "s1", 8)
    )
    assert report.passed


def test_orthogonality_detects_corruption():
    t2 = prob_triangle(RandomVar.poisson(2), LAM, "s2", 6)
    rows = [list(r) for r in t2.rows]
    rows[4][2] += F(1, 7)
    corrupted = dataclasses.replace(
        t2, rows=tuple(tuple(r) for r in rows)
    )
    report = check_orthogonality(corrupted, prob_triangle(RandomVar.poisson(2), LAM, "s1", 6))
    assert report.failed
    first = report.failures()[0]
    assert first.first_failure is not None
    assert first.lhs is not None and first.rhs is not None


def test_orthogonality_rejects_mismatched_input():
    with pytest.raises(ValueError):
        check_orthogonality(triangle("s2", LAM, 6), triangle("s1", LAM, 5))
    with pytest.raises(ValueError):
        check_orthogonality(triangle("s2", LAM, 6), triangle("g", LAM, 6))


# -- identity suite ----------------------------------------------------------------

def test_record_outcomes():
    def record(pairs):
        d = verify._record("x", "rv", F(1, 2), 3, pairs).to_dict()
        return d["status"], d["first_failure"], d["lhs"], d["rhs"]

    third = float(F(1, 3))
    # exact pairs compare with ==, a failure shows both sides with str
    assert record([((0,), F(1), F(1)), ((1, 2), F(1, 3), F(2, 7))]) == (
        "fail", [1, 2], "1/3", "2/7"
    )
    # a stabilized NumericResult outside tolerance fails even after an
    # unstabilized one; numeric sides show with .12g
    assert record([
        ((0, 0), F(1, 3), NumericResult(0.5, 12, False)),
        ((1, 0), F(2, 3), NumericResult(0.7, 12, True)),
    ]) == ("fail", [1, 0], "0.666666666667", "0.7")
    # unstabilized values never fail: the first one is reported
    assert record([
        ((0, 0), F(1, 3), NumericResult(third, 12, True)),
        ((1, 0), F(-2, 3), NumericResult(0.5, 12, False)),
        ((2, 1), F(5), NumericResult(6.0, 12, False)),
    ]) == ("inconclusive", [1, 0], "-0.666666666667", "0.5")
    assert record([
        ((0,), F(1, 3), F(1, 3)),
        ((0, 0), F(1, 3), NumericResult(third * (1 + 1e-10), 12, True)),
    ]) == ("pass", None, None, None)


def test_identity_suite_passes_for_geometric():
    report = identity_suite(RandomVar.geometric(F(1, 3)), F(1, 2), 6)
    assert report.passed, [r.identity for r in report.failures()]


def test_identity_suite_rejects_zero_mean():
    with pytest.raises(ValueError):
        identity_suite(RandomVar.custom([F(1), F(0), F(1)]), 0, 2)


def test_perturbed_moment_fails_the_suite(monkeypatch):
    original = verify.moment_oracle
    monkeypatch.setattr(
        verify, "moment_oracle", lambda rv, n: original(rv, n) + (F(1, 7) if n == 3 else 0)
    )
    report = identity_suite(RandomVar.geometric(F(1, 3)), F(1, 2), 5)
    assert report.failed
    assert any(r.identity == "mgf-vs-moments" for r in report.failures())


def test_identity_suite_rejects_a_float_lambda():
    with pytest.raises(TypeError):
        identity_suite(RandomVar.poisson(2), 0.1, 3)


def test_identity_suite_rejects_non_integer_gammas():
    with pytest.raises(ValueError):
        identity_suite(RandomVar.poisson(2), F(1, 2), 3, gammas=(F(1, 2),))
    with pytest.raises(TypeError):
        identity_suite(RandomVar.poisson(2), F(1, 2), 3, gammas=(1.7,))


@pytest.mark.parametrize("nmax", [0, -1])
def test_identity_suite_rejects_nmax_below_one(nmax):
    with pytest.raises(ValueError, match="nmax must be >= 1"):
        identity_suite(RandomVar.poisson(2), F(1, 2), nmax)


def test_identity_suite_builds_each_daehee_cauchy_series_once(monkeypatch):
    calls = []
    original = verify.prob_order_numbers

    def counting(rv, lam, gamma, x, family, order):
        if family != "bernoulli":
            calls.append((family, gamma))
        return original(rv, lam, gamma, x, family, order)

    monkeypatch.setattr(verify, "prob_order_numbers", counting)
    report = identity_suite(RandomVar.poisson(2), F(1, 2), 4)
    assert not report.failed
    assert len(calls) == 16
    assert len(set(calls)) == 16


LAM_ONLY = (
    "first-kind-order-bridge", "second-kind-cauchy-bridge",
    "triangle-connections", "binomial-sum-identities",
)


def lam_only(report):
    return [r for r in report.records if r.identity in LAM_ONLY]


def test_lam_only_records_are_shared_across_distributions(monkeypatch):
    calls = []
    for name in ("order_numbers", "lagrange_extract"):
        def counting(*args, _name=name, _original=getattr(verify, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(verify, name, counting)
    clear_caches()
    first = identity_suite(RandomVar.poisson(2), F(1, 2), 4)
    assert set(calls) == {"order_numbers", "lagrange_extract"}
    calls.clear()
    rv = RandomVar.geometric(F(1, 3))
    shared = identity_suite(rv, F(1, 2), 4)
    assert calls == []
    monkeypatch.undo()
    clear_caches()
    cold = identity_suite(rv, F(1, 2), 4)
    assert [r.identity for r in lam_only(shared)] == list(LAM_ONLY)
    assert [dataclasses.asdict(r) for r in lam_only(shared)] == [
        dataclasses.asdict(r) for r in lam_only(cold)
    ]
    assert {r.rv for r in lam_only(shared)} == {rv.describe()}
    assert {r.rv for r in lam_only(first)} == {"poisson(alpha=2)"}


def test_fault_in_a_shared_record_fails_every_suite(monkeypatch):
    # bumps the top coefficient of each series, the highest one the bridges
    # read: row n builds its order-n numbers to t^(n-1) and reads them all
    real = verify.order_numbers

    def perturbed(*args):
        cs = list(real(*args).coeffs)
        cs[-1] += F(1, 7)
        return Series(cs)

    rvs = (RandomVar.poisson(2), RandomVar.geometric(F(1, 3)), RandomVar.uniform01())
    clear_caches()
    monkeypatch.setattr(verify, "order_numbers", perturbed)
    try:
        bridges = []
        for rv in rvs:
            report = identity_suite(rv, F(1, 2), 4)
            bridge = next(
                r for r in report.records if r.identity == "first-kind-order-bridge"
            )
            assert bridge.status == "fail", rv.describe()
            assert bridge.rv == rv.describe()
            bridges.append(dataclasses.replace(bridge, rv="-"))
        assert bridges == [bridges[0]] * len(rvs)
    finally:
        monkeypatch.undo()
        clear_caches()


def test_report_serialization():
    report = identity_suite(RandomVar.bernoulli(F(1, 2)), 0, 3)
    payload = report.to_dict()
    assert payload["suite"] == "identity"
    assert payload["passed"] is True and payload["failed"] is False
    record = payload["records"][0]
    assert set(record) == {
        "identity", "rv", "lambda", "nmax", "status", "first_failure", "lhs", "rhs",
    }


def test_binomial_sum_identities_small():
    for _, lhs, rhs in eq_identities_pass(8):
        assert lhs == rhs


# -- limit suite --------------------------------------------------------------------

def test_limit_suite_passes():
    report = limit_suite(6)
    assert report.passed, [
        (r.identity, r.rv, r.first_failure) for r in report.failures()
    ]


# -- Monte Carlo ----------------------------------------------------------------------

def test_mc_pointmass_is_exact():
    est = mc_check(RandomVar.pointmass(1), F(1, 2), 3, 2, 10_000, 3)
    assert est.std_error == 0.0
    assert est.z == 0.0
    assert est.estimate == float(est.exact)


def test_mc_is_deterministic_per_seed():
    a = mc_check(RandomVar.poisson(2), F(1, 2), 3, 2, 50_000, 42)
    b = mc_check(RandomVar.poisson(2), F(1, 2), 3, 2, 50_000, 42)
    assert (a.estimate, a.std_error, a.z) == (b.estimate, b.std_error, b.z)
    c = mc_check(RandomVar.poisson(2), F(1, 2), 3, 2, 50_000, 43)
    assert c.estimate != a.estimate


def test_mc_z_is_small_for_correct_values():
    est = mc_check(RandomVar.bernoulli(F(1, 2)), 0, 1, 1, 100_000, 11)
    assert abs(est.z) <= 5
    assert est.exact == F(1, 2)


def test_mc_rejects_bad_input():
    with pytest.raises(ValueError):
        mc_check(RandomVar.custom([1, 1]), 0, 1, 1, 10_000, 0)
    with pytest.raises(ValueError):
        mc_check(RandomVar.poisson(2), 0, 1, 1, 10, 0)


def test_mc_refuses_samples_past_the_cap_before_allocating(monkeypatch):
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"mc_check reached numpy.{name} past the cap")
    monkeypatch.setattr(verify, "np", NoNumpy())
    with pytest.raises(ValueError, match="at most 10000000 samples, got 10000001"):
        mc_check(RandomVar.gamma(F(3, 2), 2), 0, 1, 1, verify.MAX_SAMPLES + 1, 0)


def test_mc_rejects_a_float_lambda():
    with pytest.raises(TypeError):
        mc_check(RandomVar.poisson(2), 0.5, 1, 1, 10_000, 0)


def test_samplers_hit_their_means():
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(7))
    size = 200_000
    for rv in (
        RandomVar.binomial(3, F(1, 2)),
        RandomVar.poisson(2),
        RandomVar.exponential(3),
        RandomVar.gamma(F(1, 2), 2),
        RandomVar.geometric(F(1, 3)),
        RandomVar.normal(1, 1),
        RandomVar.negbinomial(2, F(1, 2)),
        RandomVar.uniform01(),
    ):
        draws = sample_rv(rv, size, rng)
        err = abs(draws.mean() - float(rv.mean()))
        spread = draws.std(ddof=1) / size ** 0.5
        assert err <= 6 * spread, (rv.describe(), err, spread)


def test_mc_serialization_precision():
    est = mc_check(RandomVar.poisson(2), F(1, 2), 2, 1, 10_000, 5)
    payload = est.to_dict()
    assert payload["samples"] == 10_000
    assert payload["exact"] == str(est.exact)
    float(payload["estimate"])
    float(payload["z"])
