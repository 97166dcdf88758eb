"""Probabilistic engine: moment series, triangles, logs, order numbers."""

import math
from fractions import Fraction as F

import pytest

from probstirling.prob import (
    bundle,
    mgf_deg,
    mgf_deg_neg,
    moment,
    prob_log,
    prob_order_numbers,
    prob_triangle,
    schlomilch_s1,
    sj_moment,
)
from probstirling.randomvars import RandomVar, builtin_random_vars
from probstirling.series import Series, lagrange_extract
from probstirling.special import deg_exp, deg_log, falling_factorial, triangle
from probstirling.verify import moment_oracle, stirling1_oracle

LAM = F(1, 3)


# -- moment generating functions -------------------------------------------------

def test_bernoulli_mgf_form():
    p = F(1, 2)
    m = mgf_deg(RandomVar.bernoulli(p), LAM, 8)
    expected = Series.one(8) + (deg_exp(LAM, 1, 8) - Series.one(8)).scale(p)
    assert m == expected


def test_pointmass_mgf_is_deg_exp():
    assert mgf_deg(RandomVar.pointmass(1), LAM, 8) == deg_exp(LAM, 1, 8)
    assert mgf_deg(RandomVar.pointmass(F(3, 2)), LAM, 6) == deg_exp(LAM, F(3, 2), 6)


def test_uniform_mgf_ratio_form():
    # (e_lam(t) - 1) / log(e_lam(t)), checked by multiplying back
    m = mgf_deg(RandomVar.uniform01(), LAM, 8)
    e = deg_exp(LAM, 1, 9)
    log_e = (Series.t(9).scale(LAM)).log1p() / LAM
    assert m * log_e.shift_down(1) == (e - Series.one(9)).shift_down(1)


def test_custom_mgf_matches_named_pipeline():
    # a custom spec fed with poisson moments must reproduce the poisson pipeline
    rv = RandomVar.poisson(2)
    moments = [moment_oracle(rv, n) for n in range(9)]
    custom = RandomVar.custom(moments)
    for lam in (F(0), LAM, F(-1, 2)):
        assert mgf_deg(custom, lam, 8) == mgf_deg(rv, lam, 8)


def test_custom_needs_enough_moments():
    rv = RandomVar.custom([1, F(1, 2), F(1, 3)])
    with pytest.raises(ValueError):
        mgf_deg(rv, 0, 5)


def test_mgf_egf_is_falling_factorial_moment():
    # EGF coefficient n of the mgf equals the degenerate moment, computed
    # independently from classical first-kind numbers and raw oracle moments
    s1 = stirling1_oracle(6)
    for rv in (RandomVar.geometric(F(1, 3)), RandomVar.gamma(F(1, 2), 2)):
        m = mgf_deg(rv, LAM, 6)
        for n in range(7):
            expected = sum(
                s1[n][k] * LAM ** (n - k) * moment_oracle(rv, k)
                for k in range(n + 1)
            )
            assert m.egf(n) == expected


def test_moment_against_textbook_oracles():
    for rv in builtin_random_vars():
        for n in range(7):
            assert moment(rv, n) == moment_oracle(rv, n), (rv.describe(), n)


def test_uniform_moments():
    rv = RandomVar.uniform01()
    assert [moment(rv, n) for n in range(6)] == [F(1, n + 1) for n in range(6)]


def test_negated_mgf():
    assert mgf_deg_neg(RandomVar.pointmass(1), LAM, 8) == deg_exp(LAM, -1, 8)
    p = F(1, 2)
    neg = mgf_deg_neg(RandomVar.bernoulli(p), LAM, 8)
    expected = Series.one(8) + (deg_exp(LAM, -1, 8) - Series.one(8)).scale(p)
    assert neg == expected
    assert mgf_deg_neg(RandomVar.poisson(2), LAM, 4).egf(1) == -2


# -- triangles -------------------------------------------------------------------

def test_bernoulli_triangle_scalings():
    p = F(1, 2)
    rv = RandomVar.bernoulli(p)
    t2, t1 = prob_triangle(rv, LAM, "s2", 8), prob_triangle(rv, LAM, "s1", 8)
    d2, d1 = triangle("s2", LAM, 8), triangle("s1", LAM, 8)
    for n in range(9):
        for k in range(n + 1):
            assert t2.value(n, k) == p**k * d2.value(n, k)
            assert t1.value(n, k) == p ** (-n) * d1.value(n, k)


def test_pointmass_reduces_to_deterministic():
    rv = RandomVar.pointmass(1)
    for fam in ("s2", "s1", "h", "g"):
        tp = prob_triangle(rv, LAM, fam, 6)
        assert tp.rows == triangle(fam, LAM, 6).rows


def test_poisson_second_kind_mixture():
    alpha = F(2)
    t2p = prob_triangle(RandomVar.poisson(alpha), LAM, "s2", 7)
    s2c, s2l = triangle("s2", 0, 7), triangle("s2", LAM, 7)
    for n in range(8):
        for k in range(n + 1):
            expected = sum(
                alpha**j * s2c.value(j, k) * s2l.value(n, j)
                for j in range(k, n + 1)
            )
            assert t2p.value(n, k) == expected


def test_triangle_diagonals_scale_with_the_mean():
    rv = RandomVar.geometric(F(1, 3))
    mean = rv.mean()
    t2 = prob_triangle(rv, LAM, "s2", 6)
    t1 = prob_triangle(rv, LAM, "s1", 6)
    for n in range(7):
        assert t2.value(n, n) == mean**n
        assert t1.value(n, n) == mean ** (-n)


def test_zero_mean_blocks_first_kind_only():
    rv = RandomVar.custom([F(1), F(0), F(1), F(0), F(2), F(0), F(9)])
    t2 = prob_triangle(rv, 0, "s2", 4)  # second kind is fine
    assert t2.value(2, 1) == 1
    with pytest.raises(ValueError):
        prob_triangle(rv, 0, "s1", 4)
    with pytest.raises(ValueError):
        prob_log(rv, 0, 4)
    with pytest.raises(ValueError):
        prob_log(RandomVar.pointmass(0), F(1, 2), 4)


def test_bundle_invariants():
    rv = RandomVar.geometric(F(1, 3))
    b = bundle(rv, LAM, 8)
    assert b.delta.compose(b.reverted) == Series.t(8)
    assert b.mgf.egf(1) == rv.mean()


# -- i.i.d. sum moments -----------------------------------------------------------

def test_sum_moment_base_cases():
    rv = RandomVar.poisson(2)
    assert sj_moment(rv, LAM, 0, 0) == 1
    assert all(sj_moment(rv, LAM, 0, n) == 0 for n in range(1, 5))
    for n in range(5):
        assert sj_moment(rv, LAM, 1, n) == mgf_deg(rv, LAM, n).egf(n)


def test_poisson_sum_doubles_the_rate():
    for n in range(7):
        assert sj_moment(RandomVar.poisson(2), LAM, 2, n) == sj_moment(
            RandomVar.poisson(4), LAM, 1, n
        )


# -- order-gamma families -----------------------------------------------------------

def test_leading_bernoulli_number_is_reciprocal_mean():
    for rv in (RandomVar.bernoulli(F(1, 2)), RandomVar.poisson(2)):
        series = prob_order_numbers(rv, LAM, 1, 0, "bernoulli", 5)
        assert series.egf(0) == 1 / rv.mean()


def test_pointmass_daehee_reduces_to_classical():
    d = prob_order_numbers(RandomVar.pointmass(1), 0, 1, 0, "daehee", 6)
    for n in range(7):
        assert d.egf(n) == F((-1) ** n * math.factorial(n), n + 1)


def test_daehee_and_cauchy_bernoulli_ratios():
    rv = RandomVar.poisson(2)
    gamma = 3
    daehee = prob_order_numbers(rv, LAM, gamma, 0, "daehee", 6)
    cauchy = prob_order_numbers(rv, LAM, gamma, 0, "cauchy", 6)
    for n in range(7):
        bern_up = prob_order_numbers(rv, LAM, gamma + n, 0, "bernoulli", 6)
        assert daehee.egf(n) == F(gamma, gamma + n) * bern_up.egf(n)
        if gamma != n:
            bern_down = prob_order_numbers(rv, LAM, n - gamma, 0, "bernoulli", 6)
            assert cauchy.egf(n) == F(gamma, gamma - n) * bern_down.egf(n)


def test_bernoulli_order_numbers_need_no_reversion(monkeypatch):
    calls = []
    revert = Series.revert

    def counting_revert(self):
        calls.append(self.order)
        return revert(self)

    monkeypatch.setattr(Series, "revert", counting_revert)
    # a key no other test builds, so no cached bundle hides a reversion
    rv = RandomVar.poisson(F(13, 7))
    series = prob_order_numbers(rv, F(5, 11), 2, 0, "bernoulli", 6)
    assert calls == []
    assert series.egf(0) == 1 / rv.mean() ** 2
    zero_mean = RandomVar.custom([F(1), F(0), F(1), F(0), F(3), F(0), F(15)])
    with pytest.raises(ValueError):
        prob_order_numbers(zero_mean, 0, 1, 0, "bernoulli", 5)


def test_fractional_order_requires_unit_mean():
    with pytest.raises(ValueError):
        prob_order_numbers(RandomVar.poisson(2), LAM, F(1, 2), 0, "bernoulli", 4)
    # point mass at 1 has unit mean, so fractional orders are exact
    half = prob_order_numbers(RandomVar.pointmass(1), LAM, F(1, 2), 0, "bernoulli", 6)
    whole = prob_order_numbers(RandomVar.pointmass(1), LAM, 1, 0, "bernoulli", 6)
    assert half * half == whole


def test_shift_argument_only_for_bernoulli():
    with pytest.raises(ValueError):
        prob_order_numbers(RandomVar.poisson(2), LAM, 1, F(1, 2), "cauchy", 4)


# -- probabilistic logarithm ---------------------------------------------------------

def test_bernoulli_log_is_rescaled_deg_log():
    p = F(1, 2)
    pl = prob_log(RandomVar.bernoulli(p), LAM, 8)
    assert pl == deg_log(LAM, 8).compose(Series.t(8).scale(1 / p))


def test_poisson_log_nests_the_classical_log():
    alpha = F(2)
    pl = prob_log(RandomVar.poisson(alpha), 0, 8)
    assert pl == Series.t(8).log1p().scale(1 / alpha).log1p()


def test_log_coefficients_are_diagonal_bernoulli_numbers():
    rv = RandomVar.geometric(F(1, 3))
    pl = prob_log(rv, LAM, 6)
    for n in range(1, 7):
        bern = prob_order_numbers(rv, LAM, n, 0, "bernoulli", 6)
        assert pl.egf(n) == bern.egf(n - 1)


@pytest.mark.parametrize("rv", [RandomVar.poisson(2), RandomVar.bernoulli(F(1, 2))])
def test_log_matches_lagrange_extraction_at_order_30(rv):
    # At lam = 1/2 the bernoulli moment series minus one is p(t + t^2/4), so
    # every coefficient of f past t^2 is zero.
    lam, n = F(1, 2), 30
    pl = prob_log(rv, lam, n)
    delta = bundle(rv, lam, n).delta
    for m in range(1, n + 1):
        assert pl.coeff(m) == lagrange_extract(None, delta, m, None, "C")


# -- Schlomilch ------------------------------------------------------------------------

def test_schlomilch_matches_reversion_engine():
    for rv in (RandomVar.bernoulli(F(1, 2)), RandomVar.uniform01()):
        t1 = prob_triangle(rv, LAM, "s1", 6)
        for n in range(7):
            for k in range(n + 1):
                assert schlomilch_s1(rv, LAM, n, k) == t1.value(n, k)


def test_schlomilch_diagonal():
    rv = RandomVar.poisson(2)
    for n in range(5):
        assert schlomilch_s1(rv, LAM, n, n) == rv.mean() ** (-n)


@pytest.mark.parametrize("n, k", [(2, 3), (0, 1), (2, -1), (2, -200)])
def test_schlomilch_rejects_k_outside_the_row(n, k):
    with pytest.raises(ValueError, match="need 0 <= k <= n"):
        schlomilch_s1(RandomVar.poisson(2), LAM, n, k)


def test_schlomilch_bernoulli_scaling():
    p = F(1, 2)
    rv = RandomVar.bernoulli(p)
    d1 = triangle("s1", LAM, 6)
    for n in range(7):
        for k in range(n + 1):
            assert schlomilch_s1(rv, LAM, n, k) == p ** (-n) * d1.value(n, k)


# -- parameter validation ---------------------------------------------------------------

def test_parameter_ranges():
    with pytest.raises(ValueError):
        RandomVar.bernoulli(0)
    with pytest.raises(ValueError):
        RandomVar.bernoulli(F(3, 2))
    with pytest.raises(ValueError):
        RandomVar.geometric(1)
    with pytest.raises(ValueError):
        RandomVar.negbinomial(0, F(1, 2))
    with pytest.raises(ValueError):
        RandomVar.normal(0, 1)
    with pytest.raises(ValueError):
        RandomVar.normal(1, 0)
    with pytest.raises(ValueError):
        RandomVar.gamma(F(1, 2), 0)
    with pytest.raises(ValueError):
        RandomVar.custom([F(1, 2), 1])
    RandomVar.bernoulli(1)  # p = 1 is allowed
    RandomVar.binomial(3, 1)


def test_negative_sizes_are_refused():
    rv = RandomVar.poisson(2)
    prob_triangle(rv, F(1, 2), "s1", 3)  # warm every cache on (rv, 1/2)
    with pytest.raises(ValueError, match="order must be >= 0"):
        mgf_deg(rv, F(1, 2), -1)
    with pytest.raises(ValueError, match="order must be >= 0"):
        bundle(rv, F(1, 2), -1)
    with pytest.raises(ValueError, match="nmax must be >= 0"):
        prob_triangle(rv, F(1, 2), "s1", -1)
    with pytest.raises(ValueError, match="order must be >= 0"):
        prob_log(rv, F(1, 2), -1)
    for family in ("bernoulli", "daehee", "cauchy"):
        with pytest.raises(ValueError, match="order must be >= 0"):
            prob_order_numbers(rv, F(1, 2), 1, 0, family, -1)


def test_log_of_product_scalar_rule():
    # log_lam(a b) = a**lam log_lam(b) + log_lam(a), exact for integer lam
    def log_lam(x, lam):
        return (x**lam - 1) / lam if lam else None

    a, b = F(2), F(5, 3)
    for lam in (F(1), F(2), F(-3)):
        lhs = log_lam(a * b, lam)
        rhs = a**lam * log_lam(b, lam) + log_lam(a, lam)
        assert lhs == rhs
    # fractional lam: numerically
    lam = 0.5
    a_f, b_f = 2.0, 5.0 / 3.0
    lhs = ((a_f * b_f) ** lam - 1) / lam
    rhs = a_f**lam * ((b_f**lam - 1) / lam) + (a_f**lam - 1) / lam
    assert abs(lhs - rhs) < 1e-12
