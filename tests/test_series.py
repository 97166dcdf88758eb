"""Exact series arithmetic, composition, reversion and the extraction oracle."""

import inspect
import math
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probstirling import series as series_module
from probstirling.prob import bundle, mgf_deg, prob_order_numbers, prob_triangle
from probstirling.randomvars import RandomVar
from probstirling.series import (
    OrderMismatchError,
    Series,
    as_delta,
    cache_stats,
    clear_caches,
    coeff_egf,
    lagrange_extract,
)
from probstirling.special import deg_exp, frobenius_euler, log_deg_exp, triangle
from probstirling.verify import stirling1_deg_oracle

ORDER = 8

small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def series_strategy(order=ORDER):
    return st.lists(
        small_rationals, min_size=order + 1, max_size=order + 1
    ).map(Series)


def delta_strategy(order=ORDER):
    def build(c1, rest):
        return Series([F(0), c1] + rest)

    nonzero = small_rationals.filter(lambda q: q != 0)
    return st.builds(
        build,
        nonzero,
        st.lists(small_rationals, min_size=order - 1, max_size=order - 1),
    )


# -- ring operations ---------------------------------------------------------

def test_polynomial_square():
    f = Series([1, 1, 0])
    assert (f * f).coeffs == (F(1), F(2), F(1))


def test_geometric_series_division():
    one = Series.one(6)
    geo = one / Series([1, -1, 0, 0, 0, 0, 0])
    assert geo == Series([1] * 7)


def test_additive_identity():
    f = Series([3, F(1, 2), -2, 0, 5])
    assert f + Series.zero(4) == f


def test_scale_and_scalar_ops():
    f = Series([1, 2, 3])
    assert f.scale(F(1, 2)) == Series([F(1, 2), 1, F(3, 2)])
    assert 2 * f == f + f
    assert f / 2 == f.scale(F(1, 2))


def test_order_mismatch_is_an_error():
    with pytest.raises(OrderMismatchError):
        Series([1, 2]) + Series([1, 2, 3])
    with pytest.raises(OrderMismatchError):
        Series([1, 2]) * Series([1, 2, 3])


def test_division_by_delta_series_rejected():
    with pytest.raises(ValueError):
        Series([1, 1, 1]) / Series([0, 1, 1])


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy())
def test_mul_commutes(f, g):
    assert f * g == g * f


@settings(max_examples=40, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_mul_associates(f, g, h):
    assert (f * g) * h == f * (g * h)


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy().filter(lambda s: s.coeffs[0] != 0))
def test_div_is_right_inverse_of_mul(f, g):
    assert (f / g) * g == f


# -- composition and reversion ------------------------------------------------

def test_compose_monomial():
    f = Series([0, 0, 1, 0, 0])
    g = Series([0, 1, 1, 0, 0])
    assert f.compose(g) == Series([0, 0, 1, 2, 1])


def test_compose_log_with_exp_minus_one():
    n = 24
    t = Series.t(n)
    log1p = t.log1p()
    exp_minus_one = t.exp() - Series.one(n)
    assert log1p.compose(exp_minus_one) == t


def test_compose_inner_of_valuation_two():
    # (t^2 + t^5)^k = sum_j C(k, j) t^(2k + 3j), expanded by hand, so powers
    # whose lowest term passes t^20 must drop out of the dense outer series.
    n = 20
    f = Series([F((-1) ** m * (m + 1), m + 2) for m in range(n + 1)])
    inner = Series([0, 0, 1, 0, 0, 1] + [0] * (n - 5))
    expected = [F(0)] * (n + 1)
    expected[0] = f.coeff(0)
    for k in range(1, n + 1):
        for j in range(k + 1):
            if 2 * k + 3 * j <= n:
                expected[2 * k + 3 * j] += f.coeff(k) * math.comb(k, j)
    assert f.compose(inner) == Series(expected)


def test_compose_with_zero_inner_keeps_the_constant():
    assert Series([3, 1, 2]).compose(Series.zero(2)) == Series.constant(3, 2)


def test_compose_identity_substitution():
    f = Series([2, -1, F(1, 3), 0, 4])
    assert f.compose(Series.t(4)) == f


def test_compose_rejects_nonzero_inner_constant():
    with pytest.raises(ValueError):
        Series([1, 1, 1]).compose(Series([1, 1, 0]))


def test_revert_identity():
    assert Series.t(6).revert() == Series.t(6)


def test_revert_mobius():
    # t/(1-t) reverts to t/(1+t); checked against the frozen alternating
    # coefficients and by composing both ways at order 16.
    n = 16
    f = Series([0] + [1] * n)
    fbar = f.revert()
    assert fbar == Series([0] + [(-1) ** (m - 1) for m in range(1, n + 1)])
    assert f.compose(fbar) == Series.t(n)
    assert fbar.compose(f) == Series.t(n)


def test_revert_lambert_w_at_order_30(monkeypatch):
    # t e^t reverts to the Lambert W series, sum (-n)^(n-1) t^n / n!.
    n = 30
    f = Series.t(n) * Series.t(n).exp()

    # revert must not lean on the routes that check it: the compose round
    # trip and the Lagrange formulas.
    def refuse(*args, **kwargs):
        raise AssertionError("revert must not use this route")

    monkeypatch.setattr(Series, "compose", refuse)
    monkeypatch.setattr(Series, "__mul__", refuse)
    monkeypatch.setattr(Series, "pow", refuse)
    monkeypatch.setattr(series_module, "lagrange_extract", refuse)
    assert f.revert() == Series(
        [0] + [F((-m) ** (m - 1), factorial(m)) for m in range(1, n + 1)]
    )


def test_revert_requires_delta():
    with pytest.raises(ValueError):
        Series([1, 1, 1]).revert()
    with pytest.raises(ValueError):
        Series([0, 0, 1]).revert()
    with pytest.raises(ValueError):
        as_delta(Series([0, 0, 1]))
    with pytest.raises(ValueError, match="order must be >= 1"):
        as_delta(Series([0]))
    with pytest.raises(ValueError, match="order must be >= 1"):
        Series([0]).revert()


@settings(max_examples=40, deadline=None)
@given(delta_strategy())
def test_revert_round_trips(f):
    fbar = f.revert()
    t = Series.t(f.order)
    assert f.compose(fbar) == t
    assert fbar.compose(f) == t


# -- transcendental operations -------------------------------------------------

def test_log1p_egf_coefficients():
    lg = Series.t(ORDER).log1p()
    for n in range(1, ORDER + 1):
        assert lg.egf(n) == (-1) ** (n - 1) * factorial(n - 1)


def test_exp_log_round_trip():
    t = Series.t(10)
    assert (t.exp() - Series.one(10)).log1p() == t


@settings(max_examples=40, deadline=None)
@given(series_strategy().map(lambda s: Series([0] + list(s.coeffs[1:]))))
def test_exp_then_log_round_trips(f):
    assert (f.exp() - Series.one(f.order)).log1p() == f


def test_sqrt_squared():
    f = Series([1, 1] + [0] * 15)
    root = f.pow(F(1, 2))
    assert root * root == f


@settings(max_examples=40, deadline=None)
@given(
    series_strategy().map(lambda s: Series([1] + list(s.coeffs[1:]))),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_pow_is_additive_in_the_exponent(f, g1, g2):
    assert f.pow(g1) * f.pow(g2) == f.pow(g1 + g2)


def test_pow_negative_integer():
    f = Series([2, 1, 1, 0, 0])
    assert f.pow(-2) * f * f == Series.one(4)


def test_pow_of_delta_series():
    t = Series.t(6)
    assert t.pow(3) == Series([0, 0, 0, 1, 0, 0, 0])
    assert t.pow(0) == Series.one(6)
    assert t.pow(9) == Series.zero(6)
    with pytest.raises(ValueError):
        t.pow(F(1, 2))
    with pytest.raises(ValueError):
        t.pow(-1)


def test_pow_non_unit_constant_with_fractional_exponent_rejected():
    with pytest.raises(ValueError):
        Series([2, 1, 0]).pow(F(1, 2))


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        Series([1, 1]).exp()
    with pytest.raises(ValueError):
        Series([1, 1]).log1p()


# -- EGF access -----------------------------------------------------------------

def test_egf_of_exponential_is_all_ones():
    e = Series.t(ORDER).exp()
    assert [coeff_egf(e, n) for n in range(ORDER + 1)] == [1] * (ORDER + 1)


def test_egf_of_log_at_four():
    assert Series.t(6).log1p().egf(4) == -6


def test_egf_of_zero():
    assert coeff_egf(Series.zero(5), 3) == 0


def test_egf_out_of_range():
    with pytest.raises(ValueError):
        Series.zero(3).egf(4)


def test_from_egf_round_trip():
    values = [F(1), F(2), F(-3), F(5, 7)]
    s = Series.from_egf(values)
    assert [s.egf(n) for n in range(4)] == values


# -- Lagrange extraction oracle ---------------------------------------------------

def test_extraction_with_identity_reversion():
    g = Series([2, 1, 5, 0, 1, 2, 0, 0, 3])
    t = Series.t(ORDER)
    for n in range(ORDER + 1):
        assert lagrange_extract(g, t, n, None, "A") == g.coeff(n)


@settings(max_examples=30, deadline=None)
@given(delta_strategy())
def test_extraction_b_matches_reverted_powers(f):
    fbar = f.revert()
    power = Series.one(f.order)
    for k in range(1, 4):
        power = power * fbar
        for n in range(k, f.order + 1):
            assert lagrange_extract(None, f, n, k, "B") == power.coeff(n)


@settings(max_examples=30, deadline=None)
@given(delta_strategy(), series_strategy())
def test_extraction_a_matches_composition(f, g):
    comp = g.compose(f.revert())
    for n in range(f.order + 1):
        assert lagrange_extract(g, f, n, None, "A") == comp.coeff(n)


def test_extraction_c_matches_revert():
    f = Series([0, 1, 2, 3, 1, 0, 2, 1, 4])
    fbar = f.revert()
    for n in range(1, f.order + 1):
        assert lagrange_extract(None, f, n, None, "C") == fbar.coeff(n)


def test_extraction_preconditions():
    f = Series([0, 1, 1, 1])
    with pytest.raises(ValueError):
        lagrange_extract(None, f, 0, None, "C")
    with pytest.raises(ValueError):
        lagrange_extract(None, f, 2, 3, "B")
    with pytest.raises(ValueError):
        lagrange_extract(None, f, 2, 0, "B")
    with pytest.raises(ValueError):
        lagrange_extract(None, f, 9, None, "C")
    with pytest.raises(ValueError):
        lagrange_extract(None, f, 2, None, "D")


# -- the memo rule ---------------------------------------------------------------

# public memoised entry point -> its arguments for a given lam and size
MEMOISED = {
    "mgf_deg": (mgf_deg, lambda lam, size: (RandomVar.poisson(2), lam, size)),
    "bundle": (bundle, lambda lam, size: (RandomVar.poisson(2), lam, size)),
    "prob_triangle": (prob_triangle,
                      lambda lam, size: (RandomVar.poisson(2), lam, "s1", size)),
    "triangle": (triangle, lambda lam, size: ("s1", lam, size)),
    "deg_exp": (deg_exp, lambda lam, size: (lam, F(2, 3), size)),
    # the same function with the float in x: 0.5 as x, F(1, 2) as lam
    "deg_exp-x": (deg_exp, lambda x, size: (F(1, 2), x, size)),
    "log_deg_exp": (log_deg_exp, lambda lam, size: (lam, size)),
    "frobenius_euler": (frobenius_euler, lambda lam, size: (lam, size, F(3), 4)),
    "stirling1_deg_oracle": (stirling1_deg_oracle, lambda lam, size: (size, lam)),
    # the float in gamma, then in x; a point mass at 1 has the unit mean a
    # non-integer gamma needs
    "prob_order_numbers-gamma": (
        prob_order_numbers,
        lambda gamma, size: (RandomVar.pointmass(1), F(1, 2), gamma, 0, "bernoulli", size),
    ),
    "prob_order_numbers-x": (
        prob_order_numbers,
        lambda x, size: (RandomVar.poisson(2), F(1, 2), 2, x, "bernoulli", size),
    ),
}


@pytest.mark.parametrize("name", sorted(MEMOISED))
def test_memoised_entry_points_refuse_inexact_keys_warm_or_cold(name):
    fn, args = MEMOISED[name]
    # 0.5 == F(1, 2) and F(3) == 3, each pair hashing alike
    inexact = [args(0.5, 3), args(F(1, 2), F(3))]
    clear_caches()
    for bad in inexact:
        with pytest.raises(TypeError):
            fn(*bad)
    exact = fn(*args(F(1, 2), 3))
    for bad in inexact:
        with pytest.raises(TypeError):
            fn(*bad)
    keywords = inspect.signature(fn).bind(*args(F(1, 2), 3)).arguments
    assert fn(**keywords) == exact
    with pytest.raises(TypeError):
        fn(**dict(keywords, lam=0.5))


@pytest.mark.parametrize("cache, build, lam", [
    ("probstirling.special.triangle", lambda lam: triangle("s1", lam, 10), 0),
    ("probstirling.prob.prob_triangle",
     lambda lam: prob_triangle(RandomVar.poisson(2), lam, "s1", 8), 1),
    ("probstirling.prob.prob_order_numbers",
     lambda lam: prob_order_numbers(RandomVar.poisson(2), lam, 2, 0, "cauchy", 8), 1),
], ids=["triangle", "prob_triangle", "prob_order_numbers"])
def test_an_int_lambda_shares_the_entry_of_the_equal_fraction(cache, build, lam):
    clear_caches()
    first = build(lam)
    assert build(F(lam)) is first
    stats = cache_stats()[cache]
    assert (stats.misses, stats.hits) == (1, 1)
