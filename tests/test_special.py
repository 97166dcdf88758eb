"""Deterministic number families against closed forms and brute-force oracles."""

import itertools
import math
import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probstirling import special
from probstirling.prob import bundle, mgf_deg, prob_triangle
from probstirling.randomvars import builtin_random_vars
from probstirling.series import Series, clear_caches
from probstirling.special import (
    bell_triangle,
    bernoulli_pade_a2,
    binom,
    deg_exp,
    deg_log,
    falling_factorial,
    frobenius_euler,
    hetero_bell,
    lah_bell,
    log_deg_exp,
    order_numbers,
    partial_bell,
    rising_factorial,
    triangle,
)

lam_values = [F(0), F(1), F(1, 2), F(-1, 3), F(2)]


# -- factorials ---------------------------------------------------------------

def test_falling_factorial_examples():
    assert falling_factorial(3, 4, 0) == 81
    assert falling_factorial(1, 2, F(1, 3)) == F(2, 3)
    assert falling_factorial(7, 0, 5) == 1


def test_binom_matches_product_formula_for_integer_tops():
    for top in range(-40, 41):
        for k in range(-2, 45):
            product = F(0) if k < 0 else F(1)
            for i in range(max(k, 0)):
                product *= top - i
            got = binom(top, k)
            assert type(got) is F
            assert got == product / factorial(max(k, 0)), (top, k)
            assert binom(F(top), k) == got


def test_binom_fractional_top():
    assert binom(F(1, 2), 3) == F(1, 16)
    assert type(binom(F(-1, 3), 0)) is F
    with pytest.raises(TypeError):
        binom(0.5, 2)


def test_rising_factorial_examples():
    assert rising_factorial(2, 3, 1) == 24
    assert rising_factorial(F(1, 2), 2, F(1, 2)) == F(1, 2)


@settings(max_examples=50, deadline=None)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.integers(min_value=0, max_value=6),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)
def test_rising_is_sign_flipped_falling(x, n, lam):
    assert rising_factorial(x, n, lam) == (-1) ** n * falling_factorial(-x, n, lam)


def ref_binom(top, k):
    """`binom` before its integer products: `comb` for an integer top, one
    `Fraction` multiply per factor for a rational one."""
    if k < 0:
        return F(0)
    top = F(top)
    if top.denominator == 1:
        m = top.numerator
        if m >= 0:
            return F(math.comb(m, k))
        c = math.comb(k - m - 1, k)
        return F(-c if k % 2 else c)
    num = F(1)
    for i in range(k):
        num *= top - i
    return num / factorial(k)


def ref_falling_factorial(x, n, lam):
    """`falling_factorial` before its integer running product."""
    x, lam = F(x), F(lam)
    out = F(1)
    for i in range(n):
        out *= x - i * lam
    return out


def ref_rising_factorial(x, n, lam):
    """`rising_factorial` before its integer running product."""
    x, lam = F(x), F(lam)
    out = F(1)
    for i in range(n):
        out *= x + i * lam
    return out


_rational = st.fractions(min_value=-9, max_value=9, max_denominator=30)
# negative, zero and positive steps, integral or not
_step = st.one_of(st.just(0), st.integers(-3, 3), _rational)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(-9, 9), _rational), st.integers(0, 12), _step)
def test_factorials_match_their_fraction_loops(x, n, lam):
    for fn, ref in ((falling_factorial, ref_falling_factorial),
                    (rising_factorial, ref_rising_factorial)):
        got = fn(x, n, lam)
        assert type(got) is F
        assert got == ref(x, n, lam)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.just(0), st.just(F(0)), st.integers(-20, 20),
              st.fractions(min_value=-20, max_value=20, max_denominator=12)),
    st.integers(-3, 30),
)
def test_binom_matches_its_fraction_loop(top, k):
    # k runs past every top, where an integer top >= 0 gives 0
    got = binom(top, k)
    assert type(got) is F
    assert got == ref_binom(top, k)


def test_factorials_refuse_a_float_or_a_negative_n():
    for fn in (falling_factorial, rising_factorial):
        with pytest.raises(TypeError):
            fn(0.5, 2, 1)
        with pytest.raises(TypeError):
            fn(1, 2, 0.5)
        with pytest.raises(ValueError, match="n must be >= 0"):
            fn(1, -1, 1)


def test_step_one_reduces_to_classical():
    x = F(7, 2)
    for n in range(8):
        classical = 1
        for i in range(n):
            classical *= x - i
        assert falling_factorial(x, n, 1) == classical


# -- degenerate exponential / logarithm -----------------------------------------

def test_deg_exp_classical_limit():
    e = deg_exp(0, 1, 8)
    assert e == Series.t(8).exp()


def test_deg_exp_scaled_argument():
    e = deg_exp(0, F(3, 2), 6)
    assert all(e.egf(n) == F(3, 2) ** n for n in range(7))


def test_deg_log_leading_egf_coefficients():
    for lam in lam_values:
        lg = deg_log(lam, 6)
        assert lg.egf(1) == 1
        assert lg.egf(2) == lam - 1


def test_deg_log_is_inverse_of_deg_exp_minus_one():
    for lam in lam_values:
        e = deg_exp(lam, 1, 10)
        assert (e - Series.one(10)).revert() == deg_log(lam, 10)


def test_log_deg_exp():
    assert log_deg_exp(0, 6) == Series.t(6)
    lam = F(1, 2)
    # exp(lam-scaled log) recovers the degenerate exponential
    assert log_deg_exp(lam, 8).exp() == deg_exp(lam, 1, 8)


def ref_deg_exp(lam, x, order):
    """The loop `deg_exp` ran before its integer running product: one
    degenerate falling factorial per EGF coefficient."""
    return Series.from_egf(falling_factorial(x, n, lam) for n in range(order + 1))


def ref_log_deg_exp(lam, order):
    """The series `log_deg_exp` built before its closed form: log1p of the
    scaled variable, divided by lam."""
    t = Series.t(order)
    return t if lam == 0 else t.scale(lam).log1p() / lam


def test_base_series_match_the_reference_loops():
    for lam in (F(0), F(1), F(1, 2), F(-1, 3), F(2), F(7, 5)):
        for order in range(41):
            assert log_deg_exp(lam, order) == ref_log_deg_exp(lam, order), (lam, order)
            for x in (F(0), F(1), F(3), F(-2, 3), F(5, 7)):
                assert deg_exp(lam, x, order) == ref_deg_exp(lam, x, order), (lam, x, order)


@settings(max_examples=80, deadline=None)
@given(
    st.fractions(min_value=-5, max_value=5, max_denominator=30),
    st.fractions(min_value=-5, max_value=5, max_denominator=30),
    st.integers(min_value=0, max_value=16),
)
def test_base_series_match_the_reference_loops_at_random_rationals(lam, x, order):
    assert deg_exp(lam, x, order) == ref_deg_exp(lam, x, order)
    assert log_deg_exp(lam, order) == ref_log_deg_exp(lam, order)


def ref_deg_log(lam, order):
    """The series `deg_log` built before it was `Series.t(order).log1p(lam)`:
    log1p at lam = 0, else a rational power, less one, over lam."""
    t, one = Series.t(order), Series.one(order)
    if lam == 0:
        return t.log1p()
    return ((one + t).pow(lam) - one) / lam


def test_deg_log_matches_its_pow_construction():
    for lam in (F(0), F(1), F(1, 2), F(-1, 3), F(2), F(7, 5), F(-3)):
        for order in range(41):
            assert deg_log(lam, order) == ref_deg_log(lam, order), (lam, order)


def test_deg_log_refuses_a_float_lam_or_a_negative_order():
    with pytest.raises(TypeError):
        deg_log(0.5, 4)
    with pytest.raises(ValueError, match="order must be >= 0"):
        deg_log(F(1, 2), -1)


def test_base_series_refuse_a_negative_order_cold_or_warm():
    clear_caches()
    for _ in range(2):
        with pytest.raises(ValueError, match="order must be >= 0"):
            deg_exp(F(1, 2), 1, -1)
        with pytest.raises(ValueError, match="order must be >= 0"):
            log_deg_exp(F(1, 2), -1)
        # warm: the nearest valid entries are cached
        assert deg_exp(F(1, 2), 1, 0) == Series.one(0)
        assert log_deg_exp(F(1, 2), 0) == Series.t(0)


# -- triangles -------------------------------------------------------------------

def test_first_kind_row_four():
    t = triangle("s1", 0, 4)
    assert [t.value(4, k) for k in range(5)] == [0, -6, 11, -6, 1]


def test_lah_closed_form():
    t = triangle("lah", 0, 8)
    assert t.value(4, 2) == 36
    for n in range(9):
        for k in range(n + 1):
            expected = (
                F(factorial(n), factorial(k)) * binom(n - 1, k - 1)
                if n
                else F(1)
            )
            assert t.value(n, k) == expected


def test_stirling_diagonals_and_corners():
    for fam in ("s1", "s2", "h", "g", "lah"):
        t = triangle(fam, F(1, 2), 6)
        assert t.value(0, 0) == 1
        for n in range(7):
            assert t.value(n, n) == 1
        assert t.value(3, 5) == 0
        assert t.value(-1, 0) == 0


def test_h_at_one_equals_lah():
    th, tl = triangle("h", 1, 8), triangle("lah", 0, 8)
    assert th.rows == tl.rows


def test_second_first_kind_orthogonality():
    lam = F(1, 3)
    t2, t1 = triangle("s2", lam, 8), triangle("s1", lam, 8)
    for n in range(9):
        for l in range(n + 1):
            total = sum(t2.value(n, k) * t1.value(k, l) for k in range(l, n + 1))
            assert total == (1 if n == l else 0)


def test_unknown_family_rejected():
    for nmax in (3, 0):
        with pytest.raises(ValueError, match="unknown triangle family"):
            triangle("nope", 0, nmax)


@pytest.mark.parametrize("family", special.TRIANGLE_FAMILIES)
def test_order_zero_triangle(family):
    for lam in (F(0), F(1, 2), F(-1, 3), F(2)):
        assert triangle(family, lam, 0).rows == ((1,),)


def test_negative_sizes_are_refused():
    triangle("s1", F(1, 2), 3)
    frobenius_euler(F(1, 2), 2, F(3), 3)
    with pytest.raises(ValueError, match="nmax must be >= 0"):
        triangle("s1", F(1, 2), -1)
    with pytest.raises(ValueError, match="order must be >= 0"):
        frobenius_euler(F(1, 2), 2, F(3), -1)


# -- triangle_from_base against the Series-product loop ----------------------------

def ref_triangle_from_base(base, nmax):
    """The loop `triangle_from_base` ran before its powers moved to integer
    numerators: base**k by repeated `Series.__mul__`, then one Fraction
    multiply and divide per entry.  Returns the rows."""
    b = base.truncate(nmax)
    rows = [[F(0)] * (n + 1) for n in range(nmax + 1)]
    power = Series.one(nmax)
    for k in range(nmax + 1):
        if k:
            power = power * b
        for n in range(k, nmax + 1):
            c = power.coeff(n)
            if c:
                rows[n][k] = c * factorial(n) / factorial(k)
    return tuple(tuple(r) for r in rows)


@pytest.mark.parametrize("lam", [F(0), F(1, 2), F(-1, 3)])
def test_probabilistic_triangles_match_the_series_loop(lam):
    nmax = 30
    for rv in builtin_random_vars():
        for family in ("s2", "s1", "h", "g"):
            base_lam = lam if family in ("s2", "s1") else -lam
            if family in ("s2", "h"):
                base = mgf_deg(rv, base_lam, nmax) - Series.one(nmax)
            else:
                base = bundle(rv, base_lam, nmax).reverted
            table = prob_triangle(rv, lam, family, nmax)
            assert table.rows == ref_triangle_from_base(base, nmax), (rv, family)


def test_deterministic_triangles_match_the_series_loop():
    for family in special.TRIANGLE_FAMILIES:
        for lam in lam_values:
            table = triangle(family, lam, 20)
            assert table.rows == ref_triangle_from_base(
                special._base_series(family, lam, 20), 20
            ), (family, lam)


_coefficient = st.one_of(
    st.just(F(0)), st.fractions(min_value=-9, max_value=9, max_denominator=12)
)


@st.composite
def triangle_bases(draw):
    """(base, nmax): base of order nmax..nmax+2 and valuation 1 or 2, with
    any nonzero linear coefficient at valuation 1 and about a third of its
    other coefficients zero."""
    nmax = draw(st.integers(0, 12))
    order = nmax + draw(st.integers(0, 2))
    cs = draw(st.lists(_coefficient, min_size=order + 1, max_size=order + 1))
    cs[0] = F(0)
    if order >= 1:
        valuation = draw(st.integers(1, 2))
        cs[1] = (
            draw(st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool))
            if valuation == 1
            else F(0)
        )
    return Series(cs), nmax


@settings(max_examples=120, deadline=None)
@given(triangle_bases())
def test_triangle_from_base_matches_the_series_loop(case):
    base, nmax = case
    table = special.triangle_from_base(base, "t", F(1, 2), nmax)
    assert table.rows == ref_triangle_from_base(base, nmax)
    assert (table.family, table.lam, table.nmax) == ("t", F(1, 2), nmax)


def test_triangle_from_base_uses_no_series_arithmetic(monkeypatch):
    base = special._base_series("s1", F(1, 3), 12)
    expected = ref_triangle_from_base(base, 12)

    def refuse(*args, **kwargs):
        raise AssertionError("triangle_from_base must not use the series engine")

    for name in ("__init__", "__mul__", "compose", "revert", "pow", "truncate"):
        monkeypatch.setattr(Series, name, refuse)
    assert special.triangle_from_base(base, "s1", F(1, 3), 12).rows == expected


def test_triangle_from_base_input_validation():
    base = special._base_series("s2", F(1, 2), 4)
    with pytest.raises(ValueError, match="nmax must be >= 0"):
        special.triangle_from_base(base, "s2", F(1, 2), -1)
    with pytest.raises(ValueError, match="base series order is smaller than nmax"):
        special.triangle_from_base(base, "s2", F(1, 2), 5)
    with pytest.raises(ValueError, match="triangle base must have zero constant term"):
        special.triangle_from_base(base + Series.one(4), "s2", F(1, 2), 4)


# -- partial Bell polynomials -----------------------------------------------------

def bell_by_enumeration(x, n, k):
    """Direct multinomial-sum evaluation over partitions of n into k parts."""
    if n == 0 and k == 0:
        return F(1)
    total = F(0)
    for parts in itertools.combinations_with_replacement(range(1, n - k + 2), k):
        if sum(parts) != n:
            continue
        coeff = F(factorial(n))
        mult: dict = {}
        for p in parts:
            mult[p] = mult.get(p, 0) + 1
        for p, count in mult.items():
            coeff /= factorial(count)
            coeff /= F(factorial(p)) ** count
        term = coeff
        for p in parts:
            term *= x[p - 1]
        total += term
    return total


def test_partial_bell_base_cases():
    xs = [F(2), F(5), F(-1), F(7)]
    assert partial_bell(xs, 4, 4) == 2 ** 4
    assert partial_bell(xs, 4, 1) == 7
    assert partial_bell([F(2), F(5)], 3, 2) == 3 * 2 * 5
    assert partial_bell([F(1)], 0, 0) == 1


def test_partial_bell_matches_enumeration():
    xs = [F(1, 2), F(-2), F(3), F(1, 3), F(5), F(-1, 7), F(2), F(-4)]
    for n in range(8):
        for k in range(n + 1):
            assert partial_bell(xs, n, k) == bell_by_enumeration(xs, n, k)


def test_partial_bell_input_validation():
    with pytest.raises(ValueError):
        partial_bell([F(1)], 3, 1)  # needs 3 entries
    with pytest.raises(ValueError):
        partial_bell([F(1)], 1, 2)


def test_bell_triangle_matches_enumeration():
    rng = random.Random(5)
    for nmax in (0, 1, 4, 10):
        xs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(nmax)]
        table = bell_triangle(xs, nmax)
        assert table.nmax == nmax
        for n in range(nmax + 1):
            assert len(table.row(n)) == n + 1
            for k in range(n + 1):
                assert table.value(n, k) == bell_by_enumeration(xs, n, k), (nmax, n, k)


def ref_bell_triangle(x, nmax):
    """The rows `bell_triangle` filled before its integer recurrence: Comtet's
    recurrence with one `Fraction` multiply and add per term."""
    rows = [(F(1),)]
    for n in range(1, nmax + 1):
        row = [F(0)] * (n + 1)
        for k in range(1, n + 1):
            total = F(0)
            for i in range(1, n - k + 2):
                below = rows[n - i][k - 1]
                if below and x[i - 1]:
                    total += math.comb(n - 1, i - 1) * F(x[i - 1]) * below
            row[k] = total
        rows.append(tuple(row))
    return tuple(rows)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 8).flatmap(lambda nmax: st.tuples(
    st.just(nmax),
    st.lists(st.one_of(st.just(0), st.integers(-9, 9), _rational),
             min_size=nmax, max_size=nmax + 2),
)))
def test_bell_triangle_matches_its_fraction_loop(case):
    # zeros, negative entries, ints, and entries past x_nmax that never enter
    nmax, xs = case
    table = bell_triangle(xs, nmax)
    assert table.rows == ref_bell_triangle(xs, nmax)
    assert all(type(v) is F for row in table.rows for v in row)


def test_bell_triangle_input_validation():
    with pytest.raises(ValueError):
        bell_triangle([F(1), F(2)], 3)  # needs x1..x3
    with pytest.raises(ValueError):
        bell_triangle([F(1)], -1)
    with pytest.raises(TypeError):
        bell_triangle([F(1), 0.5, F(2)], 3)


def test_bell_triangle_uses_no_series_arithmetic(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Bell oracle must not use the series engine")

    monkeypatch.setattr(Series, "pow", refuse)
    monkeypatch.setattr(Series, "__mul__", refuse)
    monkeypatch.setattr(special, "triangle_from_base", refuse)
    xs = [F(1, 2), F(-2), F(3), F(1, 3), F(5), F(-1, 7)]
    table = bell_triangle(xs, 6)
    assert table.value(6, 1) == xs[5]
    assert table.value(6, 6) == xs[0] ** 6
    assert partial_bell(xs, 5, 2) == table.value(5, 2)


# -- order-gamma number families -----------------------------------------------

def test_bernoulli_diagonal_identity():
    for n in range(1, 8):
        series = order_numbers(0, n, 0, "bernoulli", n)
        assert series.egf(n - 1) == (-1) ** (n - 1) * factorial(n - 1)


def test_order_numbers_constant_terms():
    for fam in ("bernoulli", "daehee", "cauchy"):
        assert order_numbers(F(1, 2), F(3), 0, fam, 4).egf(0) == 1


def test_daehee_first_order():
    d = order_numbers(0, 1, 0, "daehee", 6)
    for n in range(7):
        assert d.egf(n) == F((-1) ** n * factorial(n), n + 1)


def test_cauchy_first_order_values():
    c = order_numbers(0, 1, 0, "cauchy", 4)
    assert [c.egf(n) for n in range(5)] == [
        F(1), F(1, 2), F(-1, 6), F(1, 4), F(-19, 30),
    ]


def test_bernoulli_polynomial_shift():
    # e_lam(t)**x shifts the numbers into polynomials; x = 0 recovers numbers
    lam, gamma = F(1, 2), F(2)
    numbers = order_numbers(lam, gamma, 0, "bernoulli", 6)
    shifted = order_numbers(lam, gamma, F(1, 3), "bernoulli", 6)
    assert shifted != numbers
    assert shifted.egf(0) == numbers.egf(0) == 1


def test_shift_rejected_outside_bernoulli():
    with pytest.raises(ValueError):
        order_numbers(0, 1, F(1, 2), "daehee", 4)


# -- auxiliary families -----------------------------------------------------------

def test_bernoulli_pade_values():
    a2 = bernoulli_pade_a2(6)
    assert [a2.egf(n) for n in range(4)] == [F(1), F(-1, 3), F(1, 18), F(1, 90)]


def test_frobenius_euler_order_zero():
    assert frobenius_euler(F(1, 2), 0, F(3), 5) == Series.one(5)


def test_frobenius_euler_recurrence():
    # (e_lam(t) - u) * series = (1 - u) gives an independent recurrence
    lam, u = F(1, 3), F(3, 2)
    h = frobenius_euler(lam, 1, u, 6)
    values = [h.egf(n) for n in range(7)]
    assert values[0] == 1
    for n in range(1, 7):
        total = sum(
            binom(n, k) * values[k] * falling_factorial(1, n - k, lam)
            for k in range(n)
        )
        assert values[n] == total / (u - 1)


def test_frobenius_euler_u_one_rejected():
    with pytest.raises(ValueError):
        frobenius_euler(0, 2, 1, 4)


# -- polynomial families -----------------------------------------------------------

def test_lah_bell_base_cases():
    assert lah_bell(F(5, 7), 0) == 1
    assert lah_bell(F(5, 7), 1) == F(5, 7)


def test_lah_bell_against_generating_function():
    x = F(2, 3)
    order = 8
    base = Series([0] + [1] * order)  # t/(1-t)
    gf = base.scale(x).exp()
    for n in range(order + 1):
        assert lah_bell(x, n) == gf.egf(n)


def test_hetero_bell_against_generating_function():
    lam, x = F(1, 2), F(3, 5)
    order = 8
    base = deg_exp(-lam, 1, order) - Series.one(order)
    gf = base.scale(x).exp()
    for n in range(order + 1):
        assert hetero_bell(lam, x, n) == gf.egf(n)


def test_hetero_bell_at_one_sums_the_row():
    lam = F(-1, 3)
    t = triangle("h", lam, 5)
    assert hetero_bell(lam, 1, 5) == sum(t.value(5, k) for k in range(6))


def test_extraction_on_degenerate_exponential():
    # [t^3] of the degenerate log at lam = 1/2 is (lam-1)(lam-2)/3! = 1/8,
    # reachable three ways: extraction formula C, the log series itself, and
    # the order-3 Bernoulli-type number divided by 3!.
    from probstirling.series import lagrange_extract

    lam = F(1, 2)
    f = deg_exp(lam, 1, 8) - Series.one(8)
    extracted = lagrange_extract(None, f, 3, None, "C")
    assert extracted == F(1, 8)
    assert extracted == deg_log(lam, 8).coeff(3)
    bern = order_numbers(lam, 3, 0, "bernoulli", 4)
    assert extracted == bern.egf(2) / 6


def test_triangle_connection_identities():
    # rising-connection entries from classical tables, and Lah from the mixed sum
    lam = F(1, 2)
    n_max = 8
    th = triangle("h", lam, n_max)
    t1l = triangle("s1", lam, n_max)
    s1c = triangle("s1", 0, n_max)
    s2c = triangle("s2", 0, n_max)
    lah = triangle("lah", 0, n_max)
    for n in range(n_max + 1):
        for k in range(n + 1):
            direct = sum(
                (-1) ** (n - l) * s2c.value(l, k) * s1c.value(n, l) * lam ** (n - l)
                for l in range(k, n + 1)
            )
            assert th.value(n, k) == direct
            mixed = sum(
                (-1) ** (n - l) * t1l.value(n, l) * th.value(l, k)
                for l in range(k, n + 1)
            )
            assert lah.value(n, k) == mixed
