"""Printed distribution formulas against the reversion-based engine."""

from fractions import Fraction as F
from functools import cache
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probstirling import closedforms
from probstirling.cli import main
from probstirling.closedforms import NumericResult, closed_form, uniform_first_kind
from probstirling.prob import prob_log, prob_triangle
from probstirling.randomvars import RandomVar
from probstirling.special import binom, falling_factorial, triangle
from probstirling.verify import (
    identity_suite,
    stirling1_deg_oracle,
    stirling1_oracle,
    stirling2_oracle,
)

LAM = F(1, 2)
NMAX = 6

FINITE_BOTH = [
    RandomVar.bernoulli(F(1, 2)),
    RandomVar.binomial(3, F(1, 2)),
    RandomVar.poisson(2),
    RandomVar.exponential(3),
    RandomVar.geometric(F(1, 3)),
    RandomVar.uniform01(),
]


def assert_close(result, exact, tol=1e-9):
    __tracebackhide__ = True
    assert isinstance(result, NumericResult)
    assert result.stabilized, f"partial sums not stabilized at depth {result.depth}"
    e = float(exact)
    assert abs(result.value - e) <= tol * max(1.0, abs(e)), (result.value, e)


@pytest.mark.parametrize("rv", FINITE_BOTH, ids=lambda r: r.kind)
def test_finite_closed_forms_are_exactly_the_engine(rv):
    t2 = prob_triangle(rv, LAM, "s2", NMAX)
    t1 = prob_triangle(rv, LAM, "s1", NMAX)
    log = prob_log(rv, LAM, NMAX)
    for n in range(NMAX + 1):
        for k in range(n + 1):
            assert closed_form(rv, LAM, "s2", n, k) == t2.value(n, k)
            assert closed_form(rv, LAM, "s1", n, k) == t1.value(n, k)
        assert closed_form(rv, LAM, "log", n) == log.egf(n)


def test_gamma_split():
    rv = RandomVar.gamma(F(1, 2), 2)
    t2 = prob_triangle(rv, LAM, "s2", NMAX)
    t1 = prob_triangle(rv, LAM, "s1", NMAX)
    log = prob_log(rv, LAM, NMAX)
    for n in range(NMAX + 1):
        for k in range(n + 1):
            assert closed_form(rv, LAM, "s2", n, k) == t2.value(n, k)
            assert closed_form(rv, LAM, "s1", n, k, depth=50) == t1.value(n, k)
        assert closed_form(rv, LAM, "log", n) == log.egf(n)


def test_normal_split():
    rv = RandomVar.normal(1, 1)
    t2 = prob_triangle(rv, LAM, "s2", 5)
    t1 = prob_triangle(rv, LAM, "s1", 5)
    log = prob_log(rv, LAM, 5)
    for n in range(6):
        for k in range(n + 1):
            assert closed_form(rv, LAM, "s2", n, k) == t2.value(n, k)
            assert closed_form(rv, LAM, "s1", n, k, depth=50) == t1.value(n, k)
        if n:
            assert closed_form(rv, LAM, "log", n, depth=50) == log.egf(n)


@pytest.mark.parametrize(
    "rv",
    [RandomVar.gamma(F(1, 2), 2), RandomVar.gamma(3, F(1, 3)), RandomVar.normal(1, 1),
     RandomVar.normal(F(-1, 2), 3)],
    ids=lambda r: r.describe(),
)
def test_gamma_normal_forms_are_exact_and_depth_free(rv):
    # their printed auxiliary sums vanish past index n, so no depth matters
    for lam in (F(1, 2), F(-1, 3)):
        for n in range(11):
            entries = [("s1", k) for k in range(n + 1)] + ([("log", 0)] if n else [])
            for family, k in entries:
                shallow = closed_form(rv, lam, family, n, k, depth=10)
                assert isinstance(shallow, F)
                assert shallow == closed_form(rv, lam, family, n, k, depth=150)


def test_normal_printed_formulas_need_nonzero_lam():
    rv = RandomVar.normal(1, 1)
    # the log is the first kind at k = 1, so both refuse with one message
    for args in (("s1", 2, 1), ("log", 2)):
        with pytest.raises(ValueError, match="normal first-kind formula needs lam != 0"):
            closed_form(rv, 0, *args)


def test_negbinomial_split():
    rv = RandomVar.negbinomial(2, F(1, 2))
    t2 = prob_triangle(rv, LAM, "s2", 4)
    t1 = prob_triangle(rv, LAM, "s1", 4)
    log = prob_log(rv, LAM, 4)
    for n in range(5):
        for k in range(n + 1):
            assert_close(closed_form(rv, LAM, "s2", n, k, depth=100), t2.value(n, k))
            assert_close(closed_form(rv, LAM, "s1", n, k, depth=100), t1.value(n, k))
        assert closed_form(rv, LAM, "log", n) == log.egf(n)


# (family, n, k, depth) -> (float.hex of the value, stabilized), recorded from
# the two-pass evaluation the one-pass partial sums replaced
NB_PINS = {
    RandomVar.negbinomial(2, F(1, 2)): {
        (F(1, 2), "s2", 4, 1, 12): ("0x1.48f0680000000p+7", False),
        (F(1, 2), "s1", 5, 2, 12): ("-0x1.7a8f4adff7189p+5", False),
        (F(1, 2), "s2", 4, 2, 60): ("0x1.9affffffb86f1p+8", False),
        (F(1, 2), "s1", 5, 2, 60): ("-0x1.7e07fffffffeep+5", True),
        (F(0), "s1", 6, 3, 100): ("-0x1.4eb0000000000p+7", True),
        (F(-1, 3), "s1", 8, 4, 60): ("0x1.6a58c68251078p+12", False),
    },
    RandomVar.negbinomial(3, F(2, 5)): {
        (F(1, 2), "s2", 7, 3, 100): ("0x1.4a776ae31bc05p+26", False),
        (F(-1, 3), "s1", 7, 2, 60): ("-0x1.ba6c17800f25ep+8", True),
    },
}


@pytest.mark.parametrize("rv", list(NB_PINS), ids=lambda r: r.describe())
def test_negbinomial_partial_sums_are_pinned(rv):
    for (lam, family, n, k, depth), (hex_value, stabilized) in NB_PINS[rv].items():
        result = closed_form(rv, lam, family, n, k, depth)
        assert result == NumericResult(float.fromhex(hex_value), depth, stabilized)


NB_REFERENCE_DEPTH = 100  # the deepest depth the reference is asked for


@cache
def reference_nb_inner(p, r, k, m):
    """sum_l (p^r - 1)^(k-l) p^(r l) S2(m, l)/(k-l)!, from the recurrence oracle."""
    s2 = stirling2_oracle(NB_REFERENCE_DEPTH)
    return sum(
        (p**r - 1) ** (k - l) * p ** (r * l) * s2[m][l] / factorial(k - l)
        for l in range(min(m, k) + 1)
    )


@cache
def reference_nb_weight(p, r, k, j):
    """(p-1)^j a_k(j)/j! with a_k(j) = sum_m (-r)^m s1(j, m) reference_nb_inner(m)."""
    s1 = stirling1_oracle(NB_REFERENCE_DEPTH)
    a = sum((-r) ** m * s1[j][m] * reference_nb_inner(p, r, k, m) for m in range(j + 1))
    return (p - 1) ** j * a / factorial(j)


def reference_nb_s2(p, r, lam, n, k, depth):
    """The negative-binomial second kind summed term by term, each weight
    taken from the oracle tables and each falling factorial built in place."""
    total = short = F(0)
    for j in range(depth + 1):
        total += reference_nb_weight(p, r, k, j) * falling_factorial(j, n, lam)
        if j == depth - 5:
            short = total
    return NumericResult.from_partials(total, short, depth)


@pytest.mark.parametrize(
    "r, p", [(2, F(1, 2)), (3, F(1, 3))], ids=["r2-p1/2", "r3-p1/3"]
)
def test_negbinomial_second_kind_matches_the_term_by_term_sum(r, p):
    rv = RandomVar.negbinomial(r, p)
    for lam in (F(0), F(1, 2), F(-1, 3)):
        for depth in (10, 12, 60, 100):
            for n in range(9):
                for k in range(n + 1):
                    assert closed_form(rv, lam, "s2", n, k, depth) == reference_nb_s2(
                        p, r, lam, n, k, depth
                    ), (lam, depth, n, k)


def reference_nb_s1_inners(p, r, lam, n, depth):
    """The inner sums over m of the negative-binomial first kind, term by
    term in Fraction, with each column from the degenerate recurrence oracle."""
    s1 = stirling1_deg_oracle(depth, lam)
    out = []
    for l in range(n + 1):
        total = short = F(0)
        for m in range(l, depth + 1):
            signed = (-p) ** m * falling_factorial(F(-m, r), n, 1) / factorial(m)
            total += signed * s1[m][l]
            if m == depth - 5:
                short = total
        out.append((total, short))
    return tuple(out)


@pytest.mark.parametrize(
    "r, p", [(2, F(1, 2)), (3, F(2, 5))], ids=["r2-p1/2", "r3-p2/5"]
)
def test_negbinomial_first_kind_inner_sums_match_the_term_by_term_sum(r, p):
    # at depth 10, rows l > 5 start past depth - 5, so their short sums are 0
    for lam in (F(0), F(1, 2), F(-1, 3)):
        for depth in (10, 60):
            for n in range(11):
                assert closedforms._nb_s1_inners(p, r, lam, n, depth) == (
                    reference_nb_s1_inners(p, r, lam, n, depth)
                ), (lam, depth, n)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_negbinomial_connection_table_is_the_stirling_double_sum(r):
    depth = 30
    s1, s2 = stirling1_oracle(depth), stirling2_oracle(depth)
    table = closedforms._nb_connection(r, depth)
    assert len(table) == depth + 1
    for j, row in enumerate(table):
        assert len(row) == j + 1
        assert all(type(t) is int for t in row)
        for l, t in enumerate(row):
            assert t == sum((-r) ** m * s1[j][m] * s2[m][l] for m in range(l, j + 1)), (j, l)


def literal_gamma_inner(alpha, k, l):
    """The printed inner sum of the gamma second kind, j = 0..k."""
    return sum(
        (-1) ** (k - j) * binom(k, j) * falling_factorial(alpha * j + l - 1, l, 1)
        for j in range(k + 1)
    )


@pytest.mark.parametrize("alpha", [F(1, 2), F(2), F(3, 7), F(5)], ids=str)
def test_gamma_inner_sum_is_an_alternating_difference(alpha):
    for k in range(11):
        for l in range(11):
            literal = literal_gamma_inner(alpha, k, l)
            assert literal == (-1) ** (k + l) * closedforms._alt_difference(-alpha, l, k)
            if l < k:
                assert literal == 0, (k, l)


def literal_gamma_s2(alpha, beta, lam, n, k):
    """The printed gamma second kind, every l from 0 and the inner j-loop inline."""
    s1 = stirling1_oracle(n)
    return sum(
        s1[n][l] * literal_gamma_inner(alpha, k, l) * beta ** (-l) * lam ** (n - l)
        for l in range(n + 1)
    ) / factorial(k)


@pytest.mark.parametrize(
    "rv", [RandomVar.gamma(F(3, 7), 2), RandomVar.gamma(5, F(1, 3))],
    ids=lambda r: r.describe(),
)
def test_gamma_second_kind_matches_the_printed_double_sum(rv):
    alpha, beta = rv.param("alpha"), rv.param("beta")
    for lam in (F(0), F(-1, 3)):
        for n in range(9):
            for k in range(n + 1):
                assert closed_form(rv, lam, "s2", n, k) == literal_gamma_s2(
                    alpha, beta, lam, n, k
                ), (lam, n, k)


def ref_binomial_s2(m, p, lam, n, k):
    """The binomial second kind before its integer sum: one `Fraction`
    multiply and add per term."""
    s2c, s1c, s2l = triangle("s2", 0, n), triangle("s1", 0, n), triangle("s2", lam, n)
    total = F(0)
    for j in range(k, n + 1):
        for i in range(j, n + 1):
            total += m**j * p**i * s2c.value(j, k) * s1c.value(i, j) * s2l.value(n, i)
    return total


def ref_binomial_s1(m, p, lam, n, k):
    """The binomial first kind before its integer sum."""
    m = F(m)
    s2c, s1c, s1l = triangle("s2", 0, n), triangle("s1", 0, n), triangle("s1", lam, n)
    total = F(0)
    for j in range(k, n + 1):
        for i in range(j, n + 1):
            total += p ** (-j) * m ** (-i) * s2c.value(i, j) * s1c.value(n, i) * s1l.value(j, k)
    return total


def ref_normal_s2(mu, sigma2, lam, n, k):
    """The normal second kind before its integer sum."""
    s2c, s1c = triangle("s2", 0, n), triangle("s1", 0, n)
    total = F(0)
    for m in range(k, n + 1):
        for j in range(k, m + 1):
            total += (F(factorial(m), factorial(j)) * binom(j, m - j) * mu ** (2 * j - m)
                      * (sigma2 / 2) ** (m - j) * lam ** (n - m)
                      * s2c.value(j, k) * s1c.value(n, m))
    return total


def ref_uniform_s2(lam, n, k):
    """The uniform second kind before its integer sum."""
    s2c, s1c = triangle("s2", 0, 2 * n), triangle("s1", 0, n)
    total = F(0)
    for m in range(n + 1):
        for j in range(k + 1):
            sign = -1 if (k - j) % 2 else 1
            total += (sign * binom(k, j) / binom(m + j, j) * lam ** (n - m)
                      * s2c.value(m + j, j) * s1c.value(n, m))
    return total / factorial(k)


_ratio = st.fractions(min_value=-5, max_value=5, max_denominator=9)
_unit = st.fractions(min_value=0, max_value=1, max_denominator=9).filter(bool)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
    _ratio, st.integers(1, 6), _unit, _ratio.filter(bool),
    st.fractions(min_value=0, max_value=5, max_denominator=9).filter(bool),
)
def test_integer_closed_forms_match_their_fraction_loops(nk, lam, m, p, mu, sigma2):
    # zero, negative and positive lam; the first-kind normal form needs lam != 0
    n, k = nk
    binomial = RandomVar.binomial(m, p)
    assert closed_form(binomial, lam, "s2", n, k) == ref_binomial_s2(m, p, lam, n, k)
    assert closed_form(binomial, lam, "s1", n, k) == ref_binomial_s1(m, p, lam, n, k)
    normal = RandomVar.normal(mu, sigma2)
    assert closed_form(normal, lam, "s2", n, k) == ref_normal_s2(mu, sigma2, lam, n, k)
    uniform = closed_form(RandomVar.uniform01(), lam, "s2", n, k)
    assert type(uniform) is F and uniform == ref_uniform_s2(lam, n, k)


@pytest.mark.parametrize("lam", [F(0), F(1, 2), F(-1, 3)], ids=str)
def test_negbinomial_first_kind_column_is_the_degenerate_first_kind(lam):
    nmax = 30
    oracle = stirling1_deg_oracle(nmax, lam)
    for l in range(9):
        column = closedforms._deg_s1_column(lam, nmax, l)
        assert column == tuple(
            oracle[m][l] if l <= m else 0 for m in range(nmax + 1)
        ), l


@pytest.mark.parametrize(
    "rv", [RandomVar.poisson(2), RandomVar.gamma(F(1, 2), 2), RandomVar.pointmass(1)],
    ids=lambda r: r.kind,
)
def test_depth_below_ten_is_rejected_for_every_distribution(rv, capsys):
    if rv.kind != "pointmass":  # no closed forms to ask for
        with pytest.raises(ValueError, match="depth"):
            closed_form(rv, LAM, "s2", 2, 1, depth=5)
    with pytest.raises(ValueError, match="depth"):
        identity_suite(rv, LAM, 2, depth=5)
    spec = {"poisson": "poisson:alpha=2", "gamma": "gamma:alpha=1/2,beta=2",
            "pointmass": "pointmass:c=1"}[rv.kind]
    code = main(["verify", "--rv", spec, "--lambda", "1/2", "--nmax", "2", "--depth", "5"])
    assert code == 3
    assert "depth" in capsys.readouterr().err


def test_unstabilized_depth_is_flagged_not_failed():
    rv = RandomVar.negbinomial(2, F(1, 2))
    result = closed_form(rv, LAM, "s2", 4, 1, depth=12)
    assert isinstance(result, NumericResult)
    assert not result.stabilized


def test_uniform_first_kind_closed_form():
    # spot-check the multinomial evaluation against hand values
    assert uniform_first_kind(LAM, 0, 0) == 1
    assert uniform_first_kind(LAM, 1, 1) == 2
    assert uniform_first_kind(LAM, 2, 1) == 4 * LAM - F(8, 3)
    assert uniform_first_kind(LAM, 3, 3) == 8
    assert uniform_first_kind(LAM, 4, 0) == 0
    # classical limit column
    t1z = prob_triangle(RandomVar.uniform01(), 0, "s1", 6)
    for n in range(7):
        for k in range(n + 1):
            assert uniform_first_kind(0, n, k) == t1z.value(n, k)


def test_closed_forms_reject_unsupported_specs():
    with pytest.raises(ValueError):
        closed_form(RandomVar.pointmass(1), LAM, "s2", 2, 1)
    with pytest.raises(ValueError):
        closed_form(RandomVar.custom([1, 1]), LAM, "s1", 1, 1)
    with pytest.raises(ValueError):
        closed_form(RandomVar.poisson(2), LAM, "nope", 1, 1)
    with pytest.raises(ValueError):
        closed_form(RandomVar.poisson(2), LAM, "s2", 1, 2)
