"""Printed distribution formulas against the reversion-based engine."""

from decimal import Decimal, localcontext
from fractions import Fraction as F
from functools import cache
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probstirling import closedforms
from probstirling.cli import main
from probstirling.closedforms import CLOSED_FORM_KINDS, closed_form, uniform_first_kind
from probstirling.prob import prob_log, prob_triangle
from probstirling.randomvars import RandomVar, builtin_random_vars
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
            assert closed_form(rv, LAM, "s1", n, k) == t1.value(n, k)
        assert closed_form(rv, LAM, "log", n) == log.egf(n)


def test_normal_split():
    rv = RandomVar.normal(1, 1)
    t2 = prob_triangle(rv, LAM, "s2", 5)
    t1 = prob_triangle(rv, LAM, "s1", 5)
    log = prob_log(rv, LAM, 5)
    for n in range(6):
        for k in range(n + 1):
            assert closed_form(rv, LAM, "s2", n, k) == t2.value(n, k)
            assert closed_form(rv, LAM, "s1", n, k) == t1.value(n, k)
        if n:
            assert closed_form(rv, LAM, "log", n) == log.egf(n)


@pytest.mark.parametrize(
    "rv",
    [RandomVar.gamma(F(1, 2), 2), RandomVar.gamma(3, F(1, 3)), RandomVar.normal(1, 1),
     RandomVar.normal(F(-1, 2), 3)],
    ids=lambda r: r.describe(),
)
def test_gamma_normal_forms_are_exact_and_depth_free(rv):
    # their printed auxiliary sums vanish past index n, so they are summed to
    # n and take no truncation depth
    for lam in (F(1, 2), F(-1, 3)):
        t1, log = prob_triangle(rv, lam, "s1", 10), prob_log(rv, lam, 10)
        for n in range(11):
            for k in range(n + 1):
                value = closed_form(rv, lam, "s1", n, k)
                assert type(value) is F and value == t1.value(n, k), (lam, n, k)
            if n:
                assert closed_form(rv, lam, "log", n) == log.egf(n), (lam, n)


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
            assert closed_form(rv, LAM, "s2", n, k) == t2.value(n, k)
            assert closed_form(rv, LAM, "s1", n, k) == t1.value(n, k)
        assert closed_form(rv, LAM, "log", n) == log.egf(n)


_lam = st.fractions(min_value=-3, max_value=3, max_denominator=7)
_open_unit = st.fractions(min_value=0, max_value=1, max_denominator=9).filter(
    lambda p: 0 < p < 1
)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), _open_unit, st.one_of(st.just(F(0)), _lam),
       st.integers(0, 8))
def test_negbinomial_closed_forms_are_exactly_the_engine(r, p, lam, nmax):
    rv = RandomVar.negbinomial(r, p)
    for family in ("s2", "s1"):
        table = prob_triangle(rv, lam, family, nmax)
        for n in range(nmax + 1):
            for k in range(n + 1):
                value = closed_form(rv, lam, family, n, k)
                assert type(value) is F and value == table.value(n, k), (family, n, k)


@pytest.mark.parametrize("kind", CLOSED_FORM_KINDS)
def test_every_closed_form_is_a_fraction(kind):
    rv = next(r for r in builtin_random_vars() if r.kind == kind)
    for lam in (F(0), F(1, 2), F(-1, 3)):
        for n in range(6):
            entries = [(family, k) for family in ("s2", "s1") for k in range(n + 1)]
            for family, k in entries + [("log", 0)]:
                if kind == "normal" and lam == 0 and family != "s2":
                    continue  # the printed normal first kind needs lam != 0
                assert type(closed_form(rv, lam, family, n, k)) is F, (lam, family, n, k)


# The printed negative-binomial forms are infinite series.  Their partial
# sums to depth 100, summed here term by term from the recurrence oracles,
# must come within 1e-12 relative of the finite exact forms.

NB_REFERENCE_DEPTH = 100


def within_1e12(partial, exact):
    return abs(partial - exact) <= max(1, abs(exact)) / 10**12


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


def reference_nb_s2(p, r, lam, n, k):
    """The printed second kind, sum_j (p-1)^j a_k(j)/j! (j)_{n,lam}, summed
    exactly to depth 100, each weight from the oracle tables."""
    return sum(
        (reference_nb_weight(p, r, k, j) * falling_factorial(j, n, lam)
         for j in range(NB_REFERENCE_DEPTH + 1)),
        F(0),
    )


# The printed second kind converges slowly when |p - 1| is near 1: at r = 3,
# p = 1/3 its depth-100 partial sum is off by more than 1e-8 already at
# k = 1.  These cases take |p - 1| <= 1/3, where depth 100 is within 1e-12
# at every n, k <= 8.
@pytest.mark.parametrize(
    "r, p", [(2, F(2, 3)), (3, F(3, 4))], ids=["r2-p2/3", "r3-p3/4"]
)
def test_negbinomial_second_kind_matches_the_term_by_term_sum(r, p):
    rv = RandomVar.negbinomial(r, p)
    for lam in (F(0), F(1, 2), F(-1, 3)):
        for n in range(9):
            for k in range(n + 1):
                exact = closed_form(rv, lam, "s2", n, k)
                assert within_1e12(reference_nb_s2(p, r, lam, n, k), exact), (lam, n, k)


@cache
def reference_nb_s1_inners(p, r, lam, n):
    """The inner sums over m of the printed first kind to depth 100, term
    by term in Fraction, with each column from the degenerate recurrence oracle."""
    s1 = stirling1_deg_oracle(NB_REFERENCE_DEPTH, lam)
    return tuple(
        sum(
            ((-p) ** m * falling_factorial(F(-m, r), n, 1) / factorial(m) * s1[m][l]
             for m in range(l, NB_REFERENCE_DEPTH + 1)),
            F(0),
        )
        for l in range(n + 1)
    )


def _dec(x):
    return Decimal(x.numerator) / Decimal(x.denominator)


def reference_nb_s1(p, r, lam, n, k):
    """The printed first kind, sum_l q^(lam l) log_lam(q)^(k-l)/(k-l)! times
    the inner sums, q = 1/(1-p).  The scale factors are irrational for
    fractional lam, so they are taken to 40 significant digits."""
    inners = reference_nb_s1_inners(p, r, lam, n)
    lam_d, ln_q = _dec(lam), _dec(1 / (1 - p)).ln()
    log_lam_q = ln_q if lam == 0 else ((lam_d * ln_q).exp() - 1) / lam_d
    return sum(
        (_dec(inners[l]) * (lam_d * l * ln_q).exp() * log_lam_q ** (k - l)
         / factorial(k - l) for l in range(k + 1)),
        Decimal(0),
    )


@pytest.mark.parametrize(
    "r, p", [(2, F(1, 2)), (3, F(2, 5))], ids=["r2-p1/2", "r3-p2/5"]
)
def test_negbinomial_first_kind_matches_the_term_by_term_sum(r, p):
    rv = RandomVar.negbinomial(r, p)
    with localcontext() as ctx:
        ctx.prec = 40
        for lam in (F(0), F(1, 2), F(-1, 3)):
            for n in range(9):
                for k in range(n + 1):
                    exact = _dec(closed_form(rv, lam, "s1", n, k))
                    assert within_1e12(reference_nb_s1(p, r, lam, n, k), exact), (lam, n, k)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_negbinomial_connection_table_is_the_stirling_double_sum(r):
    nmax = 30
    s1, s2 = stirling1_oracle(nmax), stirling2_oracle(nmax)
    table = closedforms._nb_connection(-r, 1, nmax)
    assert len(table) == nmax + 1
    for j, row in enumerate(table):
        assert len(row) == j + 1
        assert all(type(t) is int for t in row)
        for l, t in enumerate(row):
            assert t == sum((-r) ** m * s1[j][m] * s2[m][l] for m in range(l, j + 1)), (j, l)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_negbinomial_first_kind_table_expands_the_product(r):
    # V(n, l): prod_{j<n} (-y - j r) = sum_l V(n, l) (y)_l, checked at n + 1
    # points y, which fixes each row of degree n
    nmax = 11
    table = closedforms._nb_connection(-1, r, nmax)
    assert all(type(v) is int for row in table for v in row)
    for y in range(nmax + 1):
        products = [1]
        for j in range(nmax):
            products.append(products[-1] * (-y - j * r))
        assert [
            sum(v * falling_factorial(y, l, 1) for l, v in enumerate(row)) for row in table
        ] == products, y


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
    # the first kind reads s1_lam(i, k) from the bucketed 30-row table
    nmax = 30
    oracle = stirling1_deg_oracle(nmax, lam)
    table = closedforms._tab("s1", lam, nmax)
    for l in range(9):
        column = tuple(table.value(m, l) if l <= m else 0 for m in range(nmax + 1))
        assert column == tuple(oracle[m][l] if l <= m else 0 for m in range(nmax + 1)), l


@pytest.mark.parametrize(
    "rv", [RandomVar.poisson(2), RandomVar.gamma(F(1, 2), 2), RandomVar.pointmass(1)],
    ids=lambda r: r.kind,
)
def test_depth_below_ten_is_rejected_for_every_distribution(rv, capsys):
    # every closed form is exact and takes no truncation depth, so closed_form
    # refuses the argument and the CLI treats --depth as malformed input
    if rv.kind != "pointmass":  # no closed forms to ask for
        with pytest.raises(TypeError, match="depth"):
            closed_form(rv, LAM, "s2", 2, 1, depth=5)
    # identity_suite still accepts depth=, for the benchmark harness, and ignores it
    assert identity_suite(rv, LAM, 2, depth=5).to_dict() == identity_suite(rv, LAM, 2).to_dict()
    spec = {"poisson": "poisson:alpha=2", "gamma": "gamma:alpha=1/2,beta=2",
            "pointmass": "pointmass:c=1"}[rv.kind]
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--rv", spec, "--lambda", "1/2", "--nmax", "2", "--depth", "5"])
    assert exc.value.code == 2
    assert "--depth" in capsys.readouterr().err


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
