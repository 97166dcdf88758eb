"""The integer kernels of `Series` against plain `Fraction` loops, the
registry of memo caches, and fault injection into the kernels and into the
closed-form, inclusion-exclusion, partial-Bell, recurrence-oracle,
Lagrange-extraction, textbook-moment, `special.triangle_from_base`,
`special.deg_exp` and `special.falling_factorial` routes (the
route-independence guard on `revert` is the Lambert-W test in
`test_series.py`, and its twin on `compose` is below; `triangle_from_base`
is checked against its old `Series`-product loop in `test_special.py`).

The reference functions below are the coefficient loops `Series` ran before
its kernels moved to integer numerators over a common denominator.  They
work on tuples of `Fraction`, one gcd per product and sum, and share no code
with `probstirling.series`; every kernel must agree with them under `==`.
The degenerate logarithm `Series.log1p(lam)` must also agree with the
`Series` constructions it replaced: `special.deg_log` through `pow`,
`closedforms`' `_deg_log_of_unit` and `_deg_log_of_exp`, and
`deg_log(lam).compose(inner)`.
"""

from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probstirling import closedforms, prob, special, verify
from probstirling import series as series_module
from probstirling.randomvars import RandomVar, builtin_random_vars
from probstirling.series import Series, cache_stats, clear_caches
from probstirling.verify import DEFAULT_LAMBDA_GRID, identity_suite

_ZERO, _ONE = F(0), F(1)


# -- reference Fraction loops ----------------------------------------------------

def ref_mul(a, b):
    n = len(a) - 1
    out = [_ZERO] * (n + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(n - i + 1):
            if b[j]:
                out[i + j] += ai * b[j]
    return tuple(out)


def ref_div(f, g):
    n = len(f) - 1
    inv_g0 = _ONE / g[0]
    q = [_ZERO] * (n + 1)
    for m in range(n + 1):
        acc = f[m]
        for i in range(m):
            if q[i] and g[m - i]:
                acc -= q[i] * g[m - i]
        q[m] = acc * inv_g0
    return tuple(q)


def ref_exp(f):
    n_max = len(f) - 1
    e = [_ONE] + [_ZERO] * n_max
    for n in range(1, n_max + 1):
        acc = _ZERO
        for j in range(1, n + 1):
            if f[j] and e[n - j]:
                acc += j * f[j] * e[n - j]
        e[n] = acc / n
    return tuple(e)


def ref_log1p(f):
    n_max = len(f) - 1
    out = [_ZERO] * (n_max + 1)
    for n in range(1, n_max + 1):
        acc = _ZERO
        for k in range(1, n):
            if out[k] and f[n - k]:
                acc += k * out[k] * f[n - k]
        out[n] = f[n] - acc / n
    return tuple(out)


def ref_pow(f, g):
    n_max = len(f) - 1
    if f[0] == 0:  # nonnegative integer power of a series with zero constant
        if g == 0:
            return (_ONE,) + (_ZERO,) * n_max
        val = next((i for i, c in enumerate(f) if c), None)
        if val is None or val * g > n_max:
            return (_ZERO,) * (n_max + 1)
        powered = ref_pow(f[val:], g)[: n_max - val * g + 1]
        return (_ZERO,) * (val * g) + powered
    p0 = f[0] ** g if g.denominator == 1 else _ONE
    out = [_ZERO] * (n_max + 1)
    out[0] = p0
    inv_f0 = _ONE / f[0]
    for n in range(1, n_max + 1):
        acc = _ZERO
        for m in range(1, n + 1):
            if f[m] and out[n - m]:
                acc += g * m * f[m] * out[n - m]
        for m in range(1, n):
            if out[m] and f[n - m]:
                acc -= m * out[m] * f[n - m]
        out[n] = acc * inv_f0 / n
    return tuple(out)


def ref_compose(f, g):
    n = len(f) - 1
    out = [f[0]] + [_ZERO] * n
    val = next((i for i, c in enumerate(g) if c), n + 1)
    power = (_ONE,) + (_ZERO,) * n
    for k in range(1, n // val + 1):
        power = ref_mul(power, g)
        if f[k]:
            for m in range(k * val, n + 1):
                if power[m]:
                    out[m] += f[k] * power[m]
    return tuple(out)


def ref_revert(f):
    n_max = len(f) - 1
    inv_f1 = _ONE / f[1]
    h = [_ZERO] * (n_max + 1)
    h[1] = inv_f1
    pw = [None, h] + [[_ZERO] * (n_max + 1) for _ in range(2, n_max + 1)]
    for n in range(2, n_max + 1):
        acc = _ZERO
        for k in range(2, n + 1):
            prev = pw[k - 1]
            s = _ZERO
            for i in range(1, n - k + 2):
                if h[i] and prev[n - i]:
                    s += h[i] * prev[n - i]
            pw[k][n] = s
            if f[k] and s:
                acc += f[k] * s
        h[n] = -acc * inv_f1
    return tuple(h)


def ref_deg_log1p(f, lam):
    """log_lam(1 + f) = ((1 + f)**lam - 1) / lam on the loops above."""
    if lam == 0:
        return ref_log1p(f)
    powered = ref_pow((_ONE,) + tuple(f[1:]), lam)
    return (_ZERO,) + tuple(c / lam for c in powered[1:])


# -- the degenerate logarithms `Series.log1p(lam)` replaced ------------------------

def old_deg_log(lam, order):
    """`special.deg_log` before it called `log1p(lam)`."""
    t, one = Series.t(order), Series.one(order)
    if lam == 0:
        return t.log1p()
    return ((one + t).pow(lam) - one) / lam


def old_deg_log_of_exp(exponent, lam):
    """log_lam(e^A) for a delta exponent A: (e^{lam A} - 1)/lam, or A itself."""
    if lam == 0:
        return exponent
    return (exponent.scale(lam).exp() - Series.one(exponent.order)) / lam


def old_deg_log_of_unit(r, lam):
    """log_lam of a series with unit constant term: (r**lam - 1)/lam."""
    one = Series.one(r.order)
    if lam == 0:
        return (r - one).log1p()
    return (r.pow(lam) - one) / lam


def old_log_series(rv, lam, order):
    """`closedforms._log_series` on the three constructions above."""
    kind = rv.kind
    one, t = Series.one(order), Series.t(order)
    if kind == "bernoulli":
        return old_deg_log(lam, order).compose(t.scale(1 / rv.param("p")))
    if kind == "binomial":
        m, p = rv.param("m"), rv.param("p")
        inner = ((one + t).pow(1 / m) - one).scale(1 / p)
        return old_deg_log(lam, order).compose(inner)
    if kind == "poisson":
        return old_deg_log(lam, order).compose(t.log1p().scale(1 / rv.param("alpha")))
    if kind == "exponential":
        exponent = (t * (one + t).pow(-1)).scale(rv.param("alpha"))
        return old_deg_log_of_exp(exponent, lam)
    if kind == "gamma":
        alpha, beta = rv.param("alpha"), rv.param("beta")
        return old_deg_log_of_exp((one - (one + t).pow(-1 / alpha)).scale(beta), lam)
    if kind == "geometric":
        return old_deg_log_of_unit((one + t) / (one + t.scale(1 - rv.param("p"))), lam)
    r, p = int(rv.param("r")), rv.param("p")
    ratio = (one - (one + t).pow(F(-1, r)).scale(p)).scale(1 / (1 - p))
    return old_deg_log_of_unit(ratio, lam)


# -- strategies --------------------------------------------------------------------

# about a third of the coefficients are zero, so the kernels' zero handling
# and lcm bookkeeping see sparse series as well as dense ones
coefficient = st.one_of(
    st.just(_ZERO),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)
orders = st.sampled_from([0, 1, 2, 3, 5, 9, 14])


def coefficient_lists(order, constant=None, linear=None, valuation=0):
    """order + 1 coefficients; `constant`/`linear` fix c0/c1 when given,
    and the first `valuation` coefficients are zero."""
    def build(cs):
        cs = list(cs)
        for i in range(min(valuation, order + 1)):
            cs[i] = _ZERO
        if constant is not None:
            cs[0] = constant
        if linear is not None and order >= 1:
            cs[1] = linear
        return tuple(cs)
    return st.lists(coefficient, min_size=order + 1, max_size=order + 1).map(build)


def pairs():
    return orders.flatmap(
        lambda n: st.tuples(coefficient_lists(n), coefficient_lists(n))
    )


nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)


# -- kernels == reference --------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(pairs())
def test_mul_matches_reference(ab):
    a, b = ab
    assert (Series(a) * Series(b)).coeffs == ref_mul(a, b)


@settings(max_examples=80, deadline=None)
@given(orders.flatmap(lambda n: st.tuples(
    coefficient_lists(n), nonzero.flatmap(lambda c: coefficient_lists(n, constant=c)))))
def test_div_matches_reference(fg):
    f, g = fg
    assert (Series(f) / Series(g)).coeffs == ref_div(f, g)


@settings(max_examples=60, deadline=None)
@given(orders.flatmap(lambda n: coefficient_lists(n, constant=_ZERO)))
def test_exp_and_log1p_match_reference(f):
    assert Series(f).exp().coeffs == ref_exp(f)
    assert Series(f).log1p().coeffs == ref_log1p(f)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 14).flatmap(lambda n: coefficient_lists(n, constant=_ZERO)),
    st.one_of(
        st.sampled_from([_ZERO, _ONE, F(1, 2), F(-1, 3), F(2), F(7, 5), F(-3)]),
        st.fractions(min_value=-5, max_value=5, max_denominator=9),
    ),
)
def test_degenerate_log1p_matches_the_constructions_it_replaced(f, lam):
    s = Series(f)
    one = Series.one(s.order)
    y = s.log1p(lam)
    assert y.coeffs == ref_deg_log1p(f, lam)
    assert y == old_deg_log_of_unit(one + s, lam)
    assert y == old_deg_log(lam, s.order).compose(s)
    assert (s.exp() - one).log1p(lam) == old_deg_log_of_exp(s, lam)


def test_degenerate_log1p_refuses_a_float_lam():
    with pytest.raises(TypeError):
        Series.t(4).log1p(0.5)


@pytest.mark.parametrize("lam", DEFAULT_LAMBDA_GRID)
def test_closed_form_logs_match_the_constructions_they_replaced(lam):
    kinds = {rv.kind: rv for rv in builtin_random_vars()}
    for kind in ("bernoulli", "binomial", "poisson", "exponential", "gamma",
                 "geometric", "negbinomial"):
        for order in (8, 16):
            expected = old_log_series(kinds[kind], lam, order)
            assert closedforms._log_series(kinds[kind], lam, order) == expected, kind


@settings(max_examples=80, deadline=None)
@given(
    orders.flatmap(lambda n: nonzero.flatmap(lambda c: coefficient_lists(n, constant=c))),
    st.integers(min_value=-5, max_value=5),
)
def test_integer_pow_with_any_nonzero_constant_matches_reference(f, g):
    # f0 != 1 in general, and negative exponents included
    assert Series(f).pow(g).coeffs == ref_pow(f, F(g))


@settings(max_examples=80, deadline=None)
@given(
    orders.flatmap(lambda n: coefficient_lists(n, constant=_ONE)),
    st.fractions(min_value=-7, max_value=7, max_denominator=6),
)
def test_rational_pow_matches_reference(f, g):
    assert Series(f).pow(g).coeffs == ref_pow(f, g)


@settings(max_examples=40, deadline=None)
@given(
    orders.flatmap(lambda n: st.integers(1, 2).flatmap(
        lambda v: coefficient_lists(n, constant=_ZERO, valuation=v))),
    st.integers(min_value=0, max_value=4),
)
def test_integer_pow_of_zero_constant_matches_reference(f, g):
    assert Series(f).pow(g).coeffs == ref_pow(f, g)


@settings(max_examples=60, deadline=None)
@given(orders.flatmap(lambda n: st.tuples(
    coefficient_lists(n),
    st.integers(1, 3).flatmap(lambda v: coefficient_lists(n, constant=_ZERO, valuation=v)),
)))
def test_compose_matches_reference(fg):
    # inner valuations 1 to 3, and the zero inner series
    f, g = fg
    assert Series(f).compose(Series(g)).coeffs == ref_compose(f, g)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 2, 3, 5, 9, 14]).flatmap(
    lambda n: nonzero.flatmap(lambda c1: coefficient_lists(n, constant=_ZERO, linear=c1))))
def test_revert_matches_reference(f):
    assert Series(f).revert().coeffs == ref_revert(f)


def test_kernels_at_order_zero():
    c = Series([F(-3, 4)])
    assert (c * c).coeffs == (F(9, 16),)
    assert (c / c).coeffs == (_ONE,)
    assert c.pow(-3).coeffs == (F(-64, 27),)
    assert Series([_ZERO]).exp().coeffs == (_ONE,)
    assert Series([_ZERO]).log1p().coeffs == (_ZERO,)
    assert c.compose(Series([_ZERO])).coeffs == (F(-3, 4),)


def test_kernels_match_reference_on_engine_series_at_order_30():
    b = prob.bundle(RandomVar.gamma(F(3, 2), 2), F(-1, 3), 30)
    m, delta, h = b.mgf.coeffs, b.delta.coeffs, b.reverted.coeffs
    assert h == ref_revert(delta)
    assert (b.mgf * b.reverted).coeffs == ref_mul(m, h)
    assert (Series.one(30) / b.mgf).coeffs == ref_div((_ONE,) + (_ZERO,) * 30, m)
    assert b.mgf.pow(F(-5, 2)).coeffs == ref_pow(m, F(-5, 2))
    assert b.reverted.exp().coeffs == ref_exp(h)
    assert b.reverted.log1p().coeffs == ref_log1p(h)
    assert b.delta.compose(b.reverted).coeffs == ref_compose(delta, h)


def test_compose_at_order_30_uses_no_route_it_is_checked_with(monkeypatch):
    # the twin of test_revert_lambert_w_at_order_30: the round trip
    # compose(delta, revert(delta)) = t checks revert, so compose must build
    # its powers on its own, not through __mul__, pow or the triangles
    b = prob.bundle(RandomVar.gamma(F(3, 2), 2), F(-1, 3), 30)

    def refuse(*args, **kwargs):
        raise AssertionError("compose must not use this route")

    for name in ("__mul__", "__rmul__", "revert", "pow"):
        monkeypatch.setattr(Series, name, refuse)
    monkeypatch.setattr(series_module, "lagrange_extract", refuse)
    monkeypatch.setattr(special, "triangle_from_base", refuse)
    composed = b.delta.compose(b.reverted)
    assert composed.coeffs == ref_compose(b.delta.coeffs, b.reverted.coeffs)
    assert composed == Series.t(30)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: nonzero.flatmap(lambda c1: coefficient_lists(n, constant=_ZERO, linear=c1))))
def test_revert_matches_lagrange_extraction(f):
    # two independent routes to the compositional inverse
    s = Series(f)
    h = s.revert()
    for n in range(1, s.order + 1):
        assert series_module.lagrange_extract(None, s, n, None, "C") == h.coeff(n)


# -- safety net ------------------------------------------------------------------------

MODULE_CACHES = {
    "probstirling.closedforms._a2_values", "probstirling.closedforms._alt_difference",
    "probstirling.closedforms._deg_log_power", "probstirling.closedforms._deg_s1_column",
    "probstirling.closedforms._falling_column", "probstirling.closedforms._log_series",
    "probstirling.closedforms._nb_connection", "probstirling.closedforms._nb_s1_inners",
    "probstirling.closedforms._nb_s1_signed", "probstirling.closedforms._nb_s2_weights",
    "probstirling.closedforms._normal_w", "probstirling.closedforms._uni_m",
    "probstirling.closedforms._uni_t",
    "probstirling.prob._mgf_power", "probstirling.prob.bundle",
    "probstirling.prob.mgf_deg", "probstirling.prob.prob_triangle",
    "probstirling.special.deg_exp", "probstirling.special.frobenius_euler",
    "probstirling.special.log_deg_exp", "probstirling.special.triangle",
    "probstirling.verify._double_sum_weights", "probstirling.verify._lam_only_records",
    "probstirling.verify.stirling1_deg_oracle", "probstirling.verify.stirling2_oracle",
    "probstirling.verify.sum_power_moment",
}


def test_every_module_cache_is_bounded():
    stats = cache_stats()
    assert set(stats) == MODULE_CACHES
    assert {info.maxsize for info in stats.values()} == {series_module.CACHE_BOUND}
    # every other cache would sit outside the registry
    sources = Path(series_module.__file__).parent.glob("*.py")
    assert [p.name for p in sources if "lru_cache" in p.read_text()] == ["series.py"]


def bump_top(s):
    """The same series with its top coefficient raised by 1/7."""
    cs = list(s.coeffs)
    cs[-1] += F(1, 7)
    return Series(cs)


def faulty_scaled(coeffs):
    ints, d = _real_scaled(coeffs)
    return [7 * x for x in ints[:-1]] + [7 * ints[-1] + d], 7 * d


_real_scaled = series_module._scaled


def faulty_method(name):
    real = getattr(Series, name)

    def perturbed(self, *args, **kwargs):
        result = real(self, *args, **kwargs)
        return bump_top(result) if isinstance(result, Series) else result
    return perturbed


# route -> what identity_suite(poisson(2), 1/2, 4) and limit_suite(4) do with
# that route's top output raised by 1/7 (every value, for the scalar routes
# closed_form, lagrange_extract, moment_oracle and falling_factorial): the
# bundle's round trip
# compose(delta, revert(delta)) = t raises in both, or these records fail
# (identity_suite's, limit_suite's)
ROUND_TRIP = "round-trip assertion"
ROUTE_OUTCOMES = {
    "_scaled": ROUND_TRIP,
    # compose builds its powers without __mul__, so a product fault no longer
    # reaches the round trip; the normal mgf's log_e * log_e is the last
    # series product in these suites, and prob-classical-limit's
    # inclusion-exclusion side multiplies no series
    "__mul__": (frozenset(), frozenset({"prob-classical-limit"})),
    "revert": ROUND_TRIP,
    # the round trip is compose's one caller in the package
    "compose": ROUND_TRIP,
    "pow": (
        frozenset({
            "bernoulli-double-sum", "bernoulli-from-shifted-bell",
            "cauchy-bernoulli-ratio", "cauchy-from-first-kind",
            "daehee-bernoulli-ratio", "daehee-from-first-kind",
            "first-kind-order-bridge", "mgf-vs-moments",
            "rising-second-kind-four-way", "second-kind-cauchy-bridge",
            "second-kind-three-way", "shifted-bell-vs-second-kind",
        }),
        frozenset({"prob-classical-limit"}),
    ),
    # deg_log and the closed-form logs run on log1p; closed-form-log reads
    # the order-8 log series for n <= 4 only, so a fault in its top
    # coefficient never reaches that record
    "log1p": (
        frozenset({
            "first-kind-order-bridge", "second-kind-cauchy-bridge", "triangle-connections",
        }),
        frozenset({
            "classical-s1-table", "deg-s1-recurrence", "pointmass-reduction",
            "rising-inverse-limit-zero",
        }),
    ),
    "closed_form": (
        frozenset({"closed-form-s1", "closed-form-s2", "closed-form-log"}),
        frozenset(),
    ),
    "_incl_excl_row": (
        frozenset({"rising-second-kind-four-way", "second-kind-three-way"}),
        frozenset({"deg-s2-incl-excl", "prob-classical-limit", "rising-incl-excl"}),
    ),
    # the recurrence, inclusion-exclusion and closed-form oracles
    # (closed-form-s1, deg-s1-recurrence, deg-s2-incl-excl, lah-closed-form)
    # never call triangle_from_base
    "triangle_from_base": (
        frozenset({
            "cauchy-from-first-kind", "closed-form-s1", "daehee-from-first-kind",
            "first-kind-order-bridge", "first-kind-three-way", "inversion-columns",
            "inversion-rows", "orthogonality-left", "orthogonality-right",
            "rising-first-kind-multi-way", "rising-second-kind-four-way",
            "schlomilch", "schlomilch-rising", "second-kind-cauchy-bridge",
            "triangle-connections",
        }),
        frozenset({
            "classical-s1-table", "classical-s2-table", "deg-s1-recurrence",
            "deg-s2-incl-excl", "lah-closed-form", "prob-classical-limit",
            "rising-incl-excl", "rising-inverse-limit-zero", "rising-limit-one-lah",
            "rising-limit-zero",
        }),
    ),
    "bell_triangle": (
        frozenset({
            "bernoulli-from-shifted-bell", "first-kind-three-way",
            "rising-first-kind-multi-way", "rising-second-kind-four-way",
            "second-kind-three-way", "shifted-bell-vs-second-kind",
        }),
        frozenset(),
    ),
    "_recurrence_table": (
        frozenset({"mgf-vs-moments", "triangle-connections"}),
        frozenset({
            "classical-s1-table", "classical-s2-table", "deg-s1-recurrence",
            "prob-classical-limit", "rising-inverse-limit-zero", "rising-limit-zero",
        }),
    ),
    # the closed forms and the inclusion-exclusion oracle never call deg_exp
    "deg_exp": (
        frozenset({
            "bernoulli-double-sum", "bernoulli-from-shifted-bell",
            "cauchy-from-first-kind", "closed-form-log", "closed-form-s1",
            "daehee-from-first-kind", "first-kind-order-bridge", "first-kind-three-way",
            "log-from-second-kind", "mgf-vs-moments", "rising-first-kind-multi-way",
            "rising-second-kind-four-way", "schlomilch", "schlomilch-rising",
            "second-kind-cauchy-bridge", "second-kind-three-way",
            "shifted-bell-vs-second-kind", "triangle-connections",
        }),
        frozenset({
            "classical-s2-table", "deg-s2-incl-excl", "pointmass-reduction",
            "prob-classical-limit", "rising-incl-excl", "rising-limit-one-lah",
            "rising-limit-zero",
        }),
    ),
    # first-kind-order-bridge, lagrange_extract's one caller, compares it
    # with the first-kind triangle
    "lagrange_extract": (frozenset({"first-kind-order-bridge"}), frozenset()),
    # the textbook moments against the engine's falling moments, and (through
    # sum_power_moment) the inclusion-exclusion side of the lam = 0 limit
    "moment_oracle": (frozenset({"mgf-vs-moments"}), frozenset({"prob-classical-limit"})),
    # the engine never calls falling_factorial; at poisson(2) only these
    # oracles read it: the shifted-Bell moments, inclusion-exclusion and the
    # step-one check
    "falling_factorial": (
        frozenset({"bernoulli-from-shifted-bell"}),
        frozenset({"deg-s2-incl-excl", "falling-step-one", "prob-classical-limit"}),
    ),
}

_real_closed_form = verify.closed_form
_real_incl_excl_row = verify._incl_excl_row
_real_recurrence_table = verify._recurrence_table


def faulty_closed_form(*args):
    # every poisson closed form is an exact Fraction, one value per call
    return _real_closed_form(*args) + F(1, 7)


def faulty_incl_excl_row(values):
    row = list(_real_incl_excl_row(values))
    row[-1] += F(1, 7)
    return tuple(row)


def bump_last_entry(rows):
    rows = [list(row) for row in rows]
    rows[-1][-1] += F(1, 7)
    return tuple(map(tuple, rows))


def faulty_recurrence_table(*args):
    return bump_last_entry(_real_recurrence_table(*args))


def faulty_triangle(real):
    def perturbed(*args, **kwargs):
        table = real(*args, **kwargs)
        return replace(table, rows=bump_last_entry(table.rows))
    return perturbed


_real_deg_exp = special.deg_exp
_real_falling_factorial = special.falling_factorial
_real_lagrange_extract = verify.lagrange_extract
_real_moment_oracle = verify.moment_oracle


def faulty_deg_exp(lam, x, order):
    series = _real_deg_exp(lam, x, order)
    return bump_top(series) if order >= 1 else series


def faulty_falling_factorial(*args):
    return _real_falling_factorial(*args) + F(1, 7)


def faulty_lagrange_extract(*args):
    return _real_lagrange_extract(*args) + F(1, 7)


def faulty_moment_oracle(*args):
    return _real_moment_oracle(*args) + F(1, 7)


# route -> (its fault, every module that binds the route by name)
NAMED_FAULTS = {
    "closed_form": (faulty_closed_form, (verify,)),
    "_incl_excl_row": (faulty_incl_excl_row, (verify,)),
    "bell_triangle": (faulty_triangle(verify.bell_triangle), (verify,)),
    "_recurrence_table": (faulty_recurrence_table, (verify,)),
    "triangle_from_base": (faulty_triangle(special.triangle_from_base),
                           (special, prob, verify)),
    "deg_exp": (faulty_deg_exp, (special, prob, verify)),
    "falling_factorial": (faulty_falling_factorial, (special, verify, closedforms)),
    "lagrange_extract": (faulty_lagrange_extract, (verify,)),
    "moment_oracle": (faulty_moment_oracle, (verify,)),
}


def failed_identities(report):
    return {r.identity for r in report.records if r.status == "fail"}


@pytest.mark.parametrize("route", sorted(ROUTE_OUTCOMES))
def test_fault_in_a_kernel_is_caught(route, monkeypatch):
    clear_caches()
    try:
        if route == "_scaled":
            monkeypatch.setattr(series_module, "_scaled", faulty_scaled)
        elif route in NAMED_FAULTS:
            fault, modules = NAMED_FAULTS[route]
            for module in modules:
                monkeypatch.setattr(module, route, fault)
        else:
            monkeypatch.setattr(Series, route, faulty_method(route))
        suites = (
            lambda: identity_suite(RandomVar.poisson(2), F(1, 2), 4),
            lambda: verify.limit_suite(4),
        )
        expected = ROUTE_OUTCOMES[route]
        if expected == ROUND_TRIP:
            for suite in suites:
                with pytest.raises(AssertionError, match="reversion failed to invert"):
                    suite()
        else:
            assert [failed_identities(suite()) for suite in suites] == list(expected)
    finally:
        monkeypatch.undo()
        clear_caches()
