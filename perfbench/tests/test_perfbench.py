"""Tests of the benchmark's own arithmetic, gates and tracer.

Kept out of the package's test run (which collects ``tests/`` only):

    python3 -m pytest perfbench/tests -q
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import probstirling as ps  # noqa: E402
import probstirling.cli  # noqa: E402,F401

import stats  # noqa: E402
from tracer import Tracer, self_times, span_names  # noqa: E402
from worker import run_pass  # noqa: E402
from workloads import (  # noqa: E402
    Lookups, Tables, VerifyGrid, _load_reference, corrupt_one_table_entry, gate_digests,
)


# -- self time ----------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and a second B [5, 7]
    names = [0, 1, 2, 1]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 7.0]
    parent = [-1, 0, 1, 0]
    own, calls = self_times(names, start, end, parent, 3)
    assert list(own) == [5.0, 4.0, 1.0]      # A: 10-3-2, B: (3-1)+2, C: 1
    assert list(calls) == [1, 2, 1]
    assert sum(own) == 10.0                   # self times tile the root span


def test_self_time_of_flat_spans_is_their_duration():
    own, calls = self_times([0, 0], [0.0, 2.0], [1.5, 2.25], [-1, -1], 1)
    assert list(own) == [1.75] and list(calls) == [2]


# -- tail percentile rule ---------------------------------------------------------

@pytest.mark.parametrize("n, p", [(31, 67), (50, 80), (100, 90), (5000, 99), (20, 50), (5, 50)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert stats.tail_percentile(n) == p


def test_tail_value_has_ten_larger_samples():
    values = list(range(1, 51))               # 50 samples
    p, value = stats.tail(values)
    assert (p, value) == (80, 40)
    assert sum(v > value for v in values) == 10


def test_quartile_spread():
    assert stats.quartile_spread([10, 10, 10, 10]) == 0
    assert stats.quartile_spread([8, 9, 10, 11, 12]) == pytest.approx(3.0 / 10)


# -- digest gates -----------------------------------------------------------------

def test_gate_digests_flags_mismatch_and_missing():
    assert gate_digests({"a": "11", "b": "22"}, {"a": "11", "b": "22"}) == {}
    bad = gate_digests({"a": "11"}, {"a": "12", "c": "33"})
    assert set(bad) == {"a", "c"}
    assert "no reference" in bad["c"]


def _only(workload, predicate):
    """Fingerprints for the ops matching `predicate`; None (skipped) elsewhere."""
    fps = [None] * len(workload.ops)
    for i, key in enumerate(workload.keys):
        if predicate(key):
            fps[i] = workload.fingerprint(i, workload.ops[i]())
    return fps


def test_tables_gate_passes_and_trips_on_a_corrupted_entry():
    tables = Tables(ps, seed=0)

    def chosen(key):
        return key.startswith("table --family prob-s2 --rv bernoulli")

    assert tables.gate(_only(tables, chosen)) == {}
    with corrupt_one_table_entry(ps):
        bad = tables.gate(_only(tables, chosen))
    assert len(bad) == 1 and "digest" in next(iter(bad.values()))
    assert tables.gate(_only(tables, chosen)) == {}   # the control is undone


def test_tables_gate_counts_a_nonzero_exit():
    tables = Tables(ps, seed=0)
    fps = [None] * len(tables.ops)
    fps[0] = (3, "", "error: boom")
    assert "exit code 3" in tables.gate(fps)[0]


def test_lookups_gate_checks_each_answer():
    lookups = Lookups(ps, seed=5)
    lookups.ops, lookups.queries = lookups.ops[:40], lookups.queries[:40]
    fps = [lookups.fingerprint(i, op()) for i, op in enumerate(lookups.ops)]
    assert lookups.gate(fps) == {}
    fps[7] = "00000000" if fps[7] != "00000000" else "11111111"
    assert list(lookups.gate(fps)) == [7]


def test_lookups_inputs_depend_only_on_the_seed():
    a, b, c = Lookups(ps, seed=3), Lookups(ps, seed=3), Lookups(ps, seed=4)
    assert a.queries == b.queries and a.queries != c.queries
    assert 0.5 < a.key_repeat_share < 0.95


def test_an_answer_of_the_wrong_type_is_a_failure_not_an_abort():
    lookups = Lookups(ps, seed=5)
    lookups.queries = lookups.queries[:30]
    lookups.keys = lookups.keys[:30]
    lookups.ops = lookups.ops[:30]
    i = next(i for i, q in enumerate(lookups.queries) if q[1] == "closed_form")
    lookups.ops[i] = lambda: 0.5                 # a float, not an exact Fraction
    result = run_pass(lookups)
    assert (result["attempted"], result["failed"]) == (30, 1)
    assert "TypeError" in result["failures"][lookups.keys[i]]


def test_a_gate_that_raises_fails_every_operation():
    tables = Tables(ps, seed=0)
    tables.ops = [lambda: (0, b"", "")] * 3
    tables.keys = tables.keys[:3]
    tables.gate = lambda fingerprints: 1 / 0
    result = run_pass(tables)
    assert (result["attempted"], result["failed"]) == (3, 3)
    assert all("ZeroDivisionError" in r for r in result["failures"].values())


def test_verify_grid_gate_on_records():
    grid = VerifyGrid(ps, seed=0)
    reference = _load_reference("verify_grid")
    good = [None] * len(grid.ops)
    last = len(grid.ops) - 1
    good[last] = [(*entry.split("|"), "pass") for entry in reference[grid.keys[last]]]
    assert grid.gate(good) == {}
    inconclusive = list(good)
    inconclusive[last] = [good[last][0][:3] + ("inconclusive",)] + good[last][1:]
    assert grid.gate(inconclusive) == {}         # counted elsewhere, not a failure
    failing = list(good)
    failing[last] = [good[last][0][:3] + ("fail",)] + good[last][1:]
    assert "fail record" in grid.gate(failing)[last]
    missing = list(good)
    missing[last] = good[last][1:]
    assert "record set differs" in grid.gate(missing)[last]


# -- tracer -----------------------------------------------------------------------

def test_tracer_reaches_aliases_and_from_imports_and_uninstalls():
    originals = (ps.special.binom, ps.closedforms.binom, ps.series.Series.__rmul__,
                 ps.series.Series.__pow__, ps.RandomVar.__dict__["poisson"])
    tracer = Tracer()
    tracer.install(ps)
    try:
        s = ps.Series([0, 1, Fraction(1, 2)])
        tracer.current_op = 7
        _ = 2 * s                                  # __rmul__ alias -> series.mul
        _ = s ** 2                                 # __pow__ alias -> series.pow
        ps.closedforms.binom(5, 2)                 # the name bound in closedforms
        ps.RandomVar.poisson(2)                    # a staticmethod constructor
        ps.closedforms.closed_form(ps.RandomVar.poisson(2), 0, "s2", 3, 1)
    finally:
        tracer.uninstall()
    assert (ps.special.binom, ps.closedforms.binom, ps.series.Series.__rmul__,
            ps.series.Series.__pow__, ps.RandomVar.__dict__["poisson"]) == originals
    m = tracer.metrics()
    assert m["series.mul.calls"] >= 1 and m["series.pow.calls"] >= 1
    assert m["special.binom.calls"] >= 1 and m["closedforms.closed_form.calls"] == 1
    assert m["closedforms.numeric_share"] == 0.0
    assert set(tracer.op) == {7}
    assert m["randomvars.self_s"] > 0 and "randomvars.param.calls" not in m
    spans = tracer.arrays()
    assert all(0 <= p < i for i, p in enumerate(spans["parent"]) if p >= 0)
    assert len(tracer.names) == len(span_names())


def test_tracer_counts_repeated_bundle_keys():
    tracer = Tracer()
    tracer.install(ps)
    try:
        rv = ps.RandomVar.bernoulli(Fraction(1, 3))
        ps.prob.bundle(rv, 0, 4)
        ps.prob.bundle(rv, Fraction(0), 4)         # same normalised key
        ps.prob.bundle(rv, 1, 4)
    finally:
        tracer.uninstall()
    assert tracer.metrics()["prob.bundle.key_repeat_share"] == pytest.approx(1 / 3)
