"""Command-line surface: parsing, serialization, exit codes, reproducibility."""

import hashlib
import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probstirling import cli
from probstirling.cli import main, parse_rational, parse_rv
from probstirling.prob import prob_log
from probstirling.randomvars import RandomVar, builtin_random_vars
from probstirling.special import triangle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsing -----------------------------------------------------------------------

def test_parse_rational_round_trip():
    for text in ("3", "-6", "1/2", "-22/7"):
        value = parse_rational(text)
        assert parse_rational(str(value)) == value


def test_parse_rv_specs():
    assert parse_rv("bernoulli:p=1/2") == RandomVar.bernoulli(F(1, 2))
    assert parse_rv("uniform01") == RandomVar.uniform01()
    assert parse_rv("normal:mu=1,sigma2=2") == RandomVar.normal(1, 2)
    custom = parse_rv("custom:moments=1,1/2,1/3")
    assert custom.moments == (F(1), F(1, 2), F(1, 3))
    with pytest.raises(ValueError):
        parse_rv("bernoulli:q=1/2")
    with pytest.raises(ValueError):
        parse_rv("mystery:p=1")


def test_parse_rv_round_trips_every_builtin():
    for rv in builtin_random_vars():
        spec = rv.kind + ":" + ",".join(f"{k}={v}" for k, v in rv.params)
        assert parse_rv(spec) == rv


@pytest.mark.parametrize("spec, message", [
    ("poisson", "poisson takes parameters ('alpha',), got ()"),
    ("gamma:alpha=1/2", "gamma takes parameters ('alpha', 'beta'), got ('alpha',)"),
    ("uniform01:c=1", "uniform01 takes parameters (), got ('c',)"),
    ("pointmass:c=1,d=2", "pointmass takes parameters ('c',), got ('c', 'd')"),
    ("normal:mu=1,sigma2", "malformed parameter 'sigma2' in rv spec"),
    ("bernoulli:p=x", "not a rational number: 'x'"),
    ("binomial:m=3/2,p=1/2", "parameter m must be an integer, got 3/2"),
    ("negbinomial:r=1/2,p=1/2", "parameter r must be an integer, got 1/2"),
    ("mystery:p=1", "unknown random variable 'mystery'"),
    ("mean", "unknown random variable 'mean'"),
    ("mystery:p", "malformed parameter 'p' in rv spec"),
])
def test_bad_rv_spec_exits_2(capsys, spec, message):
    code, out, err = run(
        capsys, "table", "--family", "prob-s2", "--rv", spec, "--nmax", "1",
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# -- table command ------------------------------------------------------------------

def test_table_first_kind_row(capsys):
    code, out, _ = run(capsys, "table", "--family", "s1", "--nmax", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "s1"
    assert [4, 1, "-6"] in payload["entries"]


def test_table_prob_second_kind_scaling(capsys):
    code, out, _ = run(
        capsys, "table", "--family", "prob-s2", "--rv", "bernoulli:p=1/2",
        "--lambda", "1/3", "--nmax", "6",
    )
    assert code == 0
    payload = json.loads(out)
    det = triangle("s2", F(1, 3), 6)
    for n, k, text in payload["entries"]:
        assert F(text) == F(1, 2) ** k * det.value(n, k)


def test_table_nmax_zero(capsys):
    code, out, _ = run(capsys, "table", "--family", "s2", "--nmax", "0")
    assert code == 0
    assert json.loads(out)["entries"] == [[0, 0, "1"]]


def test_table_csv_format(capsys):
    code, out, _ = run(
        capsys, "table", "--family", "lah", "--nmax", "4", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,value"
    assert "4,2,36" in lines


@pytest.mark.parametrize("family", ["s1", "prob-s1"])
def test_table_negative_nmax_is_domain_error(capsys, family):
    code, out, err = run(
        capsys, "table", "--family", family, "--rv", "poisson:alpha=2",
        "--nmax", "-1",
    )
    assert code == 3
    assert out == ""
    assert "nmax must be >= 0" in err


def test_table_unknown_family_is_domain_error(capsys):
    code, _, err = run(capsys, "table", "--family", "nope", "--nmax", "2")
    assert code == 3
    assert "unknown table family" in err


class WorkStarted(Exception):
    """Raised by a stub in place of the function that would do the work."""


def start_work(*args, **kwargs):
    raise WorkStarted


@pytest.fixture
def no_work(monkeypatch):
    for name in ("triangle", "prob_triangle", "prob_log", "prob_order_numbers"):
        monkeypatch.setattr(cli, name, start_work)


@pytest.mark.parametrize("argv, message", [
    (["table", "--family", "prob-g", "--rv", "gamma:alpha=3/7,beta=2", "--nmax"],
     "--nmax must be <= 150, got 151"),
    (["series", "--kind", "cauchy", "--rv", "poisson:alpha=2", "--order"],
     "--order must be <= 150, got 151"),
])
def test_sizes_past_the_cap_exit_2_before_any_work(capsys, no_work, argv, message):
    assert cli.MAX_ORDER == 150
    code, out, err = run(capsys, *argv, str(cli.MAX_ORDER + 1))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    # the cap itself is allowed: the stub runs
    with pytest.raises(WorkStarted):
        main([*argv, str(cli.MAX_ORDER)])


def test_order_variable_past_the_cap_exits_2_before_any_work(capsys, no_work, monkeypatch):
    argv = ("series", "--kind", "prob-log", "--rv", "poisson:alpha=2")
    monkeypatch.setenv("PROBSTIRLING_ORDER", str(cli.MAX_ORDER + 1))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: PROBSTIRLING_ORDER must be <= 150, got 151\n"
    monkeypatch.setenv("PROBSTIRLING_ORDER", str(cli.MAX_ORDER))
    with pytest.raises(WorkStarted):
        main(list(argv))


# -- series command --------------------------------------------------------------------

def test_series_prob_log_poisson(capsys):
    code, out, _ = run(
        capsys, "series", "--kind", "prob-log", "--rv", "poisson:alpha=2",
        "--lambda", "0", "--order", "6",
    )
    assert code == 0
    payload = json.loads(out)
    expected = prob_log(RandomVar.poisson(2), 0, 6)
    assert payload["egf_coefficients"] == [
        [n, str(expected.egf(n))] for n in range(7)
    ]


def test_series_daehee_values(capsys):
    code, out, _ = run(
        capsys, "series", "--kind", "daehee", "--rv", "pointmass:c=1",
        "--lambda", "0", "--gamma", "1", "--order", "5", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[1:3] == ["0,1", "1,-1/2"]


def test_series_order_zero_constant_term(capsys):
    # unit constant term for a unit-mean variable ...
    for kind in ("daehee", "cauchy"):
        code, out, _ = run(
            capsys, "series", "--kind", kind, "--rv", "pointmass:c=1",
            "--lambda", "1/2", "--order", "0",
        )
        assert code == 0
        assert json.loads(out)["egf_coefficients"] == [[0, "1"]]
    # ... and E[Y]**(-gamma) / E[Y]**gamma in general
    code, out, _ = run(
        capsys, "series", "--kind", "daehee", "--rv", "poisson:alpha=2",
        "--lambda", "1/2", "--order", "0",
    )
    assert json.loads(out)["egf_coefficients"] == [[0, "1/2"]]
    code, out, _ = run(
        capsys, "series", "--kind", "cauchy", "--rv", "poisson:alpha=2",
        "--lambda", "1/2", "--order", "0",
    )
    assert json.loads(out)["egf_coefficients"] == [[0, "2"]]


def test_series_prob_log_order_zero(capsys):
    # the order-0 logarithm is read off the order-1 inverse: its constant is 0
    code, out, _ = run(
        capsys, "series", "--kind", "prob-log", "--rv", "poisson:alpha=2",
        "--order", "0",
    )
    assert code == 0
    assert json.loads(out)["egf_coefficients"] == [[0, "0"]]
    assert prob_log(RandomVar.poisson(2), 0, 0).coeffs == (F(0),)


def test_series_prob_log_order_zero_zero_mean_exits_3(capsys):
    code, out, err = run(
        capsys, "series", "--kind", "prob-log", "--rv", "custom:moments=1,0,1",
        "--order", "0",
    )
    assert code == 3
    assert out == ""
    assert "E[Y] = 0" in err


def test_series_order_env_default(capsys, monkeypatch):
    monkeypatch.setenv("PROBSTIRLING_ORDER", "5")
    code, out, _ = run(
        capsys, "series", "--kind", "prob-log", "--rv", "bernoulli:p=1/2",
        "--lambda", "0",
    )
    assert code == 0
    assert json.loads(out)["order"] == 5


@pytest.mark.parametrize("kind", ["prob-log", "bernoulli", "daehee", "cauchy"])
def test_series_negative_order_exits_2(capsys, kind):
    code, out, err = run(
        capsys, "series", "--kind", kind, "--rv", "poisson:alpha=2", "--order", "-1",
    )
    assert code == 2
    assert out == ""
    assert "--order must be >= 0" in err


def test_series_malformed_rational_exits_2(capsys):
    code, _, err = run(
        capsys, "series", "--kind", "daehee", "--rv", "pointmass:c=1",
        "--gamma", "abc", "--order", "3",
    )
    assert code == 2
    assert "not a rational" in err


# -- verify command -------------------------------------------------------------------

def test_verify_geometric_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--rv", "geometric:p=1/3", "--lambda", "1/2",
        "--nmax", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["failed"] is False
    assert all(r["status"] != "fail" for r in payload["records"])


def test_verify_zero_mean_custom_is_domain_error(capsys):
    code, _, err = run(
        capsys, "verify", "--rv", "custom:moments=1,0,1,0,2,0,9,0,40,0,200",
        "--lambda", "0", "--nmax", "3",
    )
    assert code == 3
    assert "E[Y]" in err


def test_verify_requires_an_rv(capsys):
    code, _, err = run(capsys, "verify", "--nmax", "3")
    assert code == 2


def test_verify_non_integer_gamma_is_domain_error(capsys):
    code, out, err = run(
        capsys, "verify", "--rv", "poisson:alpha=2", "--lambda", "1/2",
        "--nmax", "3", "--gammas", "1/2",
    )
    assert code == 3
    assert out == ""
    assert "integer" in err


@pytest.mark.parametrize("nmax", ["0", "-1"])
def test_verify_nmax_below_one_is_domain_error(capsys, nmax):
    code, out, err = run(
        capsys, "verify", "--rv", "poisson:alpha=2", "--lambda", "1/2",
        "--nmax", nmax,
    )
    assert code == 3
    assert out == ""
    assert "nmax must be >= 1" in err


def test_verify_all_builtin_report_shape(capsys):
    code, out, _ = run(
        capsys, "verify", "--all-builtin", "--lambda", "1/2", "--nmax", "3",
        "--depth", "60",
    )
    assert code == 0
    payload = json.loads(out)
    rvs = {r["rv"] for r in payload["records"]}
    assert len(rvs) >= 10  # every builtin appears (plus suite-internal tags)


def test_verify_lambda_half_output_is_pinned(capsys):
    # pins record order and multiplicity, which a multiset comparison misses
    code, out, _ = run(
        capsys, "verify", "--all-builtin", "--lambda", "1/2", "--nmax", "4",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c750eb9d50cfae8e62c2667bc00b3766936c17faba9cfe584c701197727d58af"
    )


# -- mc command -----------------------------------------------------------------------

def test_mc_within_band(capsys):
    code, out, _ = run(
        capsys, "mc", "--rv", "poisson:alpha=2", "--lambda", "1/2",
        "--n", "3", "--j", "2", "--samples", "50000", "--seed", "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(float(payload["z"])) <= 5
    assert F(payload["exact"]) == F(88)


def test_mc_unsamplable_exits_3(capsys):
    code, _, err = run(
        capsys, "mc", "--rv", "custom:moments=1,1,2", "--n", "1", "--j", "1",
        "--samples", "1000", "--seed", "1",
    )
    assert code == 3
    assert "not samplable" in err


def test_mc_refuses_samples_past_the_cap(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("mc_check ran past the --samples cap")
    monkeypatch.setattr(cli, "mc_check", refuse)
    code, out, err = run(
        capsys, "mc", "--rv", "poisson:alpha=2", "--n", "1", "--j", "1",
        "--samples", str(cli.MAX_SAMPLES + 1),
    )
    assert (code, out) == (2, "")
    assert "--samples must be <= 10000000, got 10000001" in err


def test_mc_byte_identical_reruns(capsys):
    # negative rationals need the --flag=value spelling under argparse
    args = (
        "mc", "--rv", "normal:mu=1,sigma2=1", "--lambda=-1/3",
        "--n", "2", "--j", "1", "--samples", "20000", "--seed", "9",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_output_file(tmp_path, capsys):
    target = tmp_path / "triangle.json"
    code, out, _ = run(
        capsys, "table", "--family", "s2", "--nmax", "3", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["nmax"] == 3


# -- the JSON writer and the reused parser -----------------------------------------------

def old_emit_json(payload, output):
    """The writer the CLI used before `_json_text`: the reference bytes."""
    cli._emit(json.dumps(payload, indent=2) + "\n", output)


# keys and strings with quotes, backslashes, control and non-ASCII characters
json_text = st.text(st.sampled_from('a/"\\\n\t\x00\x1f\x7fé€\U0001f600') | st.characters())
json_scalars = (
    st.none() | st.booleans() | st.floats()
    | st.integers(min_value=-10**40, max_value=10**40) | json_text
)
json_trees = st.recursive(
    json_scalars,
    lambda children: (st.lists(children, max_size=5)
                      | st.tuples(children, children)
                      | st.dictionaries(json_text, children, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(json_trees)
@example({"": {}, "e\u00e9\"\\\n": [], "rows": [[0, -10**30, "-1/2"], [[], [[]]], {}],
          "flags": [True, False, None, 1.5, -0.0, float("inf")]})
@example([])
@example("\u2603")
def test_json_writer_is_the_indented_encoder(tree):
    assert cli._json_text(tree) == json.dumps(tree, indent=2)


def test_one_process_matches_a_fresh_parser_and_the_old_writer(
        tmp_path, capsys, monkeypatch):
    builds = []

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    monkeypatch.setattr(cli, "_parser", None)

    def old_main(argv):
        args = build_parser().parse_args(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_emit_json", old_emit_json)
            return args.func(args)

    def outcome(entry, argv, target):
        try:
            code = entry(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        written = target.read_bytes() if target.exists() else None
        if target.exists():
            target.unlink()
        return code, captured.out, captured.err, written

    out_file = tmp_path / "out.json"
    table = ["table", "--family", "prob-s1", "--rv", "poisson:alpha=2",
             "--lambda", "1/2", "--nmax", "6"]
    series = ["series", "--kind", "daehee", "--rv", "geometric:p=1/3",
              "--lambda=-1/3", "--gamma", "2"]
    steps = [
        (table, None),
        (series + ["--order", "5"], None),
        (["table", "--family"], None),              # argparse refuses it: exit 2
        (table + ["--output", str(out_file)], None),
        (["table", "--family", "lah", "--nmax", "4", "--format", "csv"], None),
        (series, "4"),
        (series + ["--output", str(out_file)], "7"),
        (["series", "--help"], None),
    ]
    results = []
    for argv, order in steps:
        if order is not None:
            monkeypatch.setenv("PROBSTIRLING_ORDER", order)
        results.append(outcome(main, argv, out_file))
        assert results[-1] == outcome(old_main, argv, out_file), argv
    assert [r[0] for r in results] == [0, 0, ("exit", 2), 0, 0, 0, 0, ("exit", 0)]
    assert [r[3] is not None for r in results] == [False] * 3 + [True] + [False] * 2 + [True, False]
    assert json.loads(results[5][1])["order"] == 4
    assert json.loads(results[6][3])["order"] == 7
    assert len(builds) == 1
