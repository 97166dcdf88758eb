"""Command-line interface: tables, series, verification suites, Monte Carlo.

All exact quantities are serialized as rational strings ("num/den", with a
denominator of 1 omitted); Monte Carlo fields use decimals with 12
significant digits.  Identical configuration (and seed) produces
byte-identical output.

Exit codes: 0 success, 1 verification failure or Monte Carlo band violation,
2 malformed input, 3 domain error (invalid parameters, unknown family,
unsamplable distribution).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .prob import prob_log, prob_order_numbers, prob_triangle
from .randomvars import SAMPLABLE_KINDS, RandomVar, builtin_random_vars
from .special import TRIANGLE_FAMILIES, Triangle, triangle
from .verify import (
    DEFAULT_GAMMAS,
    DEFAULT_LAMBDA_GRID,
    MAX_SAMPLES,
    VerificationReport,
    check_orthogonality,
    identity_suite,
    limit_suite,
    mc_check,
)

ORDER_ENV_VAR = "PROBSTIRLING_ORDER"
_DEFAULT_ORDER = 32
# Largest table --nmax, series --order and $PROBSTIRLING_ORDER.  At 150 the
# slowest built-in table (prob-g, gamma) takes about 2 s on a 2-core host;
# at 200 a prob-s1 table takes 8 s, and the cost grows about as nmax**4.
MAX_ORDER = 150

_PROB_FAMILIES = ("prob-s1", "prob-s2", "prob-h", "prob-g")
_SERIES_KINDS = ("prob-log", "bernoulli", "daehee", "cauchy")


class CliInputError(ValueError):
    """Malformed command-line text (exit code 2)."""


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise CliInputError(f"not a rational number: {text!r}") from exc


def parse_rv(text: str) -> RandomVar:
    """Parse specs like "bernoulli:p=1/2", "uniform01", "custom:moments=1,1/2,...".

    Parameter values are exact rationals; malformed text raises
    :class:`CliInputError`, invalid parameter values raise ValueError.
    """
    name, _, rest = text.strip().partition(":")
    name = name.lower()
    if name == "custom":
        prefix = "moments="
        if not rest.startswith(prefix):
            raise CliInputError("custom spec must look like custom:moments=1,1/2,...")
        values = [parse_rational(v) for v in rest[len(prefix):].split(",") if v != ""]
        return RandomVar.custom(values)
    params = {}
    if rest:
        for piece in rest.split(","):
            key, eq, value = piece.partition("=")
            if not eq:
                raise CliInputError(f"malformed parameter {piece!r} in rv spec")
            params[key.strip().lower()] = parse_rational(value)

    if name not in SAMPLABLE_KINDS:
        raise CliInputError(f"unknown random variable {name!r}")
    constructor = getattr(RandomVar, name)
    signature = inspect.signature(constructor).parameters
    names = tuple(signature)
    if set(params) != set(names):
        raise CliInputError(f"{name} takes parameters {names}, got {tuple(params)}")
    # annotations are strings: randomvars postpones their evaluation
    return constructor(*(
        _as_int(params[p], p) if signature[p].annotation == "int" else params[p]
        for p in names
    ))


def _as_int(value: Fraction, name: str) -> int:
    if value.denominator != 1:
        raise CliInputError(f"parameter {name} must be an integer, got {value}")
    return int(value)


def _default_order() -> int:
    raw = os.environ.get(ORDER_ENV_VAR)
    if raw is None:
        return _DEFAULT_ORDER
    try:
        value = int(raw)
    except ValueError as exc:
        raise CliInputError(f"{ORDER_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 0:
        raise CliInputError(f"{ORDER_ENV_VAR} must be >= 0")
    if value > MAX_ORDER:
        raise CliInputError(f"{ORDER_ENV_VAR} must be <= {MAX_ORDER}, got {value}")
    return value


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def triangle_to_dict(t: Triangle) -> dict:
    meta = dict(t.params)
    return {
        "family": t.family,
        "rv": meta.get("rv"),
        "params": {k: v for k, v in t.params if k != "rv"},
        "lambda": str(t.lam),
        "nmax": t.nmax,
        "entries": [[n, k, str(v)] for n, row in enumerate(t.rows) for k, v in enumerate(row)],
    }


def _csv(header: list, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, output) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# JSON scalar type -> its text, as json.dumps writes it
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: json.dumps,
    bool: json.dumps,
    type(None): json.dumps,
}


def _json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for a tree of dicts with
    string keys, lists, tuples and JSON scalars.

    With an indent, `json` encodes in pure Python.  Here strings and ints go
    through the C-level helpers and each flat list of scalars, such as a
    table row, is one join.  `indent` is a newline and the indentation of the
    line on which `obj` starts.
    """
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        try:
            items = [_JSON_SCALARS[type(v)](v) for v in obj]
        except KeyError:
            items = [_json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                 for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return _JSON_SCALARS.get(type(obj), json.dumps)(obj)


def _emit_json(payload: dict, output) -> None:
    _emit(_json_text(payload) + "\n", output)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_table(args) -> int:
    if args.nmax > MAX_ORDER:
        raise CliInputError(f"--nmax must be <= {MAX_ORDER}, got {args.nmax}")
    family = args.family.lower()
    lam = parse_rational(args.lam)
    if family in TRIANGLE_FAMILIES:
        t = triangle(family, lam, args.nmax)
    elif family in _PROB_FAMILIES:
        if args.rv is None:
            raise CliInputError(f"family {family} needs --rv")
        rv = parse_rv(args.rv)
        t = prob_triangle(rv, lam, family.removeprefix("prob-"), args.nmax)
    else:
        raise ValueError(f"unknown table family {args.family!r}")
    if args.format == "csv":
        _emit(_csv(["n", "k", "value"], triangle_to_dict(t)["entries"]), args.output)
    else:
        _emit_json(triangle_to_dict(t), args.output)
    return 0


def _cmd_series(args) -> int:
    kind = args.kind.lower()
    if kind not in _SERIES_KINDS:
        raise ValueError(f"unknown series kind {args.kind!r}")
    rv = parse_rv(args.rv)
    lam = parse_rational(args.lam)
    order = args.order if args.order is not None else _default_order()
    if order < 0:
        raise CliInputError("--order must be >= 0")
    if order > MAX_ORDER:
        raise CliInputError(f"--order must be <= {MAX_ORDER}, got {order}")
    gamma = parse_rational(args.gamma)
    x = parse_rational(args.x)
    if kind == "prob-log":
        series = prob_log(rv, lam, order)
    else:
        series = prob_order_numbers(rv, lam, gamma, x, kind, order)
    rows = [[n, str(series.egf(n))] for n in range(order + 1)]
    if args.format == "csv":
        _emit(_csv(["n", "value"], rows), args.output)
        return 0
    payload = {
        "kind": kind,
        "rv": rv.describe(),
        "lambda": str(lam),
        "gamma": str(gamma),
        "x": str(x),
        "order": order,
        "egf_coefficients": rows,
    }
    _emit_json(payload, args.output)
    return 0


def _cmd_verify(args) -> int:
    nmax = args.nmax
    gammas = tuple(parse_rational(g) for g in args.gammas.split(","))
    lam_grid = (
        [parse_rational(args.lam)] if args.lam is not None else list(DEFAULT_LAMBDA_GRID)
    )
    if args.all_builtin:
        rvs = list(builtin_random_vars())
    elif args.rv is not None:
        rvs = [parse_rv(args.rv)]
    else:
        raise CliInputError("verify needs --rv or --all-builtin")

    combined = VerificationReport("verify")
    for rv in rvs:
        for lam in lam_grid:
            combined.extend(identity_suite(rv, lam, nmax, gammas))
            t2 = prob_triangle(rv, lam, "s2", nmax)
            t1 = prob_triangle(rv, lam, "s1", nmax)
            combined.extend(check_orthogonality(t2, t1))
    combined.extend(limit_suite(nmax))
    _emit_json(combined.to_dict(), args.output)
    return 1 if combined.failed else 0


def _cmd_mc(args) -> int:
    if args.samples > MAX_SAMPLES:
        raise CliInputError(f"--samples must be <= {MAX_SAMPLES}, got {args.samples}")
    rv = parse_rv(args.rv)
    lam = parse_rational(args.lam)
    estimate = mc_check(rv, lam, args.n, args.j, args.samples, args.seed)
    _emit_json(estimate.to_dict(), args.output)
    return 0 if estimate.within_band else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probstirling",
        description="Exact Stirling-type number families and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, help="write to file instead of stdout")

    p_table = sub.add_parser("table", parents=[common], help="emit a triangle")
    p_table.add_argument("--family", required=True,
                         help="s1|s2|lah|h|g|prob-s1|prob-s2|prob-h|prob-g")
    p_table.add_argument("--rv", default=None, help="random variable spec, e.g. bernoulli:p=1/2")
    p_table.add_argument("--lambda", dest="lam", default="0", help="degeneracy parameter")
    p_table.add_argument("--nmax", type=int, required=True,
                         help=f"last row of the table, at most {MAX_ORDER}")
    p_table.add_argument("--format", choices=("json", "csv"), default="json")
    p_table.set_defaults(func=_cmd_table)

    p_series = sub.add_parser("series", parents=[common], help="emit EGF coefficients")
    p_series.add_argument("--kind", required=True, help="prob-log|bernoulli|daehee|cauchy")
    p_series.add_argument("--rv", required=True)
    p_series.add_argument("--lambda", dest="lam", default="0")
    p_series.add_argument("--gamma", default="1")
    p_series.add_argument("--x", default="0")
    p_series.add_argument("--order", type=int, default=None,
                          help=f"truncation order, at most {MAX_ORDER} (default {_DEFAULT_ORDER}, "
                               f"or ${ORDER_ENV_VAR})")
    p_series.add_argument("--format", choices=("json", "csv"), default="json")
    p_series.set_defaults(func=_cmd_series)

    p_verify = sub.add_parser("verify", parents=[common], help="run verification suites")
    p_verify.add_argument("--rv", default=None)
    p_verify.add_argument("--all-builtin", action="store_true",
                          help="run the whole built-in distribution grid")
    p_verify.add_argument("--lambda", dest="lam", default=None,
                          help="single lambda (default: the built-in grid)")
    p_verify.add_argument("--nmax", type=int, default=8)
    p_verify.add_argument("--gammas", default=",".join(str(g) for g in DEFAULT_GAMMAS),
                          help="comma-separated integer orders; a non-integer exits 3")
    p_verify.set_defaults(func=_cmd_verify)

    p_mc = sub.add_parser("mc", parents=[common], help="Monte Carlo cross-check")
    p_mc.add_argument("--rv", required=True)
    p_mc.add_argument("--lambda", dest="lam", default="0")
    p_mc.add_argument("--n", type=int, required=True)
    p_mc.add_argument("--j", type=int, required=True)
    p_mc.add_argument("--samples", type=int, default=1_000_000,
                      help=f"Monte Carlo sample size, 1000 to {MAX_SAMPLES}")
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.set_defaults(func=_cmd_mc)

    return parser


_parser = None  # built by the first main() call and reused after it


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
