"""Per-operation micro-benchmark of the exact `Series` core and the triangles.

Times mul, div, exp, log1p, pow, compose and revert at N = 20/40/80 on the
series the engine builds for Poisson(2) at lam = 1/2: the degenerate moment
series m, its delta series m - 1 and that series' compositional inverse h
(dense, with zero constant term, so exp and log1p take h; log1p is timed at
lam = 0 and as the degenerate logarithm at lam = 1/2).  The
`special.deg_log` row builds log_lam(1 + t) at lam = 1/2.  The two
`special.triangle_from_base` rows build the order-N table over each base
the probabilistic triangles use: m - 1 (the second kind) and h (the first
kind).  The `special.deg_exp` and `special.log_deg_exp` rows build the two
base series at lam = 1/2 (deg_exp at x = 1) through `__wrapped__`, the
function under its memo cache, so no row measures a cache hit.  Three rows
time scalar oracles of the verification suites: `special.falling_factorial`
gives the N + 1 inputs (j)_{N,lam}, j = 0..N, of an inclusion-exclusion
row; `special.bell_triangle` fills the order-N partial Bell table over the
falling moments E[(Y)_{n,lam}], n = 1..N, of Poisson(2); and
`prob.schlomilch_sum` evaluates row N, k = 0..N/2, of the first kind from
the order-N second-kind triangle.
Each row is the minimum over five repeats of one call, in milliseconds, so a
slow spell of the host inflates fewer rows than a mean would.

Run from the repository root:

    python3 scripts/bench_series.py [--json]

The inputs are built, and every cache warmed, before any timing starts.
This script is not part of the test run.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from probstirling.prob import bundle, mgf_deg, prob_triangle, schlomilch_sum  # noqa: E402
from probstirling.randomvars import RandomVar  # noqa: E402
from probstirling.series import Series  # noqa: E402
from probstirling.special import (  # noqa: E402
    bell_triangle, deg_exp, deg_log, falling_factorial, log_deg_exp, triangle_from_base,
)

LAM = Fraction(1, 2)
REPEATS = 5
ORDERS = (20, 40, 80)


def cases(order: int) -> dict:
    """op name -> zero-argument callable, all over order-`order` inputs."""
    rv = RandomVar.poisson(2)
    mgf = mgf_deg(rv, LAM, order)
    b = bundle(rv, LAM, order)
    delta, reverted = b.delta, b.reverted
    one = Series.one(order)
    moments = [mgf.egf(n) for n in range(1, order + 1)]
    second_kind = prob_triangle(rv, LAM, "s2", order).value
    return {
        "mul": lambda: mgf * reverted,
        "div": lambda: one / mgf,
        "exp": lambda: reverted.exp(),
        "log1p": lambda: reverted.log1p(),
        "log1p(lam = 1/2)": lambda: reverted.log1p(LAM),
        "pow": lambda: mgf.pow(Fraction(1, 2)),
        "compose": lambda: delta.compose(reverted),
        "revert": lambda: delta.revert(),
        "triangle_from_base(m - 1)": lambda: triangle_from_base(delta, "s2", LAM, order),
        "triangle_from_base(h)": lambda: triangle_from_base(reverted, "s1", LAM, order),
        "deg_exp": lambda: deg_exp.__wrapped__(LAM, Fraction(1), order),
        "log_deg_exp": lambda: log_deg_exp.__wrapped__(LAM, order),
        "deg_log": lambda: deg_log(LAM, order),
        "falling_factorial": lambda: [falling_factorial(j, order, LAM)
                                      for j in range(order + 1)],
        "bell_triangle": lambda: bell_triangle(moments, order),
        "schlomilch_sum": lambda: [schlomilch_sum(rv.mean(), second_kind, order, k)
                                   for k in range(order // 2 + 1)],
    }


def min_ms(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="print one JSON document")
    args = parser.parse_args(argv)
    rows = []
    for order in ORDERS:
        for op, fn in cases(order).items():
            rows.append({"op": op, "n": order, "min_ms": round(min_ms(fn), 3)})
    if args.json:
        print(json.dumps({"python": platform.python_version(), "repeats": REPEATS,
                          "rows": rows}, indent=1))
    else:
        print(f"{'op':<26} {'N':>4} {'min ms':>10}")
        for row in rows:
            print(f"{row['op']:<26} {row['n']:>4} {row['min_ms']:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
