"""Per-command cost of the probstirling CLI, in process and from a fresh process.

In process, warm: the two commands perfbench's `tables` workload runs per
distribution, at order 30 for Poisson(2) at lam = 1/2,

    table --family prob-s1 --rv poisson:alpha=2 --lambda 1/2 --nmax 30
    series --kind prob-log --rv poisson:alpha=2 --lambda 1/2 --order 30

are each run once to fill every cache, and then three steps are timed:
`build_parser()`, the JSON writer `_emit_json` on the command's own payload
(read back from its output) and the whole `main(argv)`, stdout captured in
both.  Each row is the median over REPEATS calls, in milliseconds.

From a fresh process: a bare interpreter, `import probstirling.cli` and a
small `table` command are started in turn, round-robin, so a slow spell of
the host lands on all three alike.  Each row is the median over STARTS
start-ups, in milliseconds; the difference to the bare interpreter is the
package's own start-up.

Run from the repository root:

    python3 scripts/bench_cli.py [--json]

This script is not part of the test run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from probstirling import cli  # noqa: E402

REPEATS = 100
STARTS = 10
COMMANDS = {
    "table": ["table", "--family", "prob-s1", "--rv", "poisson:alpha=2",
              "--lambda", "1/2", "--nmax", "30"],
    "series": ["series", "--kind", "prob-log", "--rv", "poisson:alpha=2",
               "--lambda", "1/2", "--order", "30"],
}
STARTUPS = {
    "python -c pass": ["-c", "pass"],
    "import probstirling.cli": ["-c", "import probstirling.cli"],
    "table --family s1 --nmax 4": ["-m", "probstirling.cli", "table",
                                   "--family", "s1", "--nmax", "4"],
}


def median_ms(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        fn(*args)
    return out.getvalue()


def in_process_rows() -> list:
    rows = [{"step": "build_parser", "command": "-",
             "median_ms": median_ms(cli.build_parser)}]
    for name, argv in COMMANDS.items():
        payload = json.loads(quiet(cli.main, argv))
        rows.append({"step": "_emit_json", "command": name,
                     "median_ms": median_ms(lambda: quiet(cli._emit_json, payload, None))})
        rows.append({"step": "main", "command": name,
                     "median_ms": median_ms(lambda: quiet(cli.main, argv))})
    return rows


def fresh_process_rows() -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = {name: [] for name in STARTUPS}
    for _ in range(STARTS):
        for name, args in STARTUPS.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, *args], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            times[name].append(time.perf_counter() - start)
    return [{"step": "start-up", "command": name,
             "median_ms": statistics.median(t) * 1e3} for name, t in times.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="print one JSON document")
    args = parser.parse_args(argv)
    rows = in_process_rows() + fresh_process_rows()
    for row in rows:
        row["median_ms"] = round(row["median_ms"], 3)
    if args.json:
        print(json.dumps({"python": platform.python_version(), "repeats": REPEATS,
                          "starts": STARTS, "rows": rows}, indent=1))
    else:
        print(f"{'step':<14} {'command':<28} {'median ms':>10}")
        for row in rows:
            print(f"{row['step']:<14} {row['command']:<28} {row['median_ms']:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
