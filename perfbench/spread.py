"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--workloads verify-grid,tables,lookups] [--seeds 1-10]

Runs ``run.py --trace 0`` once per seed and workload, then prints, for every
end-to-end metric in BENCHMARK.json, the median over seeds and the distance
between the first and third quartile as a share of the median, beside the
metric's bound.  A spread at or above its bound (set-up time excepted)
means the benchmark cannot resolve a change of that size.  The values are
also written to ``.perfbench/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats
from run import OUT_DIR, ROOT, WORKLOAD_NAMES


def parse_seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload",
                   workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"error: {workload} seed {seed} produced no result\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            ok &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        (OUT_DIR / f"spread-{workload}.json").write_text(json.dumps(values, indent=1) + "\n")
        print(f"{workload} ({len(values['wall_s'])} seeds)")
        for name, vals in values.items():
            spread = stats.quartile_spread(vals)
            print(f"  {name:<12} median {statistics.median(vals):>12.6g}  spread {spread:6.3f}"
                  f"  bound {bounds[name]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
