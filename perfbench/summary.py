"""Run every workload once and print all end-to-end metrics side by side.

    python3 perfbench/summary.py [--seed N] [--seconds S]

Each workload runs through ``run.py`` (so in its own processes, exactly as
in a single benchmark run); the table shows the seven end-to-end metrics
with their units and each workload's correctness verdict.  Takes about
``3 * --seconds`` plus set-up.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import OUT_DIR, ROOT, WORKLOAD_NAMES

COLUMNS = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
           ("peak_rss_mb", "MB"), ("failed_share", "ratio"), ("inconclusive_share", "ratio"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)

    rows = []
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL).returncode != 0:
            print(f"error: {workload} produced no result", file=sys.stderr)
            return 1
        rows.append(json.loads((OUT_DIR / f"{workload}-seed{args.seed}-trace0.json").read_text()))

    first = rows[0]
    print(f"seed={args.seed} python={first['python']} nproc={first['nproc']} "
          f"commit={first['commit']}")
    header = ["workload"] + [f"{name} [{unit}]" for name, unit in COLUMNS] + ["tail", "correct"]
    print("  ".join(f"{h:>14}" for h in header))
    for row in rows:
        values = {**{k: v["value"] for k, v in row["metrics"].items()}, **row["shares"]}
        cells = [row["workload"]] + [f"{values[name]:.6g}" for name, _ in COLUMNS]
        cells += [f"p{row['op_tail_percentile']}/{row['ops_per_pass']}ops", str(row["correct"])]
        print("  ".join(f"{c:>14}" for c in cells))
    lookups = next(r for r in rows if r["workload"] == "lookups")
    print(f"lookups key-repeat share: {lookups['lookups_key_repeat_share']:.4f}")
    return 0 if all(r["correct"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
