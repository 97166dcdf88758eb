"""Benchmark entry point: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload verify-grid|tables|lookups \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass of the workload runs in a fresh
interpreter (``worker.py``).  With ``--trace 0`` the run repeats whole passes
while another one fits in ``--seconds`` (at least one) and reports medians
over passes; before every pass, and once more after the last, it launches
the workload a few times up to its first operation, so that the set-up
launches are spread over the whole run.  With ``--trace 1`` it runs one
plain pass and one traced pass and reports the per-layer metrics plus the
tracing overhead.  The last line of stdout is the JSON result; an untraced
run prints the line before it as ``{"shares": {...}}`` with
``failed_share`` and ``inconclusive_share``; everything before that is for
people.  Results (with provenance) and span files are written under
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = tuple(WORKLOADS)
SETUP_PROBES = 3             # set-up launches before each pass and after the last
RUN_LIMIT_S = 170.0          # the whole run, whatever --seconds says


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def commit_id() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_id(),
        "seed": seed,
    }


def launch(args, deadline: float, *extra) -> dict:
    """Run one worker process to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    cmd += list(extra)
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--launched-at", repr(started)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - started
    return result


def end_to_end(passes, setups) -> dict:
    """The end-to-end metrics: medians over passes (set-up over all launches)."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median([p["wall_s"] for p in passes]), "s"),
        "op_p50_ms": (statistics.median([statistics.median(p["latencies_ms"])
                                         for p in passes]), "ms"),
        "op_tail_ms": (statistics.median([stats.tail(p["latencies_ms"])[1]
                                          for p in passes]), "ms"),
        "peak_rss_mb": (statistics.median([p["peak_rss_mb"] for p in passes]), "MB"),
    }


def shares(passes) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    records = sum(p["records"] for p in passes)
    inconclusive = sum(p["inconclusive"] for p in passes)
    return {
        "failed_share": sum(p["failed"] for p in passes) / attempted,
        "inconclusive_share": inconclusive / records if records else 0.0,
    }


LAYER_UNITS = (("_share", "ratio"), (".calls", "count"), ("bytes_out", "bytes"), ("_s", "s"))


def layer_unit(name: str) -> str:
    return next(unit for suffix, unit in LAYER_UNITS if name.endswith(suffix))


def measure(args, deadline: float) -> tuple:
    """(metrics {name: (value, unit)}, passes, run shape) for one run."""
    if args.trace:
        spans = OUT_DIR / "spans" / f"{args.workload}-seed{args.seed}.npz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        plain = launch(args, deadline)
        traced = launch(args, deadline, "--trace", str(spans))
        passes = [plain, traced]
        metrics = {name: (value, layer_unit(name)) for name, value in traced["layers"].items()}
        metrics.update({name: (value, "ratio") for name, value in shares(passes).items()})
        metrics["trace.wall_s"] = (traced["wall_s"], "s")
        metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
        return metrics, passes, {"spans": str(spans.relative_to(ROOT))}
    passes, setups = [], []
    started = time.monotonic()
    while True:
        setups += [launch(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        if passes and time.monotonic() - started + passes[-1]["elapsed_s"] > args.seconds:
            break
        passes.append(launch(args, deadline))
        setups.append(passes[-1]["setup_s"])
    ops = len(passes[0]["latencies_ms"])
    shape = {"passes": len(passes), "ops_per_pass": ops, "setup_launches": len(setups),
             "op_tail_percentile": stats.tail_percentile(ops)}
    return end_to_end(passes, setups), passes, shape


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "probstirling" / "__init__.py").is_file():
        print(f"error: no probstirling sources under {ROOT / 'src'}; "
              "run from a repository checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        metrics, passes, shape = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    info = provenance(args.seed)
    if passes[0]["key_repeat_share"] is not None:
        info["lookups_key_repeat_share"] = passes[0]["key_repeat_share"]
    record = {"workload": args.workload, "trace": args.trace, **info, **shape,
              "correct": failed == 0, "attempted": attempted, "failed": failed,
              "failures": [p["failures"] for p in passes if p["failures"]],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    if not args.trace:
        record["shares"] = shares(passes)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload}: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print("  " + " ".join(f"{k}={v}" for k, v in shape.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    if not args.trace:
        for name, value in record["shares"].items():
            print(f"  {name:<44} {value:>14.6g} ratio")
    for failure in record["failures"]:
        for key, reason in failure.items():
            print(f"  FAILED {key}: {reason}")
    print(f"  correct: {record['correct']} ({failed} of {attempted} operations failed)")
    if not args.trace:
        print(json.dumps({"shares": record["shares"]}))
    print(json.dumps({"correct": record["correct"], "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
