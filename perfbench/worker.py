"""One pass of one workload in a fresh interpreter.

Started by ``run.py``; prints one JSON object on its last line of stdout.
The caches of probstirling are module-global and cannot be cleared from
outside, so every pass needs its own process: a warm process would time
dictionary lookups instead of the computation.

``--launched-at`` is the parent's ``time.monotonic()`` just before it
started this process; ``setup_s`` runs from there to the first operation.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import probstirling as ps  # noqa: E402  (needs the path set above)
import probstirling.cli  # noqa: E402,F401  (not imported by the package itself)

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_pass(workload, tracer=None) -> dict:
    """Issue every operation in order, then check the outputs.

    An operation that raises, or whose output cannot even be fingerprinted,
    is counted as failed; so is every checked operation if the gate itself
    raises.  Nothing a check does aborts the pass.
    """
    latencies_ms, fingerprints, errors = [], [], {}
    t_first = time.monotonic()
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.current_op = i
        t0 = time.perf_counter()
        try:
            result = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies_ms.append((time.perf_counter() - t0) * 1e3)
        fingerprint = None
        if i not in errors:
            try:
                fingerprint = workload.fingerprint(i, result)
            except Exception as exc:
                errors[i] = f"unreadable output: {type(exc).__name__}: {exc}"
        fingerprints.append(fingerprint)
    try:
        failures = {**workload.gate(fingerprints), **errors}
    except Exception as exc:
        reason = f"gate raised {type(exc).__name__}: {exc}"
        failures = {i: errors.get(i, reason) for i in range(len(workload.ops))}
    wall_s = time.monotonic() - t_first
    return {
        "wall_s": wall_s,
        "latencies_ms": latencies_ms,
        "attempted": len(workload.ops),
        "failed": len(failures),
        "failures": {workload.keys[i]: reason for i, reason in sorted(failures.items())[:5]},
        "records": workload.records,
        "inconclusive": workload.inconclusive,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop when the first operation would be issued")
    parser.add_argument("--trace", metavar="SPANS_FILE", default=None,
                        help="trace the pass and write its spans to this .npz file")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](ps, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(ps)
    setup_s = time.monotonic() - args.launched_at
    result = {"setup_s": setup_s,
              "key_repeat_share": getattr(workload, "key_repeat_share", None)}
    if not args.setup_only:
        result.update(run_pass(workload, tracer))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        tracer.cli_bytes_out = workload.bytes_out
        result["layers"] = tracer.metrics()
        tracer.dump(args.trace, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
