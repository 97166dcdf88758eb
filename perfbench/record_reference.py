"""Record the reference outputs the workload gates compare against.

Run once at the commit whose outputs define "correct" (the references in
``reference/`` were recorded at the commit that added this benchmark):

    python3 perfbench/record_reference.py [verify-grid|tables|lookups ...]

``tables.json`` maps each CLI command to the SHA-256 of its stdout bytes;
``verify_grid.json`` maps each suite call to its (identity, rv, lambda)
record list; ``lookups.json`` holds, for every key of the fixed lookup pool
and every query type, the 8-hex-digit digests of all possible answers in
argument order.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import probstirling as ps  # noqa: E402
import probstirling.cli  # noqa: E402,F401  (not imported by the package itself)

from workloads import (  # noqa: E402
    QUERY_ARGS, REFERENCE_DIR, WORKLOADS, answer_digest, canonical_answer,
    key_label, lookup_call, lookup_pool, query_types,
)


def record_verify_grid() -> dict:
    grid = WORKLOADS["verify-grid"](ps, 0)
    out = {}
    for key, op in zip(grid.keys, grid.ops):
        report = op()
        bad = [r for r in report.records if r.status == "fail"]
        if bad:
            raise SystemExit(f"{key}: refusing to record a failing suite ({bad[0].identity})")
        out[key] = sorted(f"{r.identity}|{r.rv}|{r.lam}" for r in report.records)
    return out


def record_tables() -> dict:
    tables = WORKLOADS["tables"](ps, 0)
    out = {}
    for key, op in zip(tables.keys, tables.ops):
        code, data, err = op()
        if code != 0:
            raise SystemExit(f"{key}: exit code {code}: {err}")
        out[key] = tables.fingerprint(0, (code, data, err))[1]
    return out


def record_lookups() -> dict:
    pool = lookup_pool(ps)
    digests = []
    for rv, lam in pool:
        per_type = {}
        for qtype in query_types(rv):
            per_type[qtype] = "".join(
                answer_digest(canonical_answer(qtype, lookup_call(ps, qtype, rv, lam, args)))
                for args in QUERY_ARGS[qtype]
            )
        digests.append(per_type)
    return {"keys": [key_label(rv, lam) for rv, lam in pool], "digests": digests}


RECORDERS = {"verify-grid": ("verify_grid", record_verify_grid),
             "tables": ("tables", record_tables),
             "lookups": ("lookups", record_lookups)}


def main(argv) -> int:
    for name in argv or list(RECORDERS):
        filename, record = RECORDERS[name]
        data = record()
        path = REFERENCE_DIR / f"{filename}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=0, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
