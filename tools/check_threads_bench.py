#!/usr/bin/env python3
"""Check the shape of a bench/real_threads --json dump.

Usage: check_threads_bench.py REAL_THREADS.json

Passes when the dump is a psme.bench.v1 `real_threads` document with one
row per (workload, scheduler, workers) cell of rubik/weaver/tourney x
default/central x 1..3, each carrying a positive median ratio and a
non-negative MAD. The ratios themselves are not gated: they depend on the
host and its load.
"""
import json
import math
import sys


def number(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        doc = json.load(f)
    errors = []
    if (doc.get("schema"), doc.get("bench")) != ("psme.bench.v1",
                                                 "real_threads"):
        errors.append("not a psme.bench.v1 real_threads dump")
    cells = {}
    for row in doc.get("results", []):
        key = (row.get("workload"), row.get("scheduler"), row.get("workers"))
        cells[key] = row
        r, mad = row.get("ratio_median"), row.get("ratio_mad")
        if not (number(r) and r > 0):
            errors.append(f"{key}: bad ratio_median {r!r}")
        if not (number(mad) and mad >= 0):
            errors.append(f"{key}: bad ratio_mad {mad!r}")
    for workload in ("rubik", "weaver", "tourney"):
        for sched in ("default", "central"):
            for workers in (1, 2, 3):
                if (workload, sched, workers) not in cells:
                    errors.append(f"missing row {workload}/{sched}/{workers}")
    for e in errors:
        print("check_threads_bench:", e, file=sys.stderr)
    if not errors:
        print(f"check_threads_bench: {len(cells)} rows OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
