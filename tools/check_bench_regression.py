#!/usr/bin/env python3
"""Gate a psme.bench.v1 dump against a committed baseline.

Usage: check_bench_regression.py CURRENT.json BASELINE.json [--tolerance F]

The baseline declares how it gates, in a top-level `gate` block:

  "gate": {"key": ["workload", "scheme", "workers"],
           "metric": "ns_per_task", "better": "lower",
           "defaults": {"keyless": "owner"}}

`key` lists the fields that identify a row, `metric` the number compared,
`better` whether lower or higher is better, and the optional `defaults`
give key fields that rows written before the field existed lack (in
either file). A re-recorded baseline must carry its gate block over; a
baseline without one is an error.

Rows are matched key-for-key; the check fails if any matched row is more
than `tolerance` worse than baseline (slower for ns_per_task, fewer
sessions/sec for throughput), or if a baseline row is missing from the
current run (a dropped row would otherwise leave its figure ungated —
re-record the baseline when a sweep shrinks on purpose). Rows only the
current run has are reported as new and do not fail (sweeps may grow). A
baseline with no rows for its own key and metric is skipped with a note
instead of failing — regenerate the baseline to re-arm the gate.

The default tolerance is 0.10 (the CI gate: >10% regression fails);
override with --tolerance or the PSME_BENCH_TOLERANCE env var. The
committed BENCH_kernel_seed.json baseline was recorded on the
pre-flat-token layout, so staying under it also proves the layout work
never regresses past the old kernel.
"""

import argparse
import json
import os
import sys


def row_key(row, field, defaults):
    """One component of a row key: ints stay ints, strings stay strings."""
    v = row.get(field, defaults.get(field))
    return int(v) if isinstance(v, (int, float)) else str(v)


def load_doc(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "psme.bench.v1":
        sys.exit(f"{path}: not a psme.bench.v1 file")
    return doc


def extract_rows(doc, fields, metric, defaults):
    rows = {}
    for row in doc.get("results", []):
        if metric not in row or not all(
            f in row or f in defaults for f in fields
        ):
            continue
        k = tuple(row_key(row, f, defaults) for f in fields)
        rows[k if len(fields) > 1 else k[0]] = float(row[metric])
    return rows


def fmt_key(k):
    return "/".join(str(c) for c in k) if isinstance(k, tuple) else str(k)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("current")
    ap.add_argument("baseline")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("PSME_BENCH_TOLERANCE", "0.10")),
        help="allowed fractional regression vs baseline (default 0.10)",
    )
    args = ap.parse_args()

    base_doc = load_doc(args.baseline)
    gate = base_doc.get("gate")
    if not gate:
        sys.exit(f"{args.baseline}: no gate block (see --help)")
    fields = tuple(gate["key"])
    metric = gate["metric"]
    higher = gate["better"] == "higher"
    defaults = gate.get("defaults", {})
    baseline = extract_rows(base_doc, fields, metric, defaults)
    if not baseline:
        print(
            f"NOTE: {args.baseline} has no ({fields}, {metric}) rows — "
            f"skipping the gate. Regenerate the baseline to re-arm it."
        )
        return 0
    current = extract_rows(load_doc(args.current), fields, metric, defaults)
    if not current:
        sys.exit(f"{args.current}: no ({fields}, {metric}) rows")

    regressed = dropped = False
    key_name = "/".join(fields)
    width = max(len(key_name), 6,
                *(len(fmt_key(k)) for k in set(current) | set(baseline)))
    print(f"{key_name:>{width}} {'baseline':>12} {'current':>12} {'ratio':>8}"
          f"   ({metric}, {'higher' if higher else 'lower'} is better)")
    for k in sorted(set(current) | set(baseline)):
        kl = fmt_key(k)
        if k not in baseline:
            print(f"{kl:>{width}} {'-':>12} {current[k]:>12.1f}    (new)")
            continue
        if k not in current:
            print(f"{kl:>{width}} {baseline[k]:>12.1f} {'-':>12}    DROPPED")
            dropped = True
            continue
        ratio = current[k] / baseline[k] if baseline[k] else 0.0
        # Normalize so > 1 always means "worse than baseline".
        badness = (1.0 / ratio if ratio else float("inf")) if higher else ratio
        flag = ""
        if badness > 1.0 + args.tolerance:
            flag = "  REGRESSION"
            regressed = True
        print(
            f"{kl:>{width}} {baseline[k]:>12.1f} {current[k]:>12.1f} "
            f"{ratio:>8.3f}{flag}"
        )
    if regressed:
        print(
            f"FAIL: {metric} regressed more than "
            f"{args.tolerance:.0%} vs {args.baseline}"
        )
    if dropped:
        print(f"FAIL: baseline rows missing from {args.current}")
    if regressed or dropped:
        return 1
    print("OK: within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
