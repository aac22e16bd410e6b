#!/usr/bin/env python3
"""Wall-clock benchmark of PSM-E.

Builds the engine library and the psme_wallbench program from this checkout
(CMake, Release build) under $CARGO_TARGET_DIR (default .bench_build), runs
one workload, and prints the program's result as the last line of stdout:

    python3 wallbench/run.py --workload rubik --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see psme_wallbench's header comment for what each phase measures). Exits
non-zero without printing a result when the build or the run fails.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("weaver", "rubik", "tourney")
BUILD_TIMEOUT_S = 780  # a first build from scratch
RUN_TIMEOUT_S = 160


def build():
    # One build tree per checkout, so that checkouts sharing a
    # CARGO_TARGET_DIR never build each other's sources; a lock file keeps
    # concurrent runs from building the same tree at once.
    tag = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    out = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
        "wallbench-" + tag))
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j",
                      str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "psme_wallbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        exe = build()
        proc = subprocess.run(
            [exe, "--workload", args.workload,
             "--seed", str(args.seed % 2**64),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"wallbench: {e}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"wallbench: psme_wallbench exited {proc.returncode}",
              file=sys.stderr)
        return 1

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("wallbench: no JSON result from psme_wallbench", file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"wallbench: malformed result {result}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
