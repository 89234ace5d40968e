#!/usr/bin/env python3
"""Build and run the serving-path benchmark.

    python3 perfbench/run.py --workload <router1|router3|repeated> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call configures and builds the
driver (perfbench/CMakeLists.txt pulls in the repository's libraries) under
.bench_build/perfbench; later calls rebuild incrementally.  Build output goes
to stderr.  The driver's progress lines are echoed, and the last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status is 0 when a well-formed result was printed, non-zero otherwise
(including when the sources cannot be built).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "serving_bench")
WORKLOADS = ("router1", "router3", "repeated")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the driver; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-G",
                      "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "serving_bench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def valid_result(result):
    if not isinstance(result, dict):
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return False
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return False
    metrics = result["metrics"]
    return isinstance(metrics, dict) and metrics and all(
        isinstance(m, dict) and set(m) == {"value", "unit"}
        and isinstance(m["value"], (int, float)) for m in metrics.values())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: driver exited {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not valid_result(result):
        print("perfbench: malformed driver result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
