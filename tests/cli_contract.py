#!/usr/bin/env python3
"""Command-line contract of the serving binaries and one bench binary.

    cli_contract.py --docs <docs dir> <rlbd> <rlb_router> <rlb_loadgen>
                    <rlb_stat> <bench_fault_injection>

Checks that every binary's --help exits 0, that bad flag values are
rejected with exit 2 and one stderr line naming the flag (and before any
flag has an effect), and that every --flag in the flag tables of
docs/{SERVING,CLUSTER,OBSERVABILITY}.md appears in some binary's --help.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

DOCS = ("SERVING.md", "CLUSTER.md", "OBSERVABILITY.md")


def run(binary, *args):
    """Exit status and output; a binary that is still running after 10 s
    (it started serving instead of rejecting) reads as exit None."""
    try:
        return subprocess.run([binary, *args], capture_output=True, text=True,
                              timeout=10)
    except subprocess.TimeoutExpired as e:
        return subprocess.CompletedProcess(e.cmd, None, e.stdout or "",
                                           e.stderr or "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--docs", required=True)
    parser.add_argument("binaries", nargs=5)
    args = parser.parse_args()
    rlbd, router, loadgen, stat, bench = args.binaries
    failures = []

    helps = {}
    for binary in args.binaries:
        proc = run(binary, "--help")
        name = os.path.basename(binary)
        helps[name] = proc.stdout
        if proc.returncode != 0 or not proc.stdout.startswith("usage: " + name):
            failures.append(f"{name} --help: exit {proc.returncode}")

    with tempfile.TemporaryDirectory() as tmp:
        json_path = os.path.join(tmp, "x.json")
        rejections = [
            (stat, ["--port", "70000"], "--port"),
            (stat, ["--port", "abc"], "--port"),
            (stat, ["--watch", "abc"], "--watch"),
            (rlbd, ["--port", "70000"], "--port"),
            (rlbd, ["--m"], "--m"),
            (rlbd, ["--json", json_path, "--port", "70000"], "--port"),
            (rlbd, ["--port", "0", "--fail-rate", "0.1"], "--fail-rate"),
            (rlbd, ["--port", "0", "--mttr", "25"], "--mttr"),
            (router, ["--heartbeat-ms", "0"], "--heartbeat-ms"),
            (router, ["--backends", "nonsense"], "--backends"),
            (loadgen, ["--set-size", "-1"], "--set-size"),
            (loadgen, ["--rate", "0"], "--rate"),
            (bench, ["--fail-rte", "0.1"], "--fail-rte"),
            (bench, ["--trace"], "--trace"),
        ]
        for binary, flags, named in rejections:
            proc = run(binary, *flags)
            name = os.path.basename(binary)
            lines = proc.stderr.splitlines()
            if (proc.returncode != 2 or len(lines) != 1 or
                    not lines[0].startswith(f"{name}: {named}: ")):
                failures.append(f"{name} {' '.join(flags)}: exit "
                                f"{proc.returncode}, stderr {proc.stderr!r}")
        if os.path.exists(json_path):
            failures.append("rlbd created its --json file before rejecting "
                            "--port")

    documented = set()
    for doc in DOCS:
        with open(os.path.join(args.docs, doc), encoding="utf-8") as f:
            for line in f:
                if line.startswith("|"):
                    documented.update(re.findall(r"--[a-z][a-z0-9-]*", line))
    helped = set()
    for text in helps.values():
        helped.update(re.findall(r"--[a-z][a-z0-9-]*", text))
    for flag in sorted(documented - helped):
        failures.append(f"{flag} is in a docs flag table but in no --help")

    for failure in failures:
        print("cli_contract: " + failure, file=sys.stderr)
    print(f"cli_contract: {len(args.binaries)} binaries, {len(rejections)} "
          f"rejections, {len(documented)} documented flags checked")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
