#!/usr/bin/env python3
"""Builds and runs the end-to-end checking benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload local-tiers --seed 1 --seconds 45 \
        --trace 0

The first call configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed. The benchmark binary's human-readable lines are passed
through, and the last line of standard output is its result object. Before
printing it, the metric names and units are checked against BENCHMARK.json:
--trace 0 must print exactly the end_to_end metrics, --trace 1 exactly the
per_layer ones. Any failure exits non-zero without a result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    generated = any(os.path.exists(os.path.join(build_dir, f))
                    for f in ("Makefile", "build.ninja"))
    if not generated:
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result.
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True)
        except (OSError, subprocess.CalledProcessError) as e:
            fail(f"build failed: {e}", 2)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail("the last line is not a result object")

    # Metric-name self-check, both directions, units included.
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        sys.stderr.write(proc.stdout)
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        units = sorted(n for n in set(expected) & set(printed)
                       if expected[n] != printed[n])
        fail(f"metrics differ from BENCHMARK.json {section}: missing "
             f"{missing}, not listed {extra}, unit mismatch {units}", 3)

    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
