#!/usr/bin/env python3
"""Paper-regeneration benchmark: build the harness, run one workload, print the result.

Run from the repository root:

    python3 perfbench/run.py --workload server --seed 1 --seconds 40 --trace 0

The first run configures and builds `perfbench/` (the pktchase library from
`src/` plus the `paperbench` harness) under `.bench_build/perfbench`; later runs
only rebuild what changed. Human-readable lines come first on stdout; the last
line is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. setup_s is measured here, as the median over several spawns of
`paperbench --setup-only` of process start to the end of set-up; the harness
measures the rest. Build output goes to stderr. Any failure exits non-zero
without printing a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "paperbench"
REFERENCE_DIR = BENCH_DIR / "reference"
RUN_TIMEOUT_S = 150
SETUP_SPAWNS = 15


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def setup_seconds(base_cmd):
    """Median over SETUP_SPAWNS processes of process start to the end of
    set-up, the instant the first unit would start."""
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.monotonic_ns()  # CLOCK_MONOTONIC, as steady_clock
        done = subprocess.run(base_cmd + ["--setup-only"],
                              stdout=subprocess.PIPE, text=True, timeout=60)
        lines = done.stdout.split()
        if done.returncode != 0 or len(lines) != 2:
            fail(f"paperbench --setup-only exited with {done.returncode}")
        times.append((int(lines[1]) - start) / 1e9)
    return statistics.median(times)


def expected_metrics(trace):
    """{name: unit} of the metrics a run with this --trace must report."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, trace, setup_s):
    """Parse the harness's last line, put setup_s (when measured) first
    among its metrics, and check its shape; None if bad."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(result["metrics"], dict):
        return None
    if setup_s is not None:
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"},
                             **result["metrics"]}
    if not isinstance(result["correct"], bool):
        return None
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            return None
    if result["attempted"] < 1:
        return None
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected_metrics(trace):
        return None
    if not all(isinstance(m.get("value"), (int, float))
               for m in result["metrics"].values()):
        return None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--regen-reference", action="store_true",
                    help="rewrite reference/<workload>.ref (seed 1 only)")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--reference-dir", str(REFERENCE_DIR)]
    if args.regen_reference:
        cmd.append("--regen-reference")
    setup_s = None if args.trace else setup_seconds(cmd)
    if args.trace:
        cmd += ["--spans-out",
                str(BUILD_DIR / f"spans-{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"paperbench exited with {done.returncode}")

    lines = done.stdout.rstrip("\n").split("\n")
    result = check_result(lines[-1], args.trace, setup_s)
    if result is None:
        fail("paperbench printed no well-formed result line")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
