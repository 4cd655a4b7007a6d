#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-solo|arsenal-mix|fuzz-short \
        [--seed N] [--seconds S] [--trace 0|1]

The first call configures and builds perfbench/ (the simulator libraries
from src/ plus trident_perfbench) into .bench_build/perfbench; later calls
reuse that build. trident_perfbench's stdout is passed through; its last
line is one JSON object with the keys correct, attempted, failed and
metrics. A full report (per-metric sample counts and quartiles) and, for
--trace 1, a Chrome-trace file of the benchmark's spans are written under
.bench_build/perfbench/out. Exits nonzero, without a result line, when the
build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "trident_perfbench")
WORKLOADS = ("paper-solo", "arsenal-mix", "fuzz-short")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds trident_perfbench; True on success."""
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "trident_perfbench",
                  "-j", str(min(os.cpu_count() or 1, 4))])
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the benchmark's.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return False
    return os.path.exists(BINARY)


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instr", type=int, default=0,
                    help="override the measured window (self-test only)")
    ap.add_argument("--warmup", type=int, default=100000,
                    help="override the warmup window (self-test only)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1 or args.instr < 0 or args.warmup < 0:
        ap.error("--seed, --instr and --warmup must be >= 0, --seconds >= 1")

    if not build():
        return 1
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--warmup", str(args.warmup), "--out-dir", out_dir,
           "--commit", git_commit()]
    if args.instr:
        cmd += ["--instr", str(args.instr)]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        log(f"trident_perfbench exceeded {RUN_TIMEOUT_S} s")
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
