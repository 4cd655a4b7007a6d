#!/usr/bin/env python3
"""Bad-flag contract for the trident_sim CLI.

Every malformed or out-of-range numeric flag, knob spec or fault plan must
fail fast with exactly one stderr line and exit code 2 (never run, hang, or
abort on an internal check), and a valid small run must still exit 0.

Usage: trident_sim_flags_test.py PATH/TO/trident_sim
"""

import os
import subprocess
import sys
import tempfile

BAD = [
    ["--instr", "abc"],
    ["--instr", "-5"],
    ["--warmup", "-1"],
    ["--distance-cap", "x"],
    ["--window", "0"],
    ["--dlt-entries", "0"],
    ["--dlt-entries", "3"],
    ["--trace-capacity", "0"],
    ["--instr", "99999999999999999999999"],
    ["--mix-quantum", "0"],
    ["--miss-threshold", "300"],
    # Knob specs share the one grammar: each of these used to abort,
    # segfault, run out of memory, hang, or silently read hex.
    ["--hwpf", "dcpt:entries=0"],
    ["--hwpf", "sb8x8:buffers=0"],
    ["--hwpf", "tskid:buffer=4294967295"],
    ["--hwpf", "enhanced-stream:degree=4294967295"],
    ["--hwpf", "dcpt:entries=0x10"],
    ["--hwpf", "dcpt:entries=64,"],
    # A zero-slot prefetch buffer used to run silently as a one-slot one.
    ["--hwpf", "dcpt:buffer=0"],
    ["--hwpf", "tskid:buffer=0"],
    ["--selector", "bandit:ucb=2"],
    ["--selector", "bandit:eps=0x3e8"],
]

# A fault plan whose extra_mem does not fit the unsigned latency field
# (it used to wrap to 0 and run as a no-op spike).
BAD_PLAN = ('{"actions":[{"kind":"latency-spike","at_cycle":1,'
            '"extra_mem":4294967296}]}')

VALID = ["--instr", "2000", "--warmup", "1000"]


def run(binary, args):
    return subprocess.run([binary, "--workload", "mcf"] + args,
                          capture_output=True, text=True, timeout=60)


def main():
    binary = sys.argv[1]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        plan = os.path.join(tmp, "bad_plan.json")
        with open(plan, "w") as f:
            f.write(BAD_PLAN)
        cases = BAD + [["--faults", plan]]
        for args in cases:
            r = run(binary, args)
            lines = r.stderr.splitlines()
            if r.returncode != 2 or len(lines) != 1:
                failures.append(f"{' '.join(args)}: exit {r.returncode}, "
                                f"{len(lines)} stderr line(s): {r.stderr!r}")
    r = run(binary, VALID)
    if r.returncode != 0:
        failures.append(f"valid run {' '.join(VALID)}: exit {r.returncode}: "
                        f"{r.stderr!r}")
    for f in failures:
        print("FAIL", f)
    total = len(cases) + 1
    print(f"{total - len(failures)}/{total} cases ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
