#!/usr/bin/env python3
"""Bad-flag contract for the trident_sim CLI.

Every malformed or out-of-range numeric flag must fail fast with exactly
one stderr line and exit code 2 (never run, hang, or abort on an internal
check), and a valid small run must still exit 0.

Usage: trident_sim_flags_test.py PATH/TO/trident_sim
"""

import subprocess
import sys

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
]

VALID = ["--instr", "2000", "--warmup", "1000"]


def run(binary, args):
    return subprocess.run([binary, "--workload", "mcf"] + args,
                          capture_output=True, text=True, timeout=60)


def main():
    binary = sys.argv[1]
    failures = []
    for args in BAD:
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
    print(f"{len(BAD) + 1 - len(failures)}/{len(BAD) + 1} cases ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
