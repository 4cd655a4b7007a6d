#!/usr/bin/env python3
"""Contract of the trident_figures driver, at a tiny instruction budget.

* An unknown figure name exits 2 with exactly one stderr line and empty
  stdout, before anything is simulated.
* A JSONL write error exits 1 with one stderr line naming the path
  (TRIDENT_FIG9_OUT=/dev/full: the open succeeds, the writes fail).
* Cross-figure memo cache: `fig4_coverage fig5_speedup fig6_breakdown` in
  one process prints byte for byte what the three print run alone. In the
  shared run fig5's self-repairing column and all of fig6 are served from
  fig4's cached cells, so this diffs cache hits against fresh simulations.

Usage: trident_figures_test.py PATH/TO/trident_figures
"""

import os
import subprocess
import sys


def env(**extra):
    base = {k: v for k, v in os.environ.items()
            if not k.startswith("TRIDENT_")}
    base.update(TRIDENT_BENCH_INSTR="2000", TRIDENT_BENCH_JOBS="2")
    base.update(extra)
    return base


def run(binary, names, **extra):
    return subprocess.run([binary] + names, capture_output=True, text=True,
                          env=env(**extra), timeout=300)


def main():
    binary = sys.argv[1]
    failures = []

    r = run(binary, ["fig2_baseline", "no_such_figure"])
    lines = r.stderr.splitlines()
    if r.returncode != 2 or len(lines) != 1 or r.stdout:
        failures.append(f"unknown name: rc={r.returncode} stderr={lines!r} "
                        f"stdout={len(r.stdout)} bytes")
    elif "no_such_figure" not in lines[0]:
        failures.append(f"unknown name not named: {lines[0]!r}")

    r = run(binary, ["fig9_hw_vs_sw"], TRIDENT_FIG9_OUT="/dev/full",
            TRIDENT_FIG9_WORKLOADS="mcf", TRIDENT_FIG9_HWPF="sb8x8")
    lines = r.stderr.splitlines()
    if r.returncode != 1 or len(lines) != 1 or "/dev/full" not in lines[0]:
        failures.append(f"/dev/full: rc={r.returncode} stderr={lines!r}")

    figures = ["fig4_coverage", "fig5_speedup", "fig6_breakdown"]
    alone = ""
    for name in figures:
        r = run(binary, [name])
        if r.returncode != 0:
            failures.append(f"{name} alone: rc={r.returncode} {r.stderr!r}")
        alone += r.stdout
    r = run(binary, figures)
    if r.returncode != 0:
        failures.append(f"shared run: rc={r.returncode} {r.stderr!r}")
    if r.stdout != alone:
        failures.append("shared run's stdout differs from the three run "
                        "alone")

    for f in failures:
        print("FAIL:", f)
    print(f"trident_figures contract: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
