#!/usr/bin/env python3
"""Same-machine A/B gate over the repository benchmark (perfbench/).

Usage (from the repository root):

    python3 tools/perf_ab.py BASE_REF [--pairs N]

Adds detached git worktrees of BASE_REF (the parent) and of HEAD (the
change; uncommitted changes under src/ or perfbench/ are refused) side by
side under a temporary directory, and removes them however the run ends.
For every workload in BENCHMARK.json it runs perfbench/run.py in both
trees for N pairs (default 10; N must be even), one process at a time,
for run_seconds. Both sides of pair i use seed i; the parent runs first on
even pairs and the change first on odd pairs. N is even so that each side
runs first in exactly half the pairs: a penalty for running second, or a
drift in host speed, then favours neither side. Each tree builds its own
perfbench.

The gate, per workload: for every end-to-end metric, the median over pairs
of the change/parent ratio, oriented by the metric's "better", may be
worse by at most its limit: SIM_IPS_LIMIT for sim_ips, which overrides
BENCHMARK.json's bound for it, and the metric's bound for every other
metric. A metric within its limit is "unresolved" rather than "ok" when
the parent's own quartile distance over pairs, divided by its median,
exceeds the limit: runs that spread wider than the limit cannot show
that the metric held, unless every change run beats every parent run.
Any run with correct: false, or a failed/attempted share of the change
above the parent's, also fails the gate.

Prints one table (parent and change medians, the change's wins over pairs,
the parent's quartile distance over its median, the limit and the
verdict) and then one JSON line with both commits, host, compiler, pairs
and every median, win count and verdict; each run's sim_ips goes to
stderr as it finishes. Writes no files. Exits 0 when no metric and no run
fails (unresolved metrics are listed, not failed), 1 when the gate fails
or a run fails, 2 on a usage error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The regression limit on sim_ips, kept from the absolute-scoreboard gate
# this script replaced; it overrides BENCHMARK.json's bound for sim_ips, and
# the table marks it. The other metrics use BENCHMARK.json's bound.
SIM_IPS_LIMIT = 0.05
DEFAULT_PAIRS = 10
# One run builds its tree's perfbench (cold: a few minutes) and then runs
# for run_seconds; run.py itself stops the benchmark binary at 170 s.
RUN_TIMEOUT_S = 900


def schedule(pairs):
    """(pair, seed, side) in run order: P,C on even pairs, C,P on odd; with
    an even number of pairs each side runs first in half of them."""
    order = []
    for i in range(pairs):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        order += [(i, i, side) for side in sides]
    return order


def stamp(line, key):
    """The value of key=... (quoted or bare) on a '#' stamp line."""
    rest = line.split(f" {key}=", 1)[1]
    if rest.startswith('"'):
        return rest[1:].split('"', 1)[0]
    return rest.split()[0]


def parse_run(stdout):
    """One run's record: the result line plus host, compiler and commit."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    rec = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    for line in lines:
        if line.startswith("# host "):
            rec["host"] = stamp(line, "cpu")
        elif line.startswith("# build "):
            rec["compiler"] = stamp(line, "compiler")
            rec["commit"] = stamp(line, "commit")
    return rec


def quartile_distance(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def compare(end_to_end, parent, change):
    """Rows of the gate table for one workload; parent[i] and change[i] are
    the records of pair i."""
    rows = []
    for m in end_to_end:
        name, higher = m["name"], m["better"] == "higher"
        p = [r["metrics"][name] for r in parent]
        c = [r["metrics"][name] for r in change]
        ratio = statistics.median(b / a for a, b in zip(p, c))
        limit = SIM_IPS_LIMIT if name == "sim_ips" else m["bound"]
        worse_by = 1 - ratio if higher else ratio - 1
        parent_med, iqr = statistics.median(p), quartile_distance(p)
        spread = iqr / parent_med
        all_better = (min(c) > max(p)) if higher else (max(c) < min(p))
        if worse_by > limit:
            verdict = "FAIL"
        elif spread > limit and not all_better:
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append({"metric": name, "parent": parent_med,
                     "change": statistics.median(c), "ratio": ratio,
                     "wins": sum(b > a if higher else b < a
                                 for a, b in zip(p, c)),
                     "parent_iqr": iqr, "spread": spread, "limit": limit,
                     "verdict": verdict})
    return rows


def problems(rows, parent, change):
    """Why one workload fails the gate; empty when it passes."""
    out = [f"{r['metric']} is {abs(r['ratio'] - 1):.1%} worse "
           f"(limit {r['limit']:.0%})" for r in rows if r["verdict"] == "FAIL"]
    for side, runs in (("parent", parent), ("change", change)):
        if not all(r["correct"] for r in runs):
            out.append(f"a {side} run reports correct: false")

    def share(runs):
        return sum(r["failed"] for r in runs) / sum(r["attempted"]
                                                    for r in runs)
    if share(change) > share(parent):
        out.append(f"failed share rose from {share(parent):.4g} "
                   f"to {share(change):.4g}")
    return out


def run_one(tree, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return parse_run(proc.stdout)


def ab(bench, trees, pairs):
    runs = {}
    for w in (w["name"] for w in bench["workloads"]):
        runs[w] = {"parent": [None] * pairs, "change": [None] * pairs}
        for i, seed, side in schedule(pairs):
            rec = run_one(trees[side], w, seed, bench["run_seconds"])
            runs[w][side][i] = rec
            print(f"perf_ab: {w} pair {i + 1}/{pairs} {side} sim_ips "
                  f"{rec['metrics']['sim_ips']:.6g}", file=sys.stderr,
                  flush=True)
    first = runs[bench["workloads"][0]["name"]]
    verdict = {"base": first["parent"][0]["commit"],
               "change": first["change"][0]["commit"],
               "host": first["parent"][0]["host"],
               "compiler": first["parent"][0]["compiler"],
               "pairs": pairs, "pass": True, "workloads": {}}
    print(f"{'workload':<12} {'metric':<20} {'parent':>12} {'change':>12} "
          f"{'ratio':>7} {'wins':>6} {'IQR/med':>8} {'limit':>6}  verdict")
    for w, sides in runs.items():
        rows = compare(bench["end_to_end"], sides["parent"], sides["change"])
        for r in rows:
            mark = "*" if r["metric"] == "sim_ips" else " "
            print(f"{w:<12} {r['metric']:<20} {r['parent']:>12.6g} "
                  f"{r['change']:>12.6g} {r['ratio']:>7.4f} "
                  f"{r['wins']:>3}/{pairs:<2} {r['spread']:>8.1%} "
                  f"{r['limit']:>5.0%}{mark}  {r['verdict']}")
        for msg in problems(rows, sides["parent"], sides["change"]):
            print(f"FAIL {w}: {msg}")
            verdict["pass"] = False
        verdict["workloads"][w] = {
            r["metric"]: {k: r[k] for k in ("parent", "change", "wins",
                                            "verdict")}
            for r in rows}
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"* SIM_IPS_LIMIT of tools/perf_ab.py, in place of the "
          f"{bound['sim_ips']:.0%} bound in BENCHMARK.json. unresolved: "
          f"within the limit, but the parent's IQR/med exceeds it")
    print(json.dumps(verdict, sort_keys=True))
    return 0 if verdict["pass"] else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_ref", help="the parent: a commit, branch or tag")
    ap.add_argument("--pairs", type=int, default=DEFAULT_PAIRS)
    args = ap.parse_args()
    if args.pairs < 2 or args.pairs % 2:
        ap.error("--pairs must be even and >= 2, so that each side runs "
                 "first in half the pairs")
    dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                            "--", "src", "perfbench"], capture_output=True,
                           text=True, check=True).stdout
    if dirty:
        ap.error("the change is HEAD: commit the changes under src/ and "
                 "perfbench/ first")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # Both sides are worktrees at paths of equal length, built cold and run
    # the same way, so they differ only in their commit, and each run's
    # commit stamp names what was measured.
    refs = {"parent": args.base_ref, "change": "HEAD"}
    tmp = tempfile.mkdtemp(prefix="perf_ab-")
    trees = {side: os.path.join(tmp, side) for side in refs}
    try:
        for side, ref in refs.items():
            subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                            trees[side], ref], check=True, stdout=sys.stderr)
        return ab(bench, trees, args.pairs)
    except (subprocess.SubprocessError, RuntimeError, ValueError,
            LookupError) as e:
        print(f"perf_ab: {e}", file=sys.stderr)
        return 1
    finally:
        for tree in trees.values():
            subprocess.run(["git", "-C", ROOT, "worktree", "remove",
                            "--force", tree], stderr=subprocess.DEVNULL)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"])


if __name__ == "__main__":
    sys.exit(main())
