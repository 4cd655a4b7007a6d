#!/usr/bin/env python3
"""Self-test of the repository benchmark at a tiny budget.

Usage (from the repository root):

    python3 perfbench/selftest.py

For every workload run.py accepts (the ones in BENCHMARK.json plus
fuzz-short, which is runnable but not listed) it runs perfbench/run.py twice
untraced and twice traced with one seed, at a measured window and warmup
of 2000 instructions, and asserts that
  * the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics;
  * every end-to-end metric (untraced) and every per-layer metric (traced)
    of BENCHMARK.json is printed, with its unit, and nothing else;
  * nothing failed (fail_frac is 0) and correct is true;
  * the simulated metrics (ipc_geomean, srp_speedup_geomean) and every
    registry count match across the two runs.
Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-solo", "arsenal-mix", "fuzz-short")
SIMULATED = {"ipc_geomean", "srp_speedup_geomean"}
# Per-layer metrics that are simulated results rather than host time.
DETERMINISTIC_UNITS = {"count", "cycles", "events/instr"}
DETERMINISTIC_RATIOS = {
    "mem.miss_rate", "hwpf.accuracy", "hwpf.coverage",
    "trident.miss_coverage", "cpu.helper_busy_frac",
}


def run(workload, trace, seed=7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--instr", "2000", "--warmup", "2000"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(res, expected, where):
    errors = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(res)}")
    if res.get("failed") != 0 or res.get("correct") is not True:
        errors.append(f"{where}: failed={res.get('failed')} "
                      f"correct={res.get('correct')}")
    if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
        errors.append(f"{where}: attempted={res.get('attempted')}")
    got = res.get("metrics", {})
    if set(got) != set(expected):
        errors.append(f"{where}: metrics differ: missing "
                      f"{sorted(set(expected) - set(got))}, extra "
                      f"{sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append(f"{where}: {name} unit {m.get('unit')} != {unit}")
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{where}: {name} value {m.get('value')!r}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    repeat_exact = {n for n, u in layer.items()
                    if u in DETERMINISTIC_UNITS or n in DETERMINISTIC_RATIOS}
    errors = []
    listed = {x["name"] for x in bench["workloads"]}
    if not listed <= set(WORKLOADS):
        errors.append(f"BENCHMARK.json lists unknown workloads "
                      f"{sorted(listed - set(WORKLOADS))}")
    for w in WORKLOADS:
        for trace, expected, exact in ((0, e2e, SIMULATED),
                                       (1, layer, repeat_exact)):
            a = run(w, trace)
            b = run(w, trace)
            where = f"{w} --trace {trace}"
            errors += check_result(a, expected, where)
            errors += check_result(b, expected, where)
            for name in sorted(exact):
                va = a["metrics"].get(name, {}).get("value")
                vb = b["metrics"].get(name, {}).get("value")
                if va != vb:
                    errors.append(f"{where}: {name} differs across runs: "
                                  f"{va} vs {vb}")
            print(f"selftest: {where}: {len(a['metrics'])} metrics, "
                  f"{a['attempted']} job executions checked", flush=True)
    for e in errors:
        print(f"selftest: FAIL {e}", file=sys.stderr)
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
