#!/usr/bin/env python3
"""Self-test of tools/perf_ab.py's decision logic.

Feeds synthetic run records to the gate's pure functions (schedule,
parse_run, compare, problems) against the repository's own BENCHMARK.json,
and checks that the command line refuses an odd pair count, so no
benchmark runs. ctest runs this as perf_ab_test.

Exit: 0 when every case passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import perf_ab  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    END_TO_END = json.load(f)["end_to_end"]
BASE = {m["name"]: 100.0 for m in END_TO_END}


def record(scale=None, correct=True, failed=0, attempted=100):
    """A run whose metrics are all 100, times scale[name] where given."""
    scale = scale or {}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: v * scale.get(k, 1.0) for k, v in BASE.items()}}


def gate(parent, change):
    rows = perf_ab.compare(END_TO_END, parent, change)
    return rows, perf_ab.problems(rows, parent, change)


def failing(rows):
    return [r["metric"] for r in rows if r["verdict"] == "FAIL"]


def verdict(rows, metric):
    return next(r["verdict"] for r in rows if r["metric"] == metric)


class Gate(unittest.TestCase):
    def test_identical_runs_pass(self):
        rows, msgs = gate([record()] * 5, [record()] * 5)
        self.assertEqual(msgs, [])
        self.assertTrue(all(r["wins"] == 0 and r["ratio"] == 1.0
                            and r["verdict"] == "ok" for r in rows))

    def test_sim_ips_limit_is_five_percent(self):
        rows, msgs = gate([record()] * 5,
                          [record({"sim_ips": 0.94})] * 5)
        self.assertEqual(failing(rows), ["sim_ips"])
        self.assertIn("sim_ips", msgs[0])
        rows, msgs = gate([record()] * 5,
                          [record({"sim_ips": 0.96})] * 5)
        self.assertEqual(msgs, [])

    def test_gate_reads_the_median_pair_ratio(self):
        # Two pairs 10% slower out of five do not move the median.
        change = [record({"sim_ips": s}) for s in (0.9, 0.9, 1, 1, 1)]
        _, msgs = gate([record()] * 5, change)
        self.assertEqual(msgs, [])
        change = [record({"sim_ips": s}) for s in (0.9, 0.9, 0.9, 1, 1)]
        rows, _ = gate([record()] * 5, change)
        self.assertEqual(failing(rows), ["sim_ips"])

    def test_other_metrics_use_their_bound(self):
        rows, _ = gate([record()] * 3,
                       [record({"srp_speedup_geomean": 0.89})] * 3)
        self.assertEqual(failing(rows), ["srp_speedup_geomean"])
        rows, _ = gate([record()] * 3,
                       [record({"srp_speedup_geomean": 0.91})] * 3)
        self.assertEqual(failing(rows), [])

    def test_lower_is_better_metric_is_oriented(self):
        rows, _ = gate([record()] * 3, [record({"setup_s": 1.26})] * 3)
        self.assertEqual(failing(rows), ["setup_s"])
        rows, _ = gate([record()] * 3, [record({"setup_s": 1.24})] * 3)
        self.assertEqual(failing(rows), [])
        # Falling is better for setup_s: a win, not a failure.
        rows, _ = gate([record()] * 3, [record({"setup_s": 0.5})] * 3)
        self.assertEqual(failing(rows), [])
        self.assertEqual(
            next(r["wins"] for r in rows if r["metric"] == "setup_s"), 3)

    def test_higher_failed_share_fails(self):
        _, msgs = gate([record()] * 2, [record(), record(failed=1)])
        self.assertEqual(len(msgs), 1)
        self.assertIn("failed share", msgs[0])
        # A failure on the parent alone does not fail the change.
        _, msgs = gate([record(failed=1), record()], [record()] * 2)
        self.assertEqual(msgs, [])

    def test_incorrect_run_fails(self):
        _, msgs = gate([record()] * 2, [record(), record(correct=False)])
        self.assertIn("a change run reports correct: false", msgs)
        _, msgs = gate([record(correct=False), record()], [record()] * 2)
        self.assertIn("a parent run reports correct: false", msgs)

    def test_noisy_parent_leaves_a_passing_metric_unresolved(self):
        # The parent's sim_ips quartiles are 20% apart, wider than the 5%
        # limit: a median within the limit cannot show that it held.
        parent = [record({"sim_ips": s}) for s in (0.8, 0.9, 1.0, 1.1, 1.2)]
        rows, msgs = gate(parent, parent)
        self.assertEqual(verdict(rows, "sim_ips"), "unresolved")
        self.assertEqual(verdict(rows, "batch_s"), "ok")
        self.assertEqual(msgs, [])
        # A loss beyond the limit still fails.
        slower = [record({"sim_ips": s * 0.9}) for s in (0.8, 0.9, 1.0, 1.1,
                                                          1.2)]
        rows, msgs = gate(parent, slower)
        self.assertEqual(failing(rows), ["sim_ips"])
        self.assertIn("sim_ips", msgs[0])
        # Every change run above every parent run resolves it.
        faster = [record({"sim_ips": 1.3})] * 5
        rows, _ = gate(parent, faster)
        self.assertEqual(verdict(rows, "sim_ips"), "ok")

    def test_parent_iqr(self):
        parent = [record({"sim_ips": s}) for s in (0.8, 0.9, 1.0, 1.1, 1.2)]
        rows, _ = gate(parent, parent)
        iqr = next(r["parent_iqr"] for r in rows if r["metric"] == "sim_ips")
        self.assertAlmostEqual(iqr, 20.0)


class Schedule(unittest.TestCase):
    def test_order_alternates_and_pairs_share_a_seed(self):
        self.assertEqual(perf_ab.schedule(4), [
            (0, 0, "parent"), (0, 0, "change"),
            (1, 1, "change"), (1, 1, "parent"),
            (2, 2, "parent"), (2, 2, "change"),
            (3, 3, "change"), (3, 3, "parent")])

    def test_parent_goes_first_in_exactly_half_the_pairs(self):
        for pairs in (2, perf_ab.DEFAULT_PAIRS):
            order = perf_ab.schedule(pairs)
            firsts = [side for k, (_, _, side) in enumerate(order)
                      if k % 2 == 0]
            self.assertEqual(firsts.count("parent"), pairs // 2)
            self.assertEqual(firsts.count("change"), pairs // 2)

    def test_odd_pair_count_is_refused(self):
        for pairs in ("5", "0"):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "perf_ab.py"), "HEAD",
                 "--pairs", pairs], capture_output=True, text=True)
            self.assertEqual(proc.returncode, 2)
            self.assertIn("even", proc.stderr)


class Parse(unittest.TestCase):
    def test_reads_result_line_and_stamps(self):
        out = "\n".join([
            "# perfbench workload=paper-solo seed=0 seconds=55 trace=0",
            '# host cpu="Intel(R) Xeon(R) CPU @ 2.20GHz" nproc=4 threads=4',
            '# build compiler="GCC 12.2.0" build_type=Release commit=abc123',
            "# metric sim_ips 5e6 instr/s n=3 q1=4e6 q3=6e6",
            json.dumps({"correct": True, "attempted": 588, "failed": 0,
                        "metrics": {"sim_ips": {"value": 5e6,
                                                "unit": "instr/s"}}}),
        ])
        self.assertEqual(perf_ab.parse_run(out), {
            "correct": True, "attempted": 588, "failed": 0,
            "metrics": {"sim_ips": 5e6},
            "host": "Intel(R) Xeon(R) CPU @ 2.20GHz",
            "compiler": "GCC 12.2.0", "commit": "abc123"})

    def test_missing_result_line_is_an_error(self):
        with self.assertRaises(ValueError):
            perf_ab.parse_run("# host cpu=\"x\" nproc=1 threads=1\n")


if __name__ == "__main__":
    unittest.main()
