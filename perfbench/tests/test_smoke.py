"""Smoke tests for the benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v     (from the repo root)

Each test runs perfbench/run.py at --scale tiny, so the whole file takes
well under a minute once perfbench_driver is built (the first run builds it).
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import unittest
from unittest import mock

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run_bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=900)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class WorkloadSmokeTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        expected = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_emits_every_metric(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, result = run_bench(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.check_metrics(result, declared)

    def test_counts_repeat_exactly(self):
        # Counts and simulated statistics are functions of the seed alone;
        # only host measurements may differ between two runs.
        host_units = {"s", "x", "ns"}
        host_names = {"peer.bytes_per_peer", "experiment.worker_utilization",
                      "experiment.peer_au_years_per_s"}
        _, first = run_bench("hostile_dynamics", 1, seed=5)
        _, second = run_bench("hostile_dynamics", 1, seed=5)
        for name, m in first["metrics"].items():
            if m["unit"] not in host_units and name not in host_names:
                self.assertEqual(m["value"], second["metrics"][name]["value"], name)


class GateTest(unittest.TestCase):
    @staticmethod
    def report(digest="00000000000000aa", **unit):
        u = {"spec": "s", "label": "cell", "ok": True, "error": "", "digest": digest,
             "afp": 0.25, "stale_sessions_at_end": 0, "reservations_beyond_horizon": 0}
        u.update(unit)
        return {"units": [u]}

    def test_identical_passes_pass(self):
        self.assertEqual(run.gate_errors([("untraced", [self.report(), self.report()]),
                                          ("traced", [self.report()])]), [])

    def test_corrupted_digest_trips(self):
        errors = run.gate_errors([("untraced", [self.report()]),
                                  ("traced", [self.report(digest="00000000000000ab")])])
        self.assertEqual(len(errors), 1)
        self.assertIn("digest differs", errors[0])

    def test_invariants_trip(self):
        for unit in ({"afp": 1.5}, {"afp": -0.1}, {"stale_sessions_at_end": 2},
                     {"reservations_beyond_horizon": 1}, {"ok": False, "error": "boom"}):
            with self.subTest(unit=unit):
                self.assertEqual(len(run.gate_errors([("untraced", [self.report(**unit)])])), 1)

    def test_command_fails_on_corrupted_digest(self):
        # Corrupt the traced pass's digests as they come back from the
        # driver: the command must print correct=false and exit 1.
        real_rep = run.Runner.rep

        def corrupting_rep(self, mode, shards, journal_dir=None):
            report, out_dir = real_rep(self, mode, shards, journal_dir)
            if report is not None and mode == "traced":
                report["units"][0]["digest"] = "corrupt"
            return report, out_dir

        out = io.StringIO()
        cwd = os.getcwd()
        os.chdir(REPO_ROOT)
        try:
            with mock.patch.object(run.Runner, "rep", corrupting_rep), \
                    contextlib.redirect_stdout(out):
                code = run.main(["--workload", "large_deployment", "--seed", "1",
                                 "--seconds", "0.2", "--trace", "1", "--scale", "tiny"])
        finally:
            os.chdir(cwd)
        self.assertEqual(code, 1)
        self.assertFalse(json.loads(out.getvalue().strip().splitlines()[-1])["correct"])
        self.assertIn("GATE", out.getvalue())


if __name__ == "__main__":
    unittest.main()
