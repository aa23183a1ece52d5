#!/usr/bin/env python3
"""Self-test of the benchmark at toy size.

    python3 perfbench/test_selftest.py

Runs every workload untraced and traced on the toy plans and checks the
result line, the metric name sets against BENCHMARK.json, the output
invariants, that tracing does not perturb the simulation, that `compare.py`
refuses runs that simulated different things or ran different seeds, and
that the benchmark fails without printing a result where the repository's
sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SEED = 3

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# Every workload the runner knows, including any kept out of BENCHMARK.json.
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def run(workload, trace, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, env=env, timeout=900)


def result_file(workload, trace):
    with open(os.path.join(OUT, f"{workload}-seed{SEED}-trace{trace}.json")) as f:
        return json.load(f)


class Workloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.lines = {}
        for w in WORKLOADS:
            for trace in (0, 1):
                p = run(w, trace)
                if p.returncode != 0:
                    raise AssertionError(f"{w} trace {trace} failed:\n{p.stdout}\n{p.stderr}")
                cls.lines[w, trace] = json.loads(p.stdout.strip().splitlines()[-1])

    def test_benchmark_workloads_are_runnable(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))

    def test_result_line_and_metric_names(self):
        for (w, trace), r in self.lines.items():
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(r["correct"])
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], 0)
                spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
                self.assertEqual(set(r["metrics"]), {m["name"] for m in spec})
                for m in spec:
                    self.assertEqual(r["metrics"][m["name"]]["unit"], m["unit"])
                    self.assertIsInstance(r["metrics"][m["name"]]["value"], (int, float))
                if not trace:
                    for name, m in r["metrics"].items():
                        self.assertGreater(m["value"], 0, name)

    def test_invariants(self):
        for w in WORKLOADS:
            m = result_file(w, 0)["metrics"]
            with self.subTest(workload=w):
                self.assertLessEqual(m["delivered"], m["expected"])
                lost = sum(v for k, v in m.items() if k.startswith("loss."))
                self.assertEqual(lost, m["expected"] - m["delivered"])
                self.assertLessEqual(m["antientropy.recovered"], m["delivered"])

    def test_tracing_does_not_perturb(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = result_file(w, 0), result_file(w, 1)
                self.assertEqual(a["fingerprint"], b["fingerprint"])
                self.assertTrue(os.path.getsize(os.path.join(ROOT, b["spans"])) > 0)

    def test_repair_and_churn_are_exercised(self):
        m = result_file("rvr-churn-repair", 0)["metrics"]
        self.assertGreater(m["antientropy.ae_digest_sent"], 0)
        self.assertGreater(m["engine.activations_stop"], 0)
        self.assertGreater(m["net.loss_ratio"], 0)

    def test_compare_refuses_different_simulations(self):
        base = os.path.join(OUT, f"vitis-gossip-seed{SEED}-trace0.json")
        other = os.path.join(OUT, "selftest-altered.json")
        r = result_file("vitis-gossip", 0)
        r["fingerprint_hash"] = "0" * 16
        with open(other, "w") as f:
            json.dump(r, f)
        cmp = [sys.executable, os.path.join(HERE, "compare.py"), "--base", base, "--new"]
        self.assertEqual(subprocess.run(cmp + [other], capture_output=True).returncode, 2)
        # A deliberate change to the simulation is judged on the sim metrics.
        self.assertEqual(subprocess.run(cmp + [other, "--sim-changed"],
                                        capture_output=True).returncode, 0)
        r = result_file("vitis-gossip", 0)
        r["provenance"]["plan"]["nodes"] += 1
        with open(other, "w") as f:
            json.dump(r, f)
        self.assertEqual(subprocess.run(cmp + [other], capture_output=True).returncode, 2)
        # The two sides must run the same seeds.
        r = result_file("vitis-gossip", 0)
        r["provenance"]["seed"] += 1
        with open(other, "w") as f:
            json.dump(r, f)
        self.assertEqual(subprocess.run(cmp + [other], capture_output=True).returncode, 2)
        self.assertEqual(subprocess.run(cmp + [base, other], capture_output=True).returncode, 2)
        self.assertEqual(subprocess.run(cmp + [base], capture_output=True).returncode, 0)


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        bare = os.path.join(OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        p = run("vitis-gossip", 0, cwd=bare, env=env)
        self.assertNotEqual(p.returncode, 0)
        for line in p.stdout.splitlines():
            self.assertFalse(line.startswith("{"), line)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
