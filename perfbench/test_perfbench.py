#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

- the self-test: every correctness check rejects deliberately wrong
  results (dropped row, extra row, row outside the path, stale token,
  diverged restart) and accepts right ones;
- a small-scale smoke run of each workload, untraced and traced, which must
  be correct with no failed operation and report every declared metric;
  with --strict, run.py fails the run when the binary itself does not
  report a per-layer metric the workload exercises, or reports 0 for one
  that must be above 0;
- the benchmark, copied without the program's sources, fails without
  printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN] + list(args), cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    return proc.returncode, proc.stdout, proc.stderr


class SelfTest(unittest.TestCase):
    def test_checks_reject_wrong_results(self):
        code, out, err = run("--selftest")
        self.assertEqual(code, 0, err[-2000:])
        self.assertIn("selftest: ok", out)


class Strict(unittest.TestCase):
    """run.py's strict mode rejects a per-layer metric the binary did not
    report, or reports as 0, and zero-fills only the ones the workload
    does not exercise."""

    def setUp(self):
        sys.path.insert(0, HERE)
        import run as runpy_module
        self.run_module = runpy_module
        self.declared = spec()["per_layer"]
        self.full = {m["name"]: {"value": 1.5, "unit": m["unit"]}
                     for m in self.declared}

    def collect(self, reported, workload, strict=True):
        return self.run_module.collect(self.declared, reported, workload,
                                       True, strict)

    def test_accepts_full_report(self):
        metrics, error = self.collect(self.full, "churn")
        self.assertEqual(error, "")
        self.assertEqual(set(metrics), set(self.full))

    def test_rejects_dropped_probe(self):
        reported = dict(self.full)
        del reported["index.descendants_ms.papers"]
        self.assertNotEqual(self.collect(reported, "search")[1], "")
        metrics, error = self.collect(reported, "search", strict=False)
        self.assertEqual(error, "")
        self.assertEqual(metrics["index.descendants_ms.papers"]["value"], 0)

    def test_rejects_zero_timing(self):
        reported = dict(self.full)
        reported["index.live_ms"] = {"value": 0, "unit": "ms"}
        self.assertNotEqual(self.collect(reported, "churn")[1], "")

    def test_zero_fills_unexercised(self):
        reported = {name: value for name, value in self.full.items()
                    if not name.startswith("storage.")}
        metrics, error = self.collect(reported, "search")
        self.assertEqual(error, "")
        self.assertEqual(metrics["storage.restart_s"]["value"], 0)
        self.assertNotEqual(self.collect(reported, "churn")[1], "")


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        code, out, err = run("--workload", workload, "--seed", "5",
                             "--seconds", "1", "--trace", str(trace),
                             "--small", "--out", ".bench_out/smoke",
                             "--strict")
        self.assertEqual(code, 0, err[-2000:])
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], err[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        declared = spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)

    def test_search(self):
        self.check("search", 0)

    def test_search_traced(self):
        self.check("search", 1)

    def test_churn(self):
        self.check("churn", 0)

    def test_churn_traced(self):
        self.check("churn", 1)


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        with tempfile.TemporaryDirectory(
                dir=os.path.join(ROOT, ".bench_out")) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "search",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180,
                env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
