#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at shrunk sizes.

usage: python3 perfbench/test_bench.py    (from anywhere in the checkout)

For every workload: an untraced run prints every end_to_end metric of
BENCHMARK.json with its unit, a traced run every per_layer metric, both
runs are correct, and a deliberately wrong reference makes failed_frac
non-zero. Also checks that the benchmark refuses to run, with a non-zero
exit and no result, where only BENCHMARK.json and perfbench/ exist.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--smoke", *extra],
        cwd=root, capture_output=True, text=True, timeout=900)


def result_of(process):
    if process.returncode != 0:
        raise AssertionError(f"exit {process.returncode}: "
                             f"{process.stderr[-2000:]}")
    lines = process.stdout.strip().splitlines()
    context = next(json.loads(line)["context"] for line in lines
                   if line.startswith('{"context"'))
    return context, json.loads(lines[-1])


class BenchmarkSmokeTest(unittest.TestCase):
    def assert_prints(self, result, declared):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        printed = result["metrics"]
        self.assertEqual(set(printed), {m["name"] for m in declared})
        for metric in declared:
            self.assertEqual(printed[metric["name"]]["unit"],
                             metric["unit"], metric["name"])
            self.assertIsInstance(printed[metric["name"]]["value"],
                                  (int, float))

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                context, result = result_of(run(workload, 0))
                self.assert_prints(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertTrue(context["optimized"] and context["ndebug"])
                self.assertEqual(context["seed"], 3)

    def test_traced_runs_print_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, result = result_of(run(workload, 1))
                self.assert_prints(result, SPEC["per_layer"])
                self.assertTrue(result["correct"])

    def test_wrong_reference_makes_failed_frac_nonzero(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, result = result_of(run(workload, 0, "--wrong-reference"))
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_refuses_without_the_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            process = run(WORKLOADS[0], 0, root=bare)
            self.assertNotEqual(process.returncode, 0)
            self.assertNotIn('"metrics"', process.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
