#!/usr/bin/env python3
"""Tests of the pdbd benchmark itself, on the tiny --smoke configuration.

    python3 perfbench/test_bench.py

Each test runs perfbench/run.py (which builds pdbd and pdbbench on first
use) and checks its output.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload run.py accepts, including ingest-read, which is not in
# BENCHMARK.json (see README.md).
WORKLOADS = ("hot-read", "cold-read", "ingest-read")


def run(workload, trace=0, seed=1, extra=()):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"run.py failed ({done.returncode}): {done.stderr}")
    lines = done.stdout.strip().splitlines()
    metrics = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit, samples = line.split()
            metrics[name] = (float(value), unit, int(samples.removeprefix("samples=")))
    return lines, metrics, json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    def check_result(self, names, lines, metrics, result):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(names))
        for name, unit in names.items():
            self.assertIn(name, metrics, f"no 'metric {name}' line")
            self.assertEqual(metrics[name][1], unit, name)
            self.assertGreaterEqual(metrics[name][2], 1, f"{name} has no samples")
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertIsInstance(result["metrics"][name]["value"], (int, float))

    def test_every_end_to_end_metric_is_printed_with_unit_and_samples(self):
        names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, metrics, result = run(workload, trace=0)
                self.check_result(names, lines, metrics, result)
                self.assertEqual(metrics["error_share"][0], 0.0)

    def test_every_per_layer_metric_is_printed_and_replay_matches_http(self):
        names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, metrics, result = run(workload, trace=1)
                self.check_result(names, lines, metrics, result)
                replay = [l for l in lines if l.startswith("# replay:")]
                self.assertEqual(len(replay), 1)
                self.assertTrue(replay[0].startswith("# replay: 0 of "), replay[0])

    def test_corrupted_answer_counts_in_error_share(self):
        lines, metrics, result = run("hot-read", extra=("--corrupt", "0"))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertAlmostEqual(metrics["error_share"][0], 1.0 / result["attempted"], places=5)

    def test_ingest_read_counts_repeat_exactly(self):
        first = [l for l in run("ingest-read", seed=7)[0] if l.startswith("count ")]
        second = [l for l in run("ingest-read", seed=7)[0] if l.startswith("count ")]
        self.assertTrue(first)
        self.assertEqual(first, second)


if __name__ == "__main__":
    unittest.main()
