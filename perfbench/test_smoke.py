#!/usr/bin/env python3
"""The benchmark's own test: every workload, untraced and traced, in smoke
mode (tiny inputs), must pass its correctness checks and report exactly the
metrics BENCHMARK.json names, with the same units.

    python3 perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    spec = load_spec()

    def check(self, workload, trace, section):
        lines, result = run(workload, trace)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], "\n".join(lines[:-1]))
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in self.spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        stamp = [line for line in lines if line.startswith("# stamp:")]
        self.assertEqual(len(stamp), 1)
        for field in ("seed=3", "nproc=", "cpu=", "compiler=", "build="):
            self.assertIn(field, stamp[0])
        return result

    def test_workloads_untraced(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                result = self.check(w["name"], 0, "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_workloads_traced(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 1, "per_layer")

    def test_same_seed_same_work_counts(self):
        # The first run of a seed records its work counts; a second run in
        # the same build directory must reproduce them or fail its check.
        for _ in range(2):
            _, result = run("walk-local", 1, seed=5)
            self.assertTrue(result["correct"])

    def test_rejects_unknown_workload(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", "nope", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
            check=False)
        self.assertNotEqual(proc.returncode, 0)


if __name__ == "__main__":
    unittest.main()
