#!/usr/bin/env python3
"""Self-tests of the benchmark: run from the root of a checkout with

    python3 perfbench/test_perfbench.py

Every workload runs at its smoke size, untraced and traced. Each run
must report every check passed, and every metric it prints must appear
in BENCHMARK.json with the same unit (run.py refuses the run otherwise).
BENCHMARK.json itself is checked against the limits its readers rely on.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkJson(unittest.TestCase):
    def test_shape(self):
        b = load_bench()
        self.assertEqual(sorted(b), ["command", "end_to_end", "paths",
                                     "per_layer", "run_seconds", "workloads"])
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        names = [w["name"] for w in b["workloads"]]
        for w in b["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        e2e = {m["name"]: m for m in b["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        for m in b["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in b["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
        for m in b["end_to_end"] + b["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)), "a name is reused")


class SmokeRuns(unittest.TestCase):
    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "5", "--seconds", "1", "--trace",
             str(trace), "--smoke"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        self.assertTrue(result["correct"], proc.stdout[-4000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result["metrics"]

    def test_workloads(self):
        b = load_bench()
        units = {m["name"]: m["unit"]
                 for m in b["end_to_end"] + b["per_layer"]}
        for w in b["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    metrics = self.run_bench(w["name"], trace)
                    for name, m in metrics.items():
                        self.assertEqual(units.get(name), m["unit"], name)
                    if trace == 0:
                        for name, m in metrics.items():
                            self.assertGreater(m["value"], 0, name)

    def test_unknown_workload_fails(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "no-such-workload", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=900)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
