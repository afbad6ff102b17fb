#!/usr/bin/env python3
"""Tests of the A/B gate's decision rule (ci/perf_ab.py) on synthetic
pairs; nothing is built or run. From the root of a checkout:

    python3 ci/test_perf_ab.py
"""

import contextlib
import io
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_ab  # noqa: E402

with open(os.path.join(perf_ab.ROOT, "BENCHMARK.json")) as f:
    METRICS = {m["name"]: m for m in json.load(f)["end_to_end"]}

# Ratios of single same-commit pairs: the spread first measured
# (0.81-1.16), and the widest seen on a loaded host (0.56-1.70).
SPREAD = [0.81, 0.93, 0.97, 1.0, 1.02, 1.05, 1.09, 1.16]
WIDE_SPREAD = [0.56, 0.84, 0.95, 1.0, 1.02, 1.12, 1.35, 1.70]


def pairs(ratios, base=1000.0):
    """(base, change) values whose change/base ratios are `ratios`."""
    return [(base, base * r) for r in ratios]


def check(name, vals):
    """Why the gate, with its own margin for `name`, fails it."""
    m = METRICS[name]
    return perf_ab.judge(name, m["better"], perf_ab.margin_of(m), vals)


class DecisionRule(unittest.TestCase):
    def test_same_commit_spread_passes(self):
        for name in METRICS:
            for spread in (SPREAD, WIDE_SPREAD):
                self.assertIsNone(check(name, pairs(spread)), name)

    def test_uniform_drop_fails(self):
        problem = check("ops_per_s", pairs([0.85] * 8))
        self.assertIsNotNone(problem)
        self.assertIn("lost 8 of 8", problem)
        self.assertIsNotNone(check("cached_ops_per_s", pairs([0.85] * 8)))

    def test_drop_with_same_commit_spread_fails(self):
        self.assertIsNotNone(
            check("ops_per_s", pairs([0.8 * r for r in SPREAD])))

    def test_one_outlier_passes(self):
        for name in METRICS:
            self.assertIsNone(check(name, pairs([1.0] * 7 + [0.5])))
            self.assertIsNone(check(name, pairs([1.0] * 7 + [2.0])))

    def test_a_deep_median_drop_needs_two_thirds_of_pairs_lost(self):
        # Median 0.5, but the change wins 3 of 8 pairs: not a loss the
        # gate can tell from noise.
        self.assertIsNone(check("ops_per_s", pairs([0.4] * 5 + [1.1] * 3)))
        self.assertIsNotNone(
            check("ops_per_s", pairs([0.4] * 6 + [1.1] * 2)))

    def test_missing_metric_fails(self):
        self.assertIsNotNone(
            check("ops_per_s", pairs([1.0] * 7) + [(1000.0, None)]))
        self.assertIsNotNone(
            check("ops_per_s", [(None, 1000.0)] + pairs([1.0] * 7)))
        self.assertIsNotNone(
            perf_ab.judge_overhead([(0.2, 0.2), (None, 0.2)]))

    def test_lower_is_better_is_read_inverted(self):
        # Half the memory or set-up time is a gain, 1.5x a loss.
        for name in ("peak_rss_mb", "setup_s"):
            self.assertEqual(METRICS[name]["better"], "lower")
            self.assertIsNone(check(name, pairs([0.5] * 8)))
            self.assertIsNotNone(check(name, pairs([1.5] * 8)))
        # The same values read as higher-is-better turn around.
        self.assertIsNotNone(check("ops_per_s", pairs([0.5] * 8)))
        self.assertIsNone(check("ops_per_s", pairs([1.5] * 8)))

    def test_margins_stay_within_the_bounds(self):
        for m in METRICS.values():
            self.assertLessEqual(perf_ab.margin_of(m), m["bound"])

    def test_zero_values(self):
        self.assertEqual(perf_ab.ratio(0.0, 0.0, "lower"), 1.0)
        self.assertEqual(perf_ab.ratio(0.1, 0.0, "lower"), float("inf"))
        self.assertEqual(perf_ab.ratio(0.0, 0.1, "lower"), 0.0)
        self.assertIsNotNone(check("paper_energy_err", [(0.0, 0.1)] * 8))

    def test_telemetry_cost_rise(self):
        same = [(0.17, 0.19), (0.22, 0.18), (0.20, 0.21), (0.19, 0.20)]
        self.assertIsNone(perf_ab.judge_overhead(same))
        doubled = [(b, b + 0.12) for b, _ in same]
        self.assertIsNotNone(perf_ab.judge_overhead(doubled))
        cheaper = [(b, b - 0.12) for b, _ in same]
        self.assertIsNone(perf_ab.judge_overhead(cheaper))

    def test_run_failure(self):
        self.assertIsNone(
            perf_ab.run_failure({"correct": True, "failed": 0}))
        self.assertIsNotNone(
            perf_ab.run_failure({"correct": False, "failed": 0}))
        self.assertIsNotNone(
            perf_ab.run_failure({"correct": True, "failed": 1}))


class Confirmation(unittest.TestCase):
    """run_confirmed over a fake perfbench whose change side reads
    `change(seed)` times the base's ops_per_s."""

    OPS = [METRICS["ops_per_s"]]

    def pairs_run(self, change):
        def fake_run(side, workload, seed, trace):
            value = 1000.0 * (change(seed) if side == "C" else 1.0)
            result = {"correct": True, "failed": 0,
                      "metrics": {"ops_per_s": {"value": value}}}
            return result, 0.0, ""

        real_run, perf_ab.run = perf_ab.run, fake_run
        failures = []
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                pairs = perf_ab.run_confirmed(
                    {"base": "B", "change": "C"}, "w", 8, 0,
                    lambda p: perf_ab.problems(self.OPS, p), failures)
        finally:
            perf_ab.run = real_run
        self.assertEqual(failures, [])
        return pairs

    def test_a_pass_runs_no_more_pairs(self):
        self.assertEqual(len(self.pairs_run(lambda seed: 1.0)), 8)

    def test_a_burst_in_the_first_pairs_is_not_confirmed(self):
        pairs = self.pairs_run(lambda seed: 0.8 if seed <= 8 else 1.0)
        self.assertEqual(len(pairs), 16)
        self.assertEqual(perf_ab.problems(self.OPS, pairs), [])

    def test_a_uniform_drop_is_confirmed(self):
        pairs = self.pairs_run(lambda seed: 0.8)
        self.assertEqual(len(pairs), 16)
        self.assertEqual(len(perf_ab.problems(self.OPS, pairs)), 1)


if __name__ == "__main__":
    unittest.main()
