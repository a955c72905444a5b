"""Tests of the benchmark's own arithmetic, on synthetic data.

    python3 perfbench/selftest.py

Standard library only and kept out of the package's test suite (the file
name does not match pytest's test_*.py pattern); it runs in well under a
second.
"""

from __future__ import annotations

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import stats  # noqa: E402


class TailRule(unittest.TestCase):
    def test_hundred_samples_give_p90(self):
        value, pct, beyond = stats.tail(range(100))
        self.assertEqual((value, pct, beyond), (89, 90.0, 10))

    def test_at_least_ten_samples_lie_beyond(self):
        for n in (11, 12, 37, 250):
            values = [((7 * k) % n) / 3.0 for k in range(n)]  # a permutation
            value, pct, beyond = stats.tail(values)
            self.assertEqual(sum(v > value for v in values), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_eleven_samples_use_the_smallest(self):
        self.assertEqual(stats.tail(range(11))[0], 0)

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))
        self.assertEqual(stats.tail(range(10)), (9, 100.0, 0))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans_ = [
            ("search", 0.0, 10.0, -1, 0),
            ("restart", 1.0, 3.0, 0, 0),
            ("objective", 1.5, 2.5, 1, 0),
            ("restart", 4.0, 5.0, 0, 0),
        ]
        self.assertEqual(stats.self_times(spans_), [7.0, 1.0, 1.0, 1.0])

    def test_overlapping_children_are_merged(self):
        spans_ = [("p", 0.0, 10.0, -1, 0), ("a", 1.0, 4.0, 0, 0), ("b", 3.0, 6.0, 0, 0)]
        self.assertEqual(stats.self_times(spans_)[0], 5.0)

    def test_children_are_clipped_to_the_parent(self):
        spans_ = [("p", 0.0, 2.0, -1, 0), ("a", 1.0, 3.0, 0, 0)]
        self.assertEqual(stats.self_times(spans_)[0], 1.0)

    def test_grandchildren_do_not_count_twice(self):
        spans_ = [("p", 0.0, 4.0, -1, 0), ("c", 1.0, 3.0, 0, 0), ("g", 1.0, 3.0, 1, 0)]
        self.assertEqual(stats.self_times(spans_), [2.0, 0.0, 2.0])


class SpeedScaled(unittest.TestCase):
    def test_probe_at_nominal_leaves_time_unchanged(self):
        self.assertAlmostEqual(stats.speed_scaled([1.0, 3.0], [0.01, 0.01, 0.01], 0.01), 4.0)

    def test_slow_machine_is_scaled_back(self):
        # Everything, probe included, ran twice as slow as nominal.
        self.assertAlmostEqual(stats.speed_scaled([2.0, 6.0], [0.02, 0.02, 0.02], 0.01), 4.0)

    def test_probes_are_averaged(self):
        self.assertAlmostEqual(stats.speed_scaled([3.0], [0.01, 0.02], 0.015), 3.0)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.speed_scaled([], [0.01], 0.01)
        with self.assertRaises(ValueError):
            stats.speed_scaled([1.0], [], 0.01)


def record(expected, outcome):
    return {"expected": expected, "results": {"outcome": outcome}}


class FailedShare(unittest.TestCase):
    def test_matches_pass_and_misses_fail(self):
        records = [
            record("REALIZED", "REALIZED"),
            record("REALIZED", "LIKELY_NOT_REALIZABLE"),
            record(0, 0),
            record(0, 4),
        ]
        self.assertEqual(stats.failed_share(records), 0.5)

    def test_undecided_counts_as_failed(self):
        self.assertTrue(stats.is_failed(record("REALIZED", "UNDECIDED")))
        self.assertTrue(stats.is_failed(record("UNDECIDED", "UNDECIDED")))

    def test_crash_counts_as_failed(self):
        self.assertTrue(stats.is_failed(record("REALIZED", stats.CRASH)))
        self.assertTrue(stats.is_failed(record(stats.CRASH, stats.CRASH)))
        self.assertEqual(stats.failed_share([record(0, stats.CRASH), record(0, 0)]), 0.5)

    def test_no_ops_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.failed_share([])


class Compare(unittest.TestCase):
    parent = {s: 1.0 + 0.01 * s for s in range(10)}

    def test_consistent_gain_is_better(self):
        change = {s: v * 0.8 for s, v in self.parent.items()}
        row = stats.compare(self.parent, change, "lower", 0.1)
        self.assertEqual((row["verdict"], row["wins_change"], row["within_bound"]),
                         ("better", 10, True))

    def test_consistent_loss_is_worse_and_beyond_bound(self):
        change = {s: v * 1.2 for s, v in self.parent.items()}
        row = stats.compare(self.parent, change, "lower", 0.1)
        self.assertEqual((row["verdict"], row["within_bound"]), ("worse", False))

    def test_higher_is_better_flips_the_sign(self):
        change = {s: v * 1.2 for s, v in self.parent.items()}
        self.assertEqual(stats.compare(self.parent, change, "higher", 0.1)["verdict"], "better")

    def test_mixed_pairs_are_unresolved(self):
        change = {s: v * (0.8 if s % 2 else 1.01) for s, v in self.parent.items()}
        row = stats.compare(self.parent, change, "lower", 0.1)
        self.assertEqual((row["verdict"], row["within_bound"]), ("unresolved", True))

    def test_gain_inside_the_parent_spread_is_unresolved(self):
        change = {s: v - 0.001 for s, v in self.parent.items()}
        self.assertEqual(stats.compare(self.parent, change, "lower", 0.1)["verdict"],
                         "unresolved")

    def test_ties_count_for_neither_side(self):
        change = dict(self.parent)
        change[0] = 0.5
        row = stats.compare(self.parent, change, "lower", 0.1)
        self.assertEqual((row["wins_parent"], row["wins_change"]), (0, 1))


class LayerMetrics(unittest.TestCase):
    def test_shares_and_counts_from_synthetic_spans(self):
        tracer = spans.Tracer()
        tracer.present = {name: True for name, _, _ in spans.LAYERS}
        tracer.spans = [
            ["realizability.search", 0.0, 10.0, -1, "a"],
            ["realizability.restart", 1.0, 5.0, 0, "a"],
            ["realizability.objective", 1.0, 2.0, 1, "a"],
            ["realizability.objective", 3.0, 4.0, 1, "a"],
            ["realizability.restart", 5.0, 9.0, 0, "a"],
            ["realizability.objective", 5.0, 8.0, 4, "a"],
        ]
        tracer.attrs = {0: {"verdict": "REALIZED", "best_residual": 5e-7,
                            "realizable_threshold": 1e-6}}
        restarts = [(0, 10, 12, 2000), (1, 2000, 2050, 2000)]
        out = spans.layer_metrics(tracer, restarts)
        self.assertEqual(out["realizability.objective.calls"], 3)
        self.assertEqual(out["realizability.objective.share"], 0.5)
        self.assertEqual(out["realizability.restart.solver_share"], 0.375)
        self.assertEqual(out["realizability.search.restarts_per_verdict"], 2.0)
        self.assertEqual(out["realizability.restart.cap_hits"], 1)
        self.assertEqual(out["realizability.restart.nfev_p50"], 1031)
        self.assertEqual(out["realizability.search.worst_realized_margin"], 0.5)
        self.assertEqual(out["realizability.objective.us_p50"], 1e6)
        self.assertIsNone(out["channels.mix.us_p50"])

    def test_removed_layer_is_absent_not_zero(self):
        tracer = spans.Tracer()
        tracer.present = {name: True for name, _, _ in spans.LAYERS}
        tracer.present["realizability.objective"] = False
        out = spans.layer_metrics(tracer, [])
        self.assertIsNone(out["realizability.objective.calls"])
        self.assertEqual(out["realizability.restart.count"], 0)


if __name__ == "__main__":
    unittest.main()
