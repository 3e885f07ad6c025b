"""Tests of the benchmark's own arithmetic (stats.py).

    python3 perfbench/test_stats.py
"""

import importlib.util
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        with self.assertRaises(ValueError):
            stats.percentile(list(range(999)), 0.99)
        self.assertEqual(stats.percentile(list(range(1, 1001)), 0.99), 990)

    def test_nearest_rank(self):
        samples = list(range(100, 0, -1))  # unsorted input
        self.assertEqual(stats.percentile(samples, 0.5), 50)
        self.assertEqual(stats.percentile(samples, 0.9), 90)
        with self.assertRaises(ValueError):
            stats.percentile(samples, 0.95)

    def test_rejects_out_of_range_quantile(self):
        with self.assertRaises(ValueError):
            stats.percentile([1] * 100, 1.0)


class ResidualAndRatios(unittest.TestCase):
    def test_residual_is_total_minus_parts(self):
        self.assertAlmostEqual(stats.residual(1000.0, [400.0, 250.5, 99.5]), 250.0)
        self.assertAlmostEqual(stats.residual(10.0, [6.0, 5.0]), -1.0)

    def test_ratio_base_zero_means_no_work(self):
        self.assertEqual(stats.ratio(5, 0), 0.0)
        self.assertAlmostEqual(stats.ratio(1336, 641), 1336 / 641)


class OpenLoop(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # Request 1 was due at 1 ms but its connection was busy until 5 ms.
        records = [(0, 0, 0, 5_000_000), (1_000_000, 5_000_000, 5_000_000, 5_200_000)]
        latencies, lateness = stats.open_loop(records)
        self.assertEqual(latencies, [5000.0, 4200.0])
        self.assertEqual(lateness, [0.0, 0.0])

    def test_generator_lateness_is_send_minus_ready(self):
        records = [(0, 0, 30_000, 100_000)]
        latencies, lateness = stats.open_loop(records)
        self.assertEqual(latencies, [100.0])
        self.assertEqual(lateness, [30.0])

    def test_backlog_growing(self):
        ms = 1_000_000
        steady = [(i * ms, i * ms, i * ms + 50_000, i * ms + 200_000) for i in range(100)]
        self.assertFalse(stats.backlog_growing(steady, limit_us=1000))
        # Each request starts 0.1 ms later than the one before: 10 ms behind by the end.
        falling_behind = [(i * ms, i * ms, i * ms * 11 // 10, i * ms * 11 // 10 + 200_000)
                          for i in range(100)]
        self.assertTrue(stats.backlog_growing(falling_behind, limit_us=1000))


class RateLadder(unittest.TestCase):
    def search(self, table):
        measured = []

        def measure(rate):
            measured.append(rate)
            return table[rate]

        best, rungs = stats.ladder_search(sorted(table), measure, limit_us=1000)
        return best, rungs, measured

    def test_highest_rung_meeting_the_limit(self):
        # A noisy low rung does not hide a higher one that meets the limit.
        best, _, _ = self.search({2000: (1500.0, False), 4000: (600.0, False),
                                  6000: (800.0, False), 8000: (1200.0, False),
                                  10000: (900.0, True)})
        self.assertEqual(best, 6000)

    def test_growing_backlog_ends_the_ladder(self):
        best, rungs, measured = self.search({2000: (300.0, False), 4000: (400.0, True),
                                             6000: (500.0, False)})
        self.assertEqual(measured, [2000, 4000])
        self.assertEqual(best, 2000)
        self.assertEqual(rungs[-1], (4000, 400.0, True))

    def test_no_rung_meets_the_limit(self):
        best, _, _ = self.search({2000: (1001.0, False)})
        self.assertEqual(best, 0)


class RepairQuality(unittest.TestCase):
    def test_precision_and_recall(self):
        clean = [["a", "b"], ["c", "d"], ["e", "f"]]
        dirty = [["a", "x"], ["y", "d"], ["e", "f"]]
        repaired = [["a", "b"], ["z", "d"], ["e", "w"]]
        # changed: (0,1) right, (1,0) wrong, (2,1) wrong; errors: (0,1), (1,0).
        precision, recall = stats.repair_quality(dirty, clean, repaired)
        self.assertAlmostEqual(precision, 1 / 3)
        self.assertAlmostEqual(recall, 1 / 2)

    def test_rows_must_align(self):
        with self.assertRaises(ValueError):
            stats.repair_quality([["a"]], [["a"], ["b"]], [["a"]])


class BenchmarkFile(unittest.TestCase):
    def test_metric_lists_match_run_py(self):
        here = os.path.dirname(os.path.abspath(__file__))
        spec = importlib.util.spec_from_file_location("run", os.path.join(here, "run.py"))
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
            declared = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in declared["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in declared["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in declared["workloads"]], run.WORKLOADS)
        for workload, on_path in run.ON_PATH.items():
            self.assertLessEqual(on_path, run.PER_LAYER.keys(), workload)


if __name__ == "__main__":
    unittest.main()
