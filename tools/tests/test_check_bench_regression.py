#!/usr/bin/env python3
"""Unit tests for the bench-gate band matcher (tools/check_bench_regression.py).

Runnable both ways:

  python3 -m unittest discover -s tools/tests -t .
  python3 -m pytest tools/tests/

CI runs these in the lint job; ctest registers them as
check_bench_regression_unit (tests/CMakeLists.txt).
"""

import argparse
import importlib.util
import json
import os
import sys
import tempfile
import unittest

_TOOLS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "check_bench_regression",
    os.path.join(_TOOLS_DIR, "check_bench_regression.py"),
)
cbr = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cbr)


def bench_doc(bench="parallel", entries=()):
    return {"schema_version": 1, "bench": bench, "entries": list(entries)}


def entry(series, x, wall_ms, counters=None):
    return {
        "series": series,
        "x": x,
        "wall_ms": wall_ms,
        "counters": counters or {},
    }


class ParseBandTest(unittest.TestCase):
    def test_accepts_float_inf_and_skip(self):
        self.assertEqual(cbr.parse_band("cache.*=0.25"), ("cache.*", 0.25))
        self.assertEqual(cbr.parse_band("cache.*=inf"), ("cache.*", float("inf")))
        self.assertEqual(cbr.parse_band("cache.*=skip"), ("cache.*", None))

    def test_pattern_may_contain_equals(self):
        # rpartition: everything before the LAST '=' is the pattern.
        self.assertEqual(cbr.parse_band("a=b=0.5"), ("a=b", 0.5))

    def test_rejects_malformed_specs(self):
        for spec in ("no-tolerance", "=0.5", "cache.*=-0.1", "cache.*=fast"):
            with self.assertRaises(argparse.ArgumentTypeError, msg=spec):
                cbr.parse_band(spec)


class ToleranceForTest(unittest.TestCase):
    def test_first_matching_band_wins(self):
        bands = [("cache.*", None), ("cache.hits", 0.5), ("*", 0.1)]
        # cache.hits matches the skip band first, never its exact band.
        self.assertIsNone(cbr.tolerance_for("cache.hits", 0.0, bands))
        self.assertEqual(cbr.tolerance_for("sigindex.queries", 0.0, bands), 0.1)

    def test_default_when_nothing_matches(self):
        bands = [("cache.*", 0.5)]
        self.assertEqual(cbr.tolerance_for("repair.rule_checks", 0.0, bands), 0.0)
        self.assertEqual(cbr.tolerance_for("shared/wall_ms", 0.25, bands), 0.25)

    def test_wall_metric_ids_are_series_scoped(self):
        bands = [("nobel-*/wall_ms", float("inf"))]
        self.assertEqual(
            cbr.tolerance_for("nobel-stratified/wall_ms", 0.25, bands),
            float("inf"),
        )
        self.assertEqual(cbr.tolerance_for("shared/wall_ms", 0.25, bands), 0.25)


class DefaultBandsTest(unittest.TestCase):
    """The built-in bands for time-derived counters (latency percentiles,
    throughput, shed rate) apply when no user band matches, and an explicit
    user band — given first — always overrides them."""

    def test_latency_percentiles_have_default_bands(self):
        self.assertEqual(cbr.tolerance_for("latency.p50_us", 0.0, []), 2.0)
        self.assertEqual(cbr.tolerance_for("latency.p95_us", 0.0, []), 3.0)
        self.assertEqual(cbr.tolerance_for("latency.p99_us", 0.0, []), 4.0)
        self.assertEqual(cbr.tolerance_for("throughput_rps", 0.0, []), 1.0)
        self.assertEqual(cbr.tolerance_for("requests.shed_pct", 0.0, []), 1.0)

    def test_plain_counters_keep_the_exact_default(self):
        self.assertEqual(cbr.tolerance_for("requests.ok", 0.0, []), 0.0)
        self.assertEqual(cbr.tolerance_for("repair.rule_checks", 0.0, []), 0.0)

    def test_user_band_overrides_the_default(self):
        bands = [("latency.*", 0.05), ("*_rps", None)]
        self.assertEqual(cbr.tolerance_for("latency.p99_us", 0.0, bands), 0.05)
        self.assertIsNone(cbr.tolerance_for("throughput_rps", 0.0, bands))


class WithinTest(unittest.TestCase):
    def test_relative_band_is_symmetric(self):
        # The band is [b/(1+t), b*(1+t)]: a 2x speedup and a 2x slowdown are
        # both out of a 25% band, both inside a 100% band.
        self.assertTrue(cbr.within(100.0, 100.0, 0.0))
        self.assertTrue(cbr.within(124.0, 100.0, 0.25))
        self.assertTrue(cbr.within(81.0, 100.0, 0.25))
        self.assertFalse(cbr.within(200.0, 100.0, 0.25))
        self.assertFalse(cbr.within(50.0, 100.0, 0.25))
        self.assertTrue(cbr.within(200.0, 100.0, 1.0))
        self.assertTrue(cbr.within(50.0, 100.0, 1.0))

    def test_one_sided_band_bounds_only_the_worse_side(self):
        self.assertTrue(cbr.within(10.0, 100.0, 0.25, "lower"))
        self.assertFalse(cbr.within(126.0, 100.0, 0.25, "lower"))
        self.assertTrue(cbr.within(1000.0, 100.0, 0.25, "higher"))
        self.assertFalse(cbr.within(79.0, 100.0, 0.25, "higher"))
        self.assertEqual(cbr.direction_for("latency.p99_us"), "lower")
        self.assertEqual(cbr.direction_for("capacity_rps"), "higher")
        self.assertIsNone(cbr.direction_for("requests.shed_pct"))
        self.assertIsNone(cbr.direction_for("peak_rss_bytes"))

    def test_inf_accepts_anything(self):
        self.assertTrue(cbr.within(1e9, 0.0, float("inf")))

    def test_zero_baseline(self):
        # Exact mode: 0 must stay 0. Tolerant mode: the tolerance doubles as
        # an absolute ceiling (relative deviation from 0 is undefined).
        self.assertTrue(cbr.within(0, 0, 0.0))
        self.assertFalse(cbr.within(3, 0, 0.0))
        self.assertTrue(cbr.within(0.2, 0, 0.25))
        self.assertFalse(cbr.within(0.3, 0, 0.25))


class CompareArgs(argparse.Namespace):
    """The argparse surface compare() consumes, with gate defaults."""

    def __init__(self, **overrides):
        defaults = dict(
            wall_tolerance=0.25,
            counter_tolerance=0.0,
            band=[],
            min_wall_ms=0.001,
            counters_only=False,
            strict=False,
        )
        defaults.update(overrides)
        super().__init__(**defaults)


class CompareTest(unittest.TestCase):
    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return path

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def test_counter_drift_fails_exact_default(self):
        fresh = self.write(
            "fresh.json",
            bench_doc(entries=[entry("s", 1, 10.0, {"repair.rule_checks": 101})]),
        )
        base = self.write(
            "base.json",
            bench_doc(entries=[entry("s", 1, 10.0, {"repair.rule_checks": 100})]),
        )
        failures = cbr.compare(fresh, base, CompareArgs())
        self.assertEqual(len(failures), 1)
        self.assertIn("repair.rule_checks", failures[0])

    def test_skip_band_suppresses_the_counter(self):
        fresh = self.write(
            "fresh.json", bench_doc(entries=[entry("s", 1, 10.0, {"noisy": 7})])
        )
        base = self.write(
            "base.json", bench_doc(entries=[entry("s", 1, 10.0, {"noisy": 999})])
        )
        self.assertEqual(
            cbr.compare(fresh, base, CompareArgs(band=[("noisy", None)])), []
        )

    def test_missing_entry_is_note_unless_strict(self):
        fresh = self.write("fresh.json", bench_doc(entries=[entry("s", 1, 10.0)]))
        base = self.write(
            "base.json",
            bench_doc(entries=[entry("s", 1, 10.0), entry("gone", 1, 5.0)]),
        )
        self.assertEqual(cbr.compare(fresh, base, CompareArgs()), [])
        failures = cbr.compare(fresh, base, CompareArgs(strict=True))
        self.assertEqual(len(failures), 1)
        self.assertIn("gone", failures[0])

    def test_latency_drift_passes_within_default_band_and_fails_beyond(self):
        base = self.write(
            "base.json",
            bench_doc(entries=[entry("s", 1, 10.0, {"latency.p99_us": 100})]),
        )
        drifted = self.write(
            "fresh.json",
            bench_doc(entries=[entry("s", 1, 10.0, {"latency.p99_us": 390})]),
        )
        self.assertEqual(cbr.compare(drifted, base, CompareArgs()), [])
        regressed = self.write(
            "fresh2.json",
            bench_doc(entries=[entry("s", 1, 10.0, {"latency.p99_us": 600})]),
        )
        failures = cbr.compare(regressed, base, CompareArgs())
        self.assertEqual(len(failures), 1)
        self.assertIn("latency.p99_us", failures[0])

    def test_faster_latency_and_higher_throughput_pass(self):
        # bench_serve's clean-tuple@8 p95 once fell from 784 to 140 us, far
        # outside the 3.0 band on the good side: that is not a regression.
        counters = {"latency.p50_us": 221, "latency.p95_us": 784,
                    "latency.p99_us": 900, "capacity_rps": 10000}
        base = self.write("base.json", bench_doc(entries=[entry("s", 1, 10.0, counters)]))
        faster = self.write("fresh.json", bench_doc(entries=[entry("s", 1, 10.0, {
            "latency.p50_us": 57, "latency.p95_us": 140,
            "latency.p99_us": 100, "capacity_rps": 90000})]))
        self.assertEqual(cbr.compare(faster, base, CompareArgs()), [])

    def test_slower_latency_and_lower_throughput_still_fail(self):
        base = self.write("base.json", bench_doc(entries=[entry("s", 1, 10.0, {
            "latency.p50_us": 100, "capacity_rps": 10000})]))
        slower = self.write("fresh.json", bench_doc(entries=[entry("s", 1, 10.0, {
            "latency.p50_us": 301, "capacity_rps": 4999})]))
        failures = cbr.compare(slower, base, CompareArgs())
        self.assertEqual(len(failures), 2)
        self.assertIn("capacity_rps", failures[0])
        self.assertIn("latency.p50_us", failures[1])

    def test_counters_and_other_bands_stay_symmetric(self):
        base = self.write("base.json", bench_doc(entries=[entry("s", 1, 10.0, {
            "repair.rule_checks": 100, "peak_rss_bytes": 1000,
            "requests.shed_pct": 10})]))
        lower = self.write("fresh.json", bench_doc(entries=[entry("s", 1, 10.0, {
            "repair.rule_checks": 99, "peak_rss_bytes": 800,
            "requests.shed_pct": 4})]))
        failures = cbr.compare(lower, base, CompareArgs())
        self.assertEqual(len(failures), 3)

    def test_bench_name_mismatch_is_a_failure(self):
        fresh = self.write("fresh.json", bench_doc(bench="a"))
        base = self.write("base.json", bench_doc(bench="b"))
        failures = cbr.compare(fresh, base, CompareArgs())
        self.assertEqual(len(failures), 1)
        self.assertIn("bench mismatch", failures[0])


class UpdateSeedingTest(unittest.TestCase):
    """--update must seed a baseline for a brand-new benchmark, and without
    --update a fresh file lacking a baseline is a hard error."""

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)
        self.baseline_dir = os.path.join(self.dir.name, "baselines")
        self.fresh_dir = os.path.join(self.dir.name, "fresh")
        os.makedirs(self.baseline_dir)
        os.makedirs(self.fresh_dir)

    def run_main(self, *argv):
        old = sys.argv
        sys.argv = ["check_bench_regression.py", *argv]
        try:
            return cbr.main()
        finally:
            sys.argv = old

    def write(self, directory, name, doc):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return path

    def test_new_bench_without_baseline_fails_and_update_seeds_it(self):
        self.write(self.baseline_dir, "BENCH_old.json", bench_doc(bench="old"))
        self.write(self.fresh_dir, "BENCH_old.json", bench_doc(bench="old"))
        self.write(self.fresh_dir, "BENCH_new.json", bench_doc(bench="new"))

        self.assertEqual(
            self.run_main(
                "--baseline-dir", self.baseline_dir, "--fresh-dir", self.fresh_dir
            ),
            1,
        )
        self.assertEqual(
            self.run_main(
                "--baseline-dir",
                self.baseline_dir,
                "--fresh-dir",
                self.fresh_dir,
                "--update",
            ),
            0,
        )
        seeded = os.path.join(self.baseline_dir, "BENCH_new.json")
        self.assertTrue(os.path.exists(seeded))
        # The seeded baseline now gates future runs.
        self.assertEqual(
            self.run_main(
                "--baseline-dir", self.baseline_dir, "--fresh-dir", self.fresh_dir
            ),
            0,
        )

    def test_update_refuses_malformed_fresh_files(self):
        self.write(
            self.baseline_dir, "BENCH_old.json", bench_doc(bench="old")
        )
        path = os.path.join(self.fresh_dir, "BENCH_old.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"schema_version": 2, "entries": []}')
        with self.assertRaises(ValueError):
            self.run_main(
                "--baseline-dir",
                self.baseline_dir,
                "--fresh-dir",
                self.fresh_dir,
                "--update",
            )


if __name__ == "__main__":
    unittest.main()
