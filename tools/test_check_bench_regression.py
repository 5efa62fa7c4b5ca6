#!/usr/bin/env python3
"""Tests for check_bench_regression.py: which rows the guard compares, which
it skips across hosts, which committed entry each row is held to, and how it
reads the trajectory.

Run: python3 tools/test_check_bench_regression.py
"""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "check_bench_regression.py")
_spec = importlib.util.spec_from_file_location("check_bench_regression", SCRIPT)
guard = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(guard)

ONE_CORE = {"jobs": 4, "cores": 1, "compiler": "gcc 12.2.0"}
FOUR_CORES = {"jobs": 4, "cores": 4, "compiler": "gcc 12.2.0"}


def record(benchmarks, host=None, label="r"):
    r = {"utc": "2026-01-01T00:00:00Z", "label": label, "benchmarks": benchmarks}
    if host is not None:
        r["host"] = host
    return r


def check(trajectory, candidate, max_ratio=2.0):
    """compare() over in-memory records; returns rows keyed by name."""
    rows, failures, skipped = guard.compare(
        guard.baselines(trajectory), candidate, max_ratio)
    return {row[0]: row for row in rows}, failures, skipped


class HostGatingTest(unittest.TestCase):
    def test_virtual_time_rows_compare_across_hosts(self):
        base = record({"poolmgr_scale/locality_n4_r1": {"sim_ns": 887000},
                       "peak_density/warm_envs": {
                           "value": 16862, "direction": "higher_is_better",
                           "clock": "sim"}}, ONE_CORE)
        cand = record({"poolmgr_scale/locality_n4_r1": {"sim_ns": 887000},
                       "peak_density/warm_envs": {
                           "value": 16862, "direction": "higher_is_better",
                           "clock": "sim"}}, FOUR_CORES)
        rows, failures, skipped = check([base], [cand])
        self.assertEqual(skipped, 0)
        self.assertEqual(failures, [])
        for name in ("poolmgr_scale/locality_n4_r1", "peak_density/warm_envs"):
            self.assertAlmostEqual(rows[name][3], 1.0)

    def test_virtual_time_regression_fails_across_hosts(self):
        base = record({"fig27/chain4": {"sim_ns": 1000}}, ONE_CORE)
        cand = record({"fig27/chain4": {"sim_ns": 3000}}, FOUR_CORES)
        _, failures, _ = check([base], [cand])
        self.assertEqual([name for name, _ in failures], ["fig27/chain4"])

    def test_wall_clock_rows_skip_across_hosts(self):
        base = record({"BM_Foo": {"real_ns": 100},
                       "sharded_scale/best_speedup": {
                           "value": 1.5, "direction": "higher_is_better",
                           "clock": "wall"}}, ONE_CORE)
        cand = record({"BM_Foo": {"real_ns": 1000},
                       "sharded_scale/best_speedup": {
                           "value": 0.1, "direction": "higher_is_better",
                           "clock": "wall"}}, FOUR_CORES)
        rows, failures, skipped = check([base], [cand])
        self.assertEqual(skipped, 2)
        self.assertEqual(failures, [])
        self.assertIsNone(rows["BM_Foo"][3])
        self.assertIn("skipped: different host", rows["BM_Foo"][4])

    def test_wall_clock_rows_compare_on_the_same_host(self):
        base = record({"BM_Foo": {"real_ns": 100}}, FOUR_CORES)
        cand = record({"BM_Foo": {"real_ns": 1000}}, dict(FOUR_CORES, jobs=1))
        _, failures, skipped = check([base], [cand])
        self.assertEqual(skipped, 0)
        self.assertEqual([name for name, _ in failures], ["BM_Foo"])

    def test_gauge_without_clock_is_wall_clock(self):
        base = record({"g": {"value": 10, "direction": "higher_is_better"}}, ONE_CORE)
        cand = record({"g": {"value": 1, "direction": "higher_is_better"}}, FOUR_CORES)
        _, failures, skipped = check([base], [cand])
        self.assertEqual((failures, skipped), ([], 1))

    def test_records_without_host_are_not_wall_clock_baselines(self):
        # A host-less record's machine is unknown: its wall-clock numbers
        # are not a baseline, while its virtual-time numbers still are.
        base = record({"BM_Foo": {"real_ns": 10}, "fig27/chain4": {"sim_ns": 100}})
        cand = record({"BM_Foo": {"real_ns": 150}, "fig27/chain4": {"sim_ns": 150}},
                      FOUR_CORES)
        rows, failures, skipped = check([base], [cand])
        self.assertEqual((failures, skipped), ([], 1))
        self.assertIsNone(rows["BM_Foo"][3])
        self.assertIn("skipped: different host", rows["BM_Foo"][4])
        self.assertAlmostEqual(rows["fig27/chain4"][3], 1.5)


class BaselineTest(unittest.TestCase):
    def test_old_real_ns_baseline_pairs_with_new_sim_ns_row(self):
        old = record({"poolctl_churn/n16_static": {"accepted": 910, "real_ns": 887000}},
                     ONE_CORE)
        cand = record({"poolctl_churn/n16_static": {"accepted": 910, "sim_ns": 887000}},
                      FOUR_CORES)
        rows, failures, skipped = check([old], [cand])
        self.assertEqual((failures, skipped), ([], 0))
        self.assertAlmostEqual(rows["poolctl_churn/n16_static"][3], 1.0)
        self.assertIn("sim", rows["poolctl_churn/n16_static"][4])

    def test_latest_entry_is_the_virtual_time_baseline(self):
        first = record({"fig27/chain4": {"sim_ns": 100}}, ONE_CORE, label="first")
        second = record({"fig27/chain4": {"sim_ns": 400}}, ONE_CORE, label="second")
        rows, failures, _ = check([first, second],
                                  [record({"fig27/chain4": {"sim_ns": 500}}, FOUR_CORES)])
        self.assertEqual(failures, [])
        self.assertEqual(rows["fig27/chain4"][2], 400)
        self.assertIn("'second'", rows["fig27/chain4"][4])

    def test_best_same_host_entry_is_the_wall_clock_baseline(self):
        first = record({"BM_Foo": {"real_ns": 100}}, FOUR_CORES, label="first")
        second = record({"BM_Foo": {"real_ns": 400}}, FOUR_CORES, label="second")
        rows, failures, _ = check([first, second],
                                  [record({"BM_Foo": {"real_ns": 150}}, FOUR_CORES)])
        self.assertEqual(failures, [])
        self.assertEqual(rows["BM_Foo"][2], 100)
        self.assertIn("'first'", rows["BM_Foo"][4])

    def test_committed_step_two_records_back_still_fails(self):
        # A 10x wall-clock regression that landed in the trajectory does not
        # become the new bar: the next record is still held to the best.
        before = record({"BM_Foo": {"real_ns": 100}}, FOUR_CORES, label="before")
        step = record({"BM_Foo": {"real_ns": 1000}}, FOUR_CORES, label="step")
        after = record({"BM_Foo": {"real_ns": 1000}}, FOUR_CORES, label="after")
        rows, failures, _ = check([before, step, after],
                                  [record({"BM_Foo": {"real_ns": 1000}}, FOUR_CORES)])
        self.assertEqual(failures, [("BM_Foo", 10.0)])
        self.assertIn("'before'", rows["BM_Foo"][4])

    def test_faster_record_from_another_host_is_not_used(self):
        other = record({"BM_Foo": {"real_ns": 10}}, ONE_CORE, label="other")
        mine = record({"BM_Foo": {"real_ns": 100}}, FOUR_CORES, label="mine")
        rows, failures, _ = check([other, mine],
                                  [record({"BM_Foo": {"real_ns": 150}}, FOUR_CORES)])
        self.assertEqual(failures, [])
        self.assertEqual(rows["BM_Foo"][2], 100)
        self.assertIn("'mine'", rows["BM_Foo"][4])

    def test_best_higher_is_better_wall_gauge_is_its_maximum(self):
        gauge = lambda v, label: record(
            {"g": {"value": v, "direction": "higher_is_better", "clock": "wall"}},
            FOUR_CORES, label=label)
        rows, failures, _ = check([gauge(8, "high"), gauge(2, "low")], [gauge(3, "c")])
        self.assertEqual(rows["g"][2], 8)
        self.assertEqual(len(failures), 1)

    def test_new_name_passes_without_baseline(self):
        rows, failures, _ = check([], [record({"BM_New": {"sim_ns": 5}})])
        self.assertEqual(failures, [])
        self.assertIsNone(rows["BM_New"][2])
        self.assertIn("no baseline", rows["BM_New"][4])

    def test_unguarded_entries_are_ignored(self):
        chaos = {"chaos/seed101/trenv_failover": {"accepted": 1450, "e2e_p99_ms": 636.5}}
        rows, _, _ = check([record(chaos)], [record(chaos)])
        self.assertEqual(rows, {})


class DirectionTest(unittest.TestCase):
    def gauge(self, value, **extra):
        return record({"g": dict({"value": value, "clock": "sim"}, **extra)})

    def test_higher_is_better_gauge_fails_when_it_shrinks(self):
        hib = {"direction": "higher_is_better"}
        _, failures, _ = check([self.gauge(100, **hib)], [self.gauge(40, **hib)])
        self.assertEqual(len(failures), 1)
        self.assertAlmostEqual(failures[0][1], 2.5)
        _, failures, _ = check([self.gauge(100, **hib)], [self.gauge(1000, **hib)])
        self.assertEqual(failures, [])

    def test_gauge_defaults_to_lower_is_better(self):
        _, failures, _ = check([self.gauge(100)], [self.gauge(300)])
        self.assertEqual(len(failures), 1)
        _, failures, _ = check([self.gauge(100)], [self.gauge(10)])
        self.assertEqual(failures, [])

    def test_zero_candidate_of_higher_is_better_gauge_fails(self):
        hib = {"direction": "higher_is_better"}
        _, failures, _ = check([self.gauge(100, **hib)], [self.gauge(0, **hib)])
        self.assertEqual(failures, [("g", float("inf"))])


class LoadTest(unittest.TestCase):
    def write(self, text):
        f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
        f.write(text)
        f.close()
        self.addCleanup(os.unlink, f.name)
        return f.name

    def test_corrupt_line_is_skipped_with_a_warning(self):
        path = self.write(json.dumps(record({"a": {"sim_ns": 1}})) + "\n"
                          '{"utc": "truncated\n\n'
                          + json.dumps(record({"b": {"sim_ns": 2}})) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            records = guard.load_records(path)
        self.assertEqual(len(records), 2)
        self.assertIn(":2: skipping invalid JSON", err.getvalue())

    def test_all_corrupt_file_is_an_error(self):
        path = self.write("{not json\n")
        with contextlib.redirect_stderr(io.StringIO()):
            with self.assertRaises(SystemExit):
                guard.load_records(path)

    def test_missing_trajectory_is_empty(self):
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(guard.load_records("/nonexistent/BENCH.json",
                                                missing_ok=True), [])

    def test_cli_exit_codes(self):
        traj = self.write(json.dumps(record({"a": {"sim_ns": 100}}, ONE_CORE)) + "\n")
        ok = self.write(json.dumps(record({"a": {"sim_ns": 150}}, FOUR_CORES)) + "\n")
        bad = self.write(json.dumps(record({"a": {"sim_ns": 250}}, FOUR_CORES)) + "\n")
        run = lambda cand: subprocess.run(
            [sys.executable, SCRIPT, "--trajectory", traj, "--candidate", cand],
            capture_output=True, text=True)
        self.assertEqual(run(ok).returncode, 0)
        failed = run(bad)
        self.assertEqual(failed.returncode, 1)
        self.assertIn("a: 2.50x", failed.stderr)


if __name__ == "__main__":
    unittest.main()
