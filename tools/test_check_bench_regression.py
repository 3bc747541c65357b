#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py.

The checker gates CI perf regressions (bus publish, wire federation, fleet
scaling); a crash or silent pass in the checker disables those gates, so
the checker itself is under test. Run directly or via ctest:

  python3 tools/test_check_bench_regression.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_regression as cbr  # noqa: E402


def write_report(dirname, name, benchmarks, wrap_after=False):
    doc = {"benchmarks": benchmarks}
    if wrap_after:
        doc = {"note": "baseline", "after": {"benchmarks": benchmarks}}
    path = os.path.join(dirname, name)
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


def bench(name, items_per_second):
    b = {"items_per_second": items_per_second}
    if name is not None:
        b["name"] = name
    return b


class LoadResultsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def test_raw_report_shape(self):
        path = write_report(self.tmp.name, "raw.json", [bench("BM_A", 100.0)])
        self.assertEqual(cbr.load_results(path), {"BM_A": 100.0})

    def test_committed_baseline_shape(self):
        path = write_report(self.tmp.name, "base.json", [bench("BM_A", 250.0)],
                            wrap_after=True)
        self.assertEqual(cbr.load_results(path), {"BM_A": 250.0})

    def test_entries_without_items_per_second_are_skipped(self):
        path = write_report(self.tmp.name, "mixed.json",
                            [{"name": "BM_NoItems", "real_time": 5.0},
                             bench("BM_A", 10.0)])
        self.assertEqual(cbr.load_results(path), {"BM_A": 10.0})

    def test_missing_name_fails_with_clear_message(self):
        path = write_report(self.tmp.name, "noname.json", [bench(None, 10.0)])
        with self.assertRaises(SystemExit) as ctx:
            cbr.load_results(path)
        self.assertIn("no 'name'", str(ctx.exception))
        self.assertIn(path, str(ctx.exception))

    def test_non_numeric_items_per_second_fails(self):
        path = write_report(self.tmp.name, "nan.json",
                            [bench("BM_A", "fast")])
        with self.assertRaises(SystemExit) as ctx:
            cbr.load_results(path)
        self.assertIn("non-numeric", str(ctx.exception))

    def test_missing_benchmarks_array_fails(self):
        path = os.path.join(self.tmp.name, "junk.json")
        with open(path, "w") as f:
            json.dump({"not_benchmarks": []}, f)
        with self.assertRaises(SystemExit) as ctx:
            cbr.load_results(path)
        self.assertIn("benchmarks", str(ctx.exception))


class CheckPairTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def pair(self, base_benchmarks, cur_benchmarks):
        base = write_report(self.tmp.name, "base.json", base_benchmarks,
                            wrap_after=True)
        cur = write_report(self.tmp.name, "cur.json", cur_benchmarks)
        return base, cur

    def test_within_tolerance_passes(self):
        base, cur = self.pair([bench("BM_A", 100.0)], [bench("BM_A", 85.0)])
        self.assertFalse(cbr.check_pair(base, cur, ["BM_A"], 0.20))

    def test_regression_fails(self):
        base, cur = self.pair([bench("BM_A", 100.0)], [bench("BM_A", 70.0)])
        self.assertTrue(cbr.check_pair(base, cur, ["BM_A"], 0.20))

    def test_improvement_passes(self):
        base, cur = self.pair([bench("BM_A", 100.0)], [bench("BM_A", 500.0)])
        self.assertFalse(cbr.check_pair(base, cur, ["BM_A"], 0.20))

    def test_zero_baseline_fails_with_clear_message_not_crash(self):
        base, cur = self.pair([bench("BM_A", 0.0)], [bench("BM_A", 10.0)])
        with self.assertRaises(SystemExit) as ctx:
            cbr.check_pair(base, cur, ["BM_A"], 0.20)
        msg = str(ctx.exception)
        self.assertIn("BM_A", msg)
        self.assertIn("zero", msg)

    def test_negative_baseline_fails_with_clear_message(self):
        base, cur = self.pair([bench("BM_A", -5.0)], [bench("BM_A", 10.0)])
        with self.assertRaises(SystemExit) as ctx:
            cbr.check_pair(base, cur, ["BM_A"], 0.20)
        self.assertIn("BM_A", str(ctx.exception))

    def test_gate_absent_from_baseline_is_skipped_not_fatal(self):
        base, cur = self.pair([bench("BM_A", 100.0)],
                              [bench("BM_A", 95.0), bench("BM_New", 1.0)])
        self.assertFalse(cbr.check_pair(base, cur, ["BM_A", "BM_New"], 0.20))

    def test_gate_absent_from_current_is_skipped_not_fatal(self):
        base, cur = self.pair([bench("BM_A", 100.0), bench("BM_Old", 1.0)],
                              [bench("BM_A", 95.0)])
        self.assertFalse(cbr.check_pair(base, cur, ["BM_A", "BM_Old"], 0.20))

    def test_default_gates_all_common_benchmarks(self):
        base, cur = self.pair(
            [bench("BM_A", 100.0), bench("BM_B", 100.0)],
            [bench("BM_A", 95.0), bench("BM_B", 10.0)])
        self.assertTrue(cbr.check_pair(base, cur, [], 0.20))


class MainTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.bus_base = write_report(self.tmp.name, "bus_base.json",
                                     [bench("BM_A", 100.0)], wrap_after=True)
        self.bus_cur = write_report(self.tmp.name, "bus_cur.json",
                                    [bench("BM_A", 95.0)])
        self.wire_base = write_report(self.tmp.name, "wire_base.json",
                                      [bench("BM_W", 100.0)], wrap_after=True)
        self.wire_cur = write_report(self.tmp.name, "wire_cur.json",
                                     [bench("BM_W", 99.0)])

    def run_main(self, *gates):
        argv = ["check_bench_regression.py",
                "--compare", f"{self.bus_base}:{self.bus_cur}",
                "--compare", f"{self.wire_base}:{self.wire_cur}"]
        for gate in gates:
            argv += ["--gate", gate]
        with mock.patch.object(sys, "argv", argv), \
                contextlib.redirect_stdout(io.StringIO()):
            return cbr.main()

    def test_each_gate_checked_in_one_pair_passes(self):
        # Each gate is absent from the other pair: skipped there, not fatal.
        self.assertEqual(self.run_main("BM_A", "BM_W"), 0)

    def test_gate_matched_by_no_pair_fails(self):
        # A gated bench renamed or deleted from every pair must not switch
        # its gate off silently.
        self.assertEqual(self.run_main("BM_A", "BM_Gone"), 1)


if __name__ == "__main__":
    unittest.main()
