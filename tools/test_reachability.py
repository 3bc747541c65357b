#!/usr/bin/env python3
"""Unit tests for reachability.py.

The reachability check keeps test-only functions out of the libraries; a
checker that passes silently, or that forgets a root, lets such code grow
back or tells a reader to delete code a shipped binary needs. The tests
feed canned `nm -C --defined-only` text through the checker's logic. Run
directly or via ctest:

  python3 tools/test_reachability.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reachability as reach  # noqa: E402

CACHE_HITS = "sesame::service::CampaignService::cache_hits() const"
SUBMIT = ("sesame::service::CampaignService::submit("
          "sesame::service::Submission const&)")
DEAD = "sesame::mathx::Ecdf::inverse(double) const"


def nm_text(*symbols, kind="T"):
    """`nm -C --defined-only` lines for the given demangled symbols."""
    return "".join(f"{0x1000 + 16 * i:016x} {kind} {s}\n"
                   for i, s in enumerate(symbols))


LIBRARY = nm_text(CACHE_HITS, SUBMIT, DEAD) + nm_text(
    "sesame::mw::Bus::publish_any()", kind="W") + \
    "0000000000002000 T main\n0000000000002010 t sesame::(anonymous)::f()\n"
EXAMPLE = nm_text(SUBMIT, "main")
DRIVER = nm_text(CACHE_HITS, SUBMIT, "main")


class ParseTest(unittest.TestCase):
    def test_only_global_text_symbols_in_sesame_count(self):
        self.assertEqual(reach.exported_functions(LIBRARY),
                         {CACHE_HITS, SUBMIT, DEAD})

    def test_allowlist_line_needs_a_reason(self):
        self.assertEqual(reach.parse_allowlist(
            "# comment\n\n" + DEAD + "  # tests use it\n"),
            {DEAD: "tests use it"})
        with self.assertRaises(ValueError):
            reach.parse_allowlist(DEAD + "\n")
        with self.assertRaises(ValueError):
            reach.parse_allowlist(DEAD + "  #   \n")

    def test_repeated_allowlist_entry_is_rejected(self):
        with self.assertRaises(ValueError):
            reach.parse_allowlist(f"{DEAD}  # a\n{DEAD}  # b\n")


class CheckTest(unittest.TestCase):
    def test_unlisted_unreached_export_fails(self):
        _, _, unlisted, stale = reach.analyse([LIBRARY], [EXAMPLE, DRIVER], {})
        self.assertEqual(unlisted, [DEAD])
        self.assertEqual(stale, [])

    def test_allowlisted_unreached_export_passes(self):
        _, _, unlisted, stale = reach.analyse(
            [LIBRARY], [EXAMPLE, DRIVER], {DEAD: "tests observe it"})
        self.assertEqual((unlisted, stale), ([], []))

    def test_stale_entries_fail(self):
        allow = {DEAD: "kept", SUBMIT: "now reached",
                 "sesame::gone::f()": "deleted"}
        _, _, unlisted, stale = reach.analyse([LIBRARY], [EXAMPLE, DRIVER],
                                              allow)
        self.assertEqual(unlisted, [])
        self.assertEqual(stale, sorted([SUBMIT, "sesame::gone::f()"]))

    def test_symbol_reached_only_by_the_e2ebench_driver_counts(self):
        # The benchmark driver is the only caller of the service's cache
        # accounting; without it as a root the check would flag it.
        self.assertIn("e2ebench", [name for name, _ in reach.roots()])
        _, reached, unlisted, _ = reach.analyse(
            [LIBRARY], [EXAMPLE, DRIVER], {DEAD: "kept"})
        self.assertIn(CACHE_HITS, reached)
        self.assertEqual(unlisted, [])
        _, _, unlisted, _ = reach.analyse([LIBRARY], [EXAMPLE],
                                          {DEAD: "kept"})
        self.assertEqual(unlisted, [CACHE_HITS])


class RootsTest(unittest.TestCase):
    def test_every_example_and_bench_is_a_root(self):
        names = {name for name, _ in reach.roots()}
        for sub, fn in (("examples", "sesame_add_example"),
                        ("bench", "sesame_add_bench")):
            declared = reach.declared_targets(
                os.path.join(reach.REPO, sub, "CMakeLists.txt"), fn)
            self.assertTrue(declared)
            self.assertTrue(set(declared) <= names)
        self.assertIn("campaign_cli", names)
        self.assertIn("bench_fig5_battery_failure", names)


if __name__ == "__main__":
    unittest.main()
