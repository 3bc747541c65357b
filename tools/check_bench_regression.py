#!/usr/bin/env python3
"""Gate benchmark throughput against a committed baseline.

Compares `items_per_second` for selected benchmarks between a fresh
`--json` bench report and the committed baseline (BENCH_*.json). Fails
(exit 1) when a gated benchmark's throughput drops by more than the
allowed fraction; improvements and small wobble pass. Benchmarks present
in only one of the two files are reported but never fatal, so adding or
renaming a bench does not brick CI before the baseline is refreshed. A
`--gate` name that no pair has in both files fails, though: a gated bench
renamed or deleted everywhere would otherwise switch its gate off.

Usage:
  check_bench_regression.py --baseline BENCH_bus_publish.json \
      --current bus.json --gate BM_BusPublishSteadyState \
      [--gate NAME ...] [--max-regression 0.20]

Several suites can be gated in one invocation with repeatable
`--compare BASELINE:CURRENT` pairs (equivalent to one --baseline/--current
run per pair, sharing --gate and --max-regression):

  check_bench_regression.py \
      --compare BENCH_bus_publish.json:bus.json \
      --compare BENCH_wire.json:wire.json \
      --gate BM_BusPublishSteadyState --gate BM_BridgeFederation

The committed baseline carries `before`/`after` sections (the optimisation
record); a plain bench report is also accepted. The `after` section is
what CI gates against.
"""

import argparse
import json
import sys


def load_results(path):
    """Returns {benchmark name: items_per_second} from a bench JSON file.

    Accepts either a raw bench report ({"benchmarks": [...]}) or the
    committed baseline shape ({"after": {"benchmarks": [...]}, ...}).
    """
    with open(path) as f:
        doc = json.load(f)
    if "after" in doc and "benchmarks" in doc.get("after", {}):
        doc = doc["after"]
    if "benchmarks" not in doc:
        raise SystemExit(f"{path}: no 'benchmarks' array (not a bench report?)")
    out = {}
    for i, b in enumerate(doc["benchmarks"]):
        if "items_per_second" not in b:
            continue
        if "name" not in b:
            raise SystemExit(
                f"{path}: benchmarks[{i}] has items_per_second but no 'name' "
                f"(malformed report — regenerate it)")
        try:
            out[b["name"]] = float(b["items_per_second"])
        except (TypeError, ValueError):
            raise SystemExit(
                f"{path}: benchmarks[{i}] ('{b['name']}') has a non-numeric "
                f"items_per_second: {b['items_per_second']!r}")
    return out


def check_pair(baseline_path, current_path, gate_names, max_regression,
               checked=None):
    """Gates one baseline/current report pair; returns True on failure.

    Adds each benchmark compared in both files to the `checked` set, when
    one is given.
    """
    baseline = load_results(baseline_path)
    current = load_results(current_path)
    gates = gate_names or sorted(set(baseline) & set(current))

    print(f"{baseline_path} vs {current_path}:")
    failed = False
    for name in gates:
        if name not in baseline:
            print(f"  SKIP {name}: not in baseline (refresh {baseline_path})")
            continue
        if name not in current:
            print(f"  SKIP {name}: not in current report")
            continue
        base, cur = baseline[name], current[name]
        if base <= 0.0:
            raise SystemExit(
                f"{baseline_path}: {name} has a zero or negative baseline "
                f"items_per_second ({base}); the gate cannot compute a ratio "
                f"— refresh the baseline from a real bench run")
        if checked is not None:
            checked.add(name)
        ratio = cur / base
        verdict = "ok"
        if ratio < 1.0 - max_regression:
            verdict = "REGRESSION"
            failed = True
        print(f"  {verdict:>10}  {name}: {cur:,.0f} vs baseline {base:,.0f} "
              f"items/s ({ratio:.2f}x)")
    if failed:
        print(f"FAIL: throughput dropped more than "
              f"{max_regression:.0%} vs {baseline_path}")
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", help="single-pair form (with --current)")
    ap.add_argument("--current", help="single-pair form (with --baseline)")
    ap.add_argument("--compare", action="append", default=[],
                    metavar="BASELINE:CURRENT",
                    help="baseline:current report pair (repeatable; may be "
                         "combined with --baseline/--current)")
    ap.add_argument("--gate", action="append", default=[],
                    help="benchmark name to gate (repeatable); names absent "
                         "from a pair are skipped there, and a name checked "
                         "in no pair fails; default: all benchmarks present "
                         "in both files of each pair")
    ap.add_argument("--max-regression", type=float, default=0.20,
                    help="fatal fractional throughput drop (default 0.20)")
    args = ap.parse_args()

    pairs = []
    if args.baseline or args.current:
        if not (args.baseline and args.current):
            ap.error("--baseline and --current must be given together")
        pairs.append((args.baseline, args.current))
    for spec in args.compare:
        baseline, sep, current = spec.partition(":")
        if not sep or not baseline or not current:
            ap.error(f"--compare expects BASELINE:CURRENT, got '{spec}'")
        pairs.append((baseline, current))
    if not pairs:
        ap.error("nothing to do: give --baseline/--current or --compare")

    failed = False
    checked = set()
    for baseline_path, current_path in pairs:
        failed |= check_pair(baseline_path, current_path, args.gate,
                             args.max_regression, checked)
    for name in args.gate:
        if name not in checked:
            print(f"FAIL: gate {name} matched no pair (renamed or deleted? "
                  f"update the --gate list)")
            failed = True
    if failed:
        return 1
    print("bench regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
