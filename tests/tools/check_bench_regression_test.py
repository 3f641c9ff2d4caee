#!/usr/bin/env python3
"""Unit tests for tools/check_bench_regression.py on synthetic ledgers.

Each test writes a baseline and a new-run ledger, runs the checker as CI
does (two paths, no flags) and asserts its exit status and message:
0 pass, 1 regression, 2 refused.

Run: python3 tests/tools/check_bench_regression_test.py
"""

import glob
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
CHECKER = os.path.join(REPO, "tools", "check_bench_regression.py")

FINGERPRINT = {"nproc": 4, "cpu": "Example CPU", "compiler": "gcc 12.2.0",
               "build_type": "Release"}


def ledger(**values):
    """A ledger with one metric per tier; keyword args override values."""
    metrics = [
        ("mismatches", 0, "zero"),
        ("Q1.search_expansions", 85, "exact"),
        ("expansion_ratio", 3.123, "min:3.0"),
        ("traced_over_untraced", 1.01, "max:1.05"),
        ("qps", 20000, "min:1000 higher:0.2"),
        ("warm_mean_ms", 40.0, "lower:0.2"),
        ("Q1.warm_ms", 0.2, "none"),
    ]
    return {"bench": "synthetic", "fingerprint": dict(FINGERPRINT),
            "config": {"threads": 1, "max_expansions": 500000},
            "metrics": [{"name": n, "value": values.get(n, v), "gate": g}
                        for n, v, g in metrics]}


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, content):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            f.write(content if isinstance(content, str)
                    else json.dumps(content))
        return path

    def run_checker(self, new, base=None):
        base = ledger() if base is None else base
        proc = subprocess.run(
            [sys.executable, CHECKER, self.write("new.json", new),
             self.write("base.json", base)],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr

    def assertVerdict(self, result, code, *snippets):
        status, output = result
        self.assertEqual(status, code, output)
        for snippet in snippets:
            self.assertIn(snippet, output)

    def test_identical_ledgers_pass_every_tier(self):
        self.assertVerdict(self.run_checker(ledger()), 0,
                           "2 deterministic, 3 ratio/floor, 2 absolute")

    # Tier 1: deterministic counters.
    def test_zero_fails_on_one(self):
        self.assertVerdict(self.run_checker(ledger(mismatches=1)), 1,
                           "mismatches is 1; must be 0")

    def test_exact_counter_off_by_one_fails(self):
        self.assertVerdict(
            self.run_checker(ledger(**{"Q1.search_expansions": 86})), 1,
            "Q1.search_expansions 86 differs from baseline 85")

    def test_config_mismatch_is_refused(self):
        new = ledger()
        new["config"]["max_expansions"] = 50000
        self.assertVerdict(self.run_checker(new), 2,
                           "config differs from the baseline's on "
                           "max_expansions")

    def test_different_bench_is_refused(self):
        new = ledger()
        new["bench"] = "other"
        self.assertVerdict(self.run_checker(new), 2, "bench 'other'")

    # Tier 2: same-run ratios and hard floors.
    def test_floor_fails_when_crossed(self):
        self.assertVerdict(self.run_checker(ledger(expansion_ratio=2.99)),
                           1, "expansion_ratio 2.99 below the floor 3")
        self.assertVerdict(self.run_checker(ledger(qps=999)), 1,
                           "qps 999 below the floor 1000")

    def test_ceiling_fails_when_crossed(self):
        self.assertVerdict(
            self.run_checker(ledger(traced_over_untraced=1.06)), 1,
            "traced_over_untraced 1.06 outside (0, 1.05]")
        self.assertVerdict(
            self.run_checker(ledger(traced_over_untraced=0)), 1,
            "traced_over_untraced 0 outside (0, 1.05]")

    def test_bounds_come_from_the_baseline(self):
        new = ledger(expansion_ratio=2.5)
        new["metrics"][2]["gate"] = "min:2.0"
        self.assertVerdict(self.run_checker(new), 1,
                           "expansion_ratio 2.5 below the floor 3",
                           "'min:3.0' applied from the baseline")

    def test_floors_hold_on_another_machine(self):
        new = ledger(qps=999)
        new["fingerprint"]["cpu"] = "Other CPU"
        self.assertVerdict(self.run_checker(new), 1,
                           "qps 999 below the floor 1000")

    # Tier 3: absolute ms and rates, same fingerprint only.
    def test_ms_tier_applies_on_matching_fingerprint(self):
        self.assertVerdict(self.run_checker(ledger(warm_mean_ms=48.1)), 1,
                           "warm_mean_ms 48.1 exceeds baseline 40 +20%")
        self.assertVerdict(self.run_checker(ledger(qps=15999)), 1,
                           "qps 15999 fell below baseline 20000 -20%")
        self.assertVerdict(self.run_checker(ledger(warm_mean_ms=47.9)), 0)

    def test_ms_tier_skipped_with_a_message_on_mismatch(self):
        new = ledger(warm_mean_ms=480.0, qps=1500)
        new["fingerprint"]["nproc"] = 2
        self.assertVerdict(self.run_checker(new), 0,
                           "fingerprint differs from the baseline's on "
                           "nproc", "tier for qps, warm_mean_ms",
                           "0 absolute check(s)")

    # Malformed input.
    def test_nan_and_infinity_are_rejected(self):
        text = json.dumps(ledger())
        for literal in ("NaN", "Infinity", "-Infinity", "1e999"):
            bad = text.replace('"value": 40.0', '"value": ' + literal)
            self.assertNotEqual(bad, text)
            self.assertVerdict(self.run_checker(bad), 2,
                               "warm_mean_ms" if literal == "1e999"
                               else "non-finite")
            self.assertVerdict(self.run_checker(ledger(), bad), 2)

    def test_malformed_ledger_is_refused(self):
        self.assertVerdict(self.run_checker("{"), 2, "not valid JSON")
        self.assertVerdict(self.run_checker({"summary": {}}), 2,
                           "not a bench ledger")
        new = ledger()
        new["metrics"][0]["gate"] = "atleast:3"
        self.assertVerdict(self.run_checker(new), 2, "bad gate clause")

    def test_missing_metric_fails(self):
        new = ledger()
        new["metrics"] = [m for m in new["metrics"]
                          if m["name"] != "Q1.search_expansions"]
        self.assertVerdict(self.run_checker(new), 1,
                           "Q1.search_expansions present in the baseline "
                           "but missing from the new run")

    def test_zero_or_negative_baseline_is_refused(self):
        for value in (0, -1.0):
            self.assertVerdict(
                self.run_checker(ledger(), ledger(warm_mean_ms=value)), 2,
                "zero/negative baseline")

    def test_flags_are_refused(self):
        proc = subprocess.run(
            [sys.executable, CHECKER, self.write("a.json", ledger()),
             self.write("b.json", ledger()), "--no-absolute"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2)

    def test_committed_baselines_pass_against_themselves(self):
        baselines = glob.glob(os.path.join(REPO, "benchmarks",
                                           "BENCH_*_baseline.json"))
        self.assertTrue(baselines)
        for path in baselines:
            proc = subprocess.run([sys.executable, CHECKER, path, path],
                                  capture_output=True, text=True)
            self.assertEqual(proc.returncode, 0, path + proc.stderr)


if __name__ == "__main__":
    unittest.main()
