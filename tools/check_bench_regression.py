#!/usr/bin/env python3
"""Gate a bench ledger against its committed baseline.

Usage:
    check_bench_regression.py NEW.json BASELINE.json

Every gated harness writes one shape (benchmarks/bench_util.h, Ledger):

    {"bench": "...",
     "fingerprint": {"nproc": ..., "cpu": "...", "compiler": "...",
                     "build_type": "..."},
     "config": {...},
     "metrics": [{"name": "...", "value": ..., "gate": "..."}]}

A gate is a space-separated list of clauses. The BASELINE's gates are
the ones applied, so every bound lives in the committed baseline. The
clauses fall into three tiers:

  1. Deterministic counters, checked on any machine:
       zero       value == 0 (correctness counts)
       exact      value == the baseline's value
  2. Same-run ratios and hard floors, checked on any machine:
       min:X      value >= X
       max:X      0 < value <= X
  3. Absolute ms and rates, checked only when both fingerprints match:
       lower:T    0 < value <= baseline * (1 + T)
       higher:T   value >= baseline * (1 - T)
  none: recorded for the reader, never gated.

`bench` and `config` must match the baseline's. A metric in the
baseline but missing from the new run fails.

Exit status: 0 pass; 1 regression; 2 refused: unreadable, malformed or
non-finite input, a different bench or config, or a zero or negative
baseline under a tier-3 clause.
"""

import json
import math
import sys

TIER = {"zero": 1, "exact": 1, "min": 2, "max": 2, "lower": 3, "higher": 3,
        "none": 0}


class Refused(Exception):
    pass


def parse_gate(gate, where):
    """'min:1000 higher:0.2' -> [('min', 1000.0), ('higher', 0.2)]."""
    clauses = []
    for clause in gate.split():
        kind, _, bound = clause.partition(":")
        if kind not in TIER or (TIER[kind] >= 2) != bool(bound):
            raise Refused(f"{where}: bad gate clause {clause!r}")
        try:
            clauses.append((kind, float(bound) if bound else None))
        except ValueError:
            raise Refused(f"{where}: bad gate clause {clause!r}")
    if not clauses:
        raise Refused(f"{where}: empty gate")
    return clauses


def load(path):
    """Reads a ledger; returns (ledger, {name: (value, gate, clauses)})."""
    def reject(literal):
        raise ValueError(f"non-finite JSON value {literal!r}")

    try:
        with open(path) as f:
            ledger = json.load(f, parse_constant=reject)
    except OSError as e:
        raise Refused(f"cannot read {path}: {e}")
    except ValueError as e:
        raise Refused(f"{path} is not valid JSON: {e}")
    shape = (("bench", str), ("fingerprint", dict), ("config", dict),
             ("metrics", list))
    if not isinstance(ledger, dict) or any(
            not isinstance(ledger.get(k), t) for k, t in shape):
        raise Refused(f"{path} is not a bench ledger (want keys "
                      f"{', '.join(k for k, _ in shape)})")
    metrics = {}
    for m in ledger["metrics"]:
        name = m.get("name") if isinstance(m, dict) else None
        if not isinstance(name, str) or name in metrics:
            raise Refused(f"{path}: metric without a unique name: {m!r}")
        value, gate = m.get("value"), m.get("gate")
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise Refused(f"{path}: metric {name!r} value {value!r} is not "
                          f"a finite number")
        if not isinstance(gate, str):
            raise Refused(f"{path}: metric {name!r} has no gate")
        metrics[name] = (value, gate,
                         parse_gate(gate, f"{path} metric {name!r}"))
    return ledger, metrics


def differing(a, b):
    """Sorted keys on which two dicts differ."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def check(new_path, base_path):
    """Returns (failures, notes, checks run per tier); raises Refused."""
    new, new_metrics = load(new_path)
    base, base_metrics = load(base_path)
    if new["bench"] != base["bench"]:
        raise Refused(f"bench {new['bench']!r} in {new_path} vs "
                      f"{base['bench']!r} in {base_path}")
    if new["config"] != base["config"]:
        raise Refused(f"config differs from the baseline's on "
                      f"{', '.join(differing(new['config'], base['config']))}"
                      f"; counters are only comparable under the same "
                      f"config")
    same_machine = new["fingerprint"] == base["fingerprint"]

    failures, notes, skipped, ran = [], [], [], [0, 0, 0, 0]
    for name, (base_value, gate, clauses) in base_metrics.items():
        for kind, _ in clauses:
            if TIER[kind] == 3 and base_value <= 0:
                raise Refused(f"{name} is {base_value:g} in {base_path}; a "
                              f"zero/negative baseline cannot gate anything "
                              f"(re-record the baseline)")
        if name not in new_metrics:
            failures.append(f"{name} present in the baseline but missing "
                            f"from the new run")
            continue
        value, new_gate, _ = new_metrics[name]
        if new_gate != gate:
            notes.append(f"{name}: gate {new_gate!r} in the new run, "
                         f"{gate!r} applied from the baseline")
        for kind, bound in clauses:
            if TIER[kind] == 3 and not same_machine:
                skipped.append(name)
                continue
            ran[TIER[kind]] += 1
            if kind == "zero" and value != 0:
                failures.append(f"{name} is {value:g}; must be 0")
            elif kind == "exact" and value != base_value:
                failures.append(f"{name} {value:g} differs from baseline "
                                f"{base_value:g}; must match exactly")
            elif kind == "min" and value < bound:
                failures.append(f"{name} {value:g} below the floor {bound:g}")
            elif kind == "max" and not 0 < value <= bound:
                failures.append(f"{name} {value:g} outside (0, {bound:g}]")
            elif kind == "lower" and not 0 < value <= base_value * (1+bound):
                failures.append(f"{name} {value:g} exceeds baseline "
                                f"{base_value:g} +{bound:.0%} "
                                f"(limit {base_value * (1 + bound):g})")
            elif kind == "higher" and value < base_value * (1 - bound):
                failures.append(f"{name} {value:g} fell below baseline "
                                f"{base_value:g} -{bound:.0%} "
                                f"(floor {base_value * (1 - bound):g})")
    if skipped:
        differ = differing(new["fingerprint"], base["fingerprint"])
        notes.append(f"fingerprint differs from the baseline's on "
                     f"{', '.join(differ)}: skipped the absolute-ms/rate "
                     f"tier for {', '.join(sorted(set(skipped)))}")
    return failures, notes, ran


def main(argv):
    if len(argv) != 3 or any(a.startswith("-") for a in argv[1:]):
        print(__doc__, file=sys.stderr)
        return 2
    try:
        failures, notes, ran = check(argv[1], argv[2])
    except Refused as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for note in notes:
        print(f"note: {note}")
    if failures:
        print("BENCH REGRESSION:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"bench ok: {argv[1]} against {argv[2]}: {ran[1]} deterministic, "
          f"{ran[2]} ratio/floor, {ran[3]} absolute check(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
