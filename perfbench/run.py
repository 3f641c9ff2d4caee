#!/usr/bin/env python3
"""Served-workload benchmark for sama (see perfbench/README.md).

Builds perfbench from the sources of this checkout into .bench_build/,
runs one workload and prints one JSON result as the last line:

  python3 perfbench/run.py --workload point-serve --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --all              # every workload, end-to-end table
  python3 perfbench/run.py --workload read-write --trace 1   # per-layer run
  python3 perfbench/run.py --workload tail-serve --seed 1 --confirm-seed 977

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the spans to .bench_build/traces/). --confirm-seed runs the
same workload again on a second seed and prints its metrics too; the
result is correct only if both runs are.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ["point-serve", "tail-serve", "heavy-search", "read-write"]
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no sama sources next to perfbench/ (src/CMakeLists.txt)")
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(step))
            return False
    return os.path.isfile(BINARY)


def run_binary(workload, seed, seconds, trace, deadline):
    """Runs one workload; returns the program's result object or None."""
    work_dir = os.path.join(BUILD_ROOT, "work", "%s-%d" % (workload, os.getpid()))
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", work_dir]
    if trace:
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, "%s-seed%d.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()),
                              text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    # A failed correctness check exits 1 but still prints its result.
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode in (0, 1) and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            log("perfbench: unreadable result line: %r" % lines[-1][:200])
    if result is None:
        log("perfbench: %s exited with %d" % (workload, proc.returncode))
    return result


def check_counters(result, build_id):
    """The deterministic work counters must repeat exactly for a seed.

    The first run of a build at a (workload, seed) records them under
    .bench_build/; every later run of the same build compares against
    that record.
    """
    path = os.path.join(BUILD_ROOT, "counters", build_id,
                        "%s-seed%s.json" % (result["workload"], result["seed"]))
    counters = result["counters"]
    if os.path.isfile(path):
        with open(path) as f:
            recorded = json.load(f)
        if recorded != counters:
            log("perfbench: work counters differ from an earlier run at this "
                "seed: %s vs %s" % (counters, recorded))
            return False
        return True
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(counters, f, sort_keys=True)
    return True


def print_table(result, section):
    print("# %s seed=%s  %s" % (result["workload"], result["seed"],
                                json.dumps(result["fingerprint"])))
    for name, metric in result[section].items():
        print("  %-32s %16.6g %s" % (name, metric["value"], metric["unit"]))
    if section == "end_to_end":
        for name, metric in result["served"].items():
            print("  %-32s %16.6g %s   (not gated)" % (name, metric["value"],
                                                      metric["unit"]))
    print("  %-32s %16s" % ("counters", json.dumps(result["counters"])))
    print("  correct=%s attempted=%d failed=%d failures=%s" % (
        result["correct"], result["attempted"], result["failed"],
        json.dumps(result["failures"])))
    sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--confirm-seed", type=int,
                        help="also run on this second seed")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")

    start = time.monotonic()
    if not build():
        return 1
    deadline = time.monotonic() + RUN_TIMEOUT_S
    section = "per_layer" if args.trace else "end_to_end"
    workloads = WORKLOADS if args.all else [args.workload]
    seeds = [args.seed] + ([args.confirm_seed] if args.confirm_seed else [])
    if args.all or len(seeds) > 1:
        deadline = start + 10 * RUN_TIMEOUT_S  # Several runs, several minutes.

    with open(BINARY, "rb") as f:
        build_id = hashlib.sha1(f.read()).hexdigest()[:16]
    results = []
    for workload in workloads:
        for seed in seeds:
            result = run_binary(workload, seed, args.seconds, args.trace, deadline)
            if result is None:
                return 1
            if not check_counters(result, build_id):
                result["correct"] = False
                result["failed"] += 1
            print_table(result, section)
            results.append(result)

    first = results[0]
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": first[section],
    }
    if args.all:
        summary["metrics"] = {
            "%s.%s" % (r["workload"], name): metric
            for r in results for name, metric in r[section].items()}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
