#!/usr/bin/env python3
"""Guard-rails bench-smoke results against a committed baseline.

Usage: check_bench_regression.py <BENCH_*.json>... [--baseline FILE]

Reads one or more bench-smoke JSON artifacts (bench/json_reporter.h
schema; e.g. BENCH_derive.json for the A8 execution-mode sweep and
BENCH_joins.json for the hash-join probes) and compares every benchmark
named in the committed baseline (default scripts/bench_baseline.json)
against its recorded ns_per_op. A run fails the gate when it is more
than `max_ratio` (default 2.0) times slower than baseline — wide enough
to absorb CI-runner noise and the deliberately tiny
--benchmark_min_time smoke runs, narrow enough to catch an accidental
fallback from the vector join paths to the row paths (a >2.5x cliff on
the tracked entries).

Benchmarks present in the artifacts but absent from the baseline are
ignored (new benchmarks don't need a baseline entry to land); baseline
entries missing from every artifact fail, so renames must update both.
Exits non-zero with one line per violation.
"""

import json
import os
import sys

DEFAULT_BASELINE = os.path.join(os.path.dirname(__file__),
                                "bench_baseline.json")


def main():
    args = sys.argv[1:]
    baseline_path = DEFAULT_BASELINE
    if "--baseline" in args:
        i = args.index("--baseline")
        if i + 1 >= len(args):
            sys.exit("--baseline needs a file")
        baseline_path = args[i + 1]
        del args[i:i + 2]
    if not args:
        sys.exit(f"usage: {sys.argv[0]} <BENCH_*.json>... [--baseline FILE]")

    runs = {}
    for artifact_path in args:
        with open(artifact_path, encoding="utf-8") as f:
            runs.update({r["name"]: r for r in json.load(f)["benchmarks"]})
    with open(baseline_path, encoding="utf-8") as f:
        baseline = json.load(f)

    max_ratio = float(baseline.get("max_ratio", 2.0))
    violations = []
    for name, entry in sorted(baseline["benchmarks"].items()):
        base_ns = float(entry["ns_per_op"])
        run = runs.get(name)
        if run is None:
            violations.append(f"{name}: tracked in baseline but missing "
                              f"from {', '.join(args)}")
            continue
        ns = float(run["ns_per_op"])
        ratio = ns / base_ns if base_ns > 0 else float("inf")
        status = "FAIL" if ratio > max_ratio else "ok"
        print(f"{status:4} {name}: {ns / 1e6:.2f} ms vs baseline "
              f"{base_ns / 1e6:.2f} ms ({ratio:.2f}x, limit {max_ratio}x)")
        if ratio > max_ratio:
            violations.append(f"{name}: {ratio:.2f}x slower than baseline "
                              f"(limit {max_ratio}x)")

    if violations:
        sys.exit("bench regression gate failed:\n  " +
                 "\n  ".join(violations))
    print(f"bench regression gate passed "
          f"({len(baseline['benchmarks'])} tracked entries)")


if __name__ == "__main__":
    main()
