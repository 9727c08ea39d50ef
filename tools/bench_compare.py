#!/usr/bin/env python3
"""Check absolute metric floors on one benchmark result file.

Two result shapes carry a "metrics" object:

* a BENCH_*.json file written by a bench_* binary, whose metrics are
  plain numbers (see docs/performance.md);
* an lcsf_bench result line saved to a file (the last stdout line of
  `python3 lcsf_bench/run.py --workload ...`), whose metrics are
  {"value": x, "unit": u} objects.

A result that reports "correct": false fails the check whatever its
metrics.

Usage:
  tools/bench_compare.py --check RESULT.json --min speedup=1.5 [--min ...]

Comparing two sets of runs is lcsf_bench's job: `python3 lcsf_bench/run.py
compare PARENT_DIR CHANGE_DIR` calls gains and regressions over
alternating pairs with the bounds in BENCHMARK.json.

Exit status: 0 = every floor holds, 1 = a floor is violated or its metric
is missing, or the result reports itself incorrect, 2 = usage / malformed
input.
"""

import argparse
import json
import sys


def die(msg):
    print(f"bench_compare: {msg}", file=sys.stderr)
    sys.exit(2)


def metric_value(v):
    """A metric's number: plain, or the "value" of a {value, unit} object."""
    if isinstance(v, dict):
        v = v.get("value")
    return float(v) if isinstance(v, (int, float)) else None


def load_metrics(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        die(f"{path} does not exist; regenerate it by running the "
            "corresponding bench_* binary with the output path as its "
            "argument (see docs/performance.md), or pass the checked-in "
            "BENCH_*.json baseline from the repo root")
    except (OSError, json.JSONDecodeError) as err:
        die(f"cannot read {path}: {err}")
    if not isinstance(doc, dict):
        die(f"{path} is not a JSON object (expected a benchmark result)")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        die(f"{path} has no 'metrics' object; every benchmark result "
            f"carries one (keys present: {sorted(doc)})")
    values = {k: metric_value(v) for k, v in metrics.items()}
    return doc, {k: v for k, v in values.items() if v is not None}


def check_floors(path, floors):
    """Assert absolute metric floors (metric=value); count violations."""
    doc, metrics = load_metrics(path)
    violations = 0
    if doc.get("correct") is False:
        print(f"  {path}: result reports \"correct\": false  VIOLATION")
        violations += 1
    for spec in floors:
        name, _, value = spec.partition("=")
        if not value:
            die(f"bad --min spec {spec!r} (expected metric=value)")
        try:
            floor = float(value)
        except ValueError:
            die(f"bad --min spec {spec!r} ({value!r} is not a number)")
        got = metrics.get(name)
        if got is None:
            print(f"  {name}: MISSING (floor {floor:g}); metrics present: "
                  f"{sorted(metrics)}")
            violations += 1
        elif got < floor:
            print(f"  {name}: {got:g} < floor {floor:g}  VIOLATION")
            violations += 1
        else:
            print(f"  {name}: {got:g} >= floor {floor:g}  ok")
    return violations


def main(argv):
    parser = argparse.ArgumentParser(
        description="Check absolute metric floors on one benchmark result.")
    parser.add_argument("--check", metavar="RESULT.json", required=True,
                        help="the result file to check")
    parser.add_argument("--min", action="append", required=True,
                        metavar="METRIC=VALUE",
                        help="absolute floor for a metric (repeatable)")
    args = parser.parse_args(argv)
    return 1 if check_floors(args.check, args.min) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
