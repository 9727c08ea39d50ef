#!/usr/bin/env python3
"""Validate lcsf-metrics-v1 JSON (obs::Registry::to_json output).

Stdlib-only: the structural schema (tools/metrics_schema.json) goes
through the shared subset validator in tools/json_schema.py. On top of
it this tool checks the semantic invariants of the format: distribution
order statistics are ordered (min <= p50 <= p95 <= max, mean inside
[min, max]) and the deterministic flag matches the content (a
deterministic export carries no timers section and no wall-clock
distribution).

Usage:
  tools/check_metrics.py --schema tools/metrics_schema.json out.json
  tools/check_metrics.py --schema ... out.json --require stats.mc.samples
  tools/check_metrics.py --diff-deterministic a.json b.json

--require asserts a counter name is present (repeatable; CI uses it to
prove the engine instrumentation actually fired). --diff-deterministic
strips the wall-clock content (timers, *_seconds/_ms/_us/_ns
distributions) from two exports and fails when the remainders differ --
the CLI-level witness of the thread-count-invariance contract.

Exit status: 0 = valid, 1 = violation, 2 = usage / unreadable input.
"""

import argparse
import json
import sys

import json_schema

WALL_CLOCK_SUFFIXES = ("_seconds", "_ms", "_us", "_ns")


def is_wall_clock(name):
    return name.endswith(WALL_CLOCK_SUFFIXES)


def load(path):
    """The parsed JSON at `path`; unreadable input exits 2 (usage)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_metrics: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def semantic_checks(doc, errors):
    for name, d in doc.get("distributions", {}).items():
        if not isinstance(d, dict):
            continue
        try:
            lo, p50, p95, hi = d["min"], d["p50"], d["p95"], d["max"]
            if not (lo <= p50 <= p95 <= hi):
                errors.append(f"distribution {name}: quantiles out of "
                              f"order ({lo} / {p50} / {p95} / {hi})")
            if not (lo <= d["mean"] <= hi):
                errors.append(f"distribution {name}: mean {d['mean']} "
                              f"outside [{lo}, {hi}]")
        except (KeyError, TypeError):
            pass  # structural validation already reported it
    if doc.get("deterministic") is True:
        if "timers" in doc:
            errors.append("deterministic export must not contain timers")
        for name in doc.get("distributions", {}):
            if is_wall_clock(name):
                errors.append(f"deterministic export contains wall-clock "
                              f"distribution '{name}'")


def check(doc, schema, require=()):
    """Every schema, semantic and --require violation of one export."""
    errors = json_schema.validate(doc, schema)
    if not isinstance(doc, dict):
        return errors
    semantic_checks(doc, errors)
    for name in require:
        if name not in doc.get("counters", {}):
            errors.append(f"required counter '{name}' missing")
    return errors


def deterministic_view(doc):
    """The thread-count-invariant projection of one metrics export."""
    return {
        "schema": doc.get("schema"),
        "counters": doc.get("counters", {}),
        "distributions": {
            k: v for k, v in doc.get("distributions", {}).items()
            if not is_wall_clock(k)
        },
    }


def main(argv):
    parser = argparse.ArgumentParser(
        description="Validate lcsf-metrics-v1 JSON exports.")
    parser.add_argument("files", nargs="*", help="metrics JSON file(s)")
    parser.add_argument("--schema", help="schema file "
                        "(tools/metrics_schema.json)")
    parser.add_argument("--require", action="append", default=[],
                        metavar="COUNTER",
                        help="fail unless this counter is present "
                             "(repeatable)")
    parser.add_argument("--diff-deterministic", nargs=2,
                        metavar=("A.json", "B.json"),
                        help="compare the deterministic projections of "
                             "two exports")
    args = parser.parse_args(argv)

    if args.diff_deterministic:
        a_path, b_path = args.diff_deterministic
        a = deterministic_view(load(a_path))
        b = deterministic_view(load(b_path))
        if a != b:
            print(f"check_metrics: deterministic content differs between "
                  f"{a_path} and {b_path}", file=sys.stderr)
            for section in ("schema", "counters", "distributions"):
                if a[section] != b[section]:
                    print(f"  {section}: {a[section]!r}\n"
                          f"        != {b[section]!r}", file=sys.stderr)
            return 1
        print(f"check_metrics: deterministic content identical "
              f"({a_path} vs {b_path})")
        return 0

    if not args.schema or not args.files:
        parser.error("need --schema and at least one metrics file "
                     "(or --diff-deterministic)")
    schema = load(args.schema)
    status = 0
    for path in args.files:
        doc = load(path)
        errors = check(doc, schema, args.require)
        if errors:
            status = 1
            print(f"check_metrics: {path}: INVALID", file=sys.stderr)
            for e in errors:
                print(f"  {e}", file=sys.stderr)
        else:
            print(f"check_metrics: {path}: ok "
                  f"({len(doc.get('counters', {}))} counters, "
                  f"{len(doc.get('distributions', {}))} distributions, "
                  f"{len(doc.get('timers', {}))} timers)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
