#!/usr/bin/env python3
"""Gate a lcsf-lint-v2 findings document against schema and baseline.

`lcsf_lint --json` always exits 0; this tool owns the verdict. Three
gates, all of which must hold:

  1. Schema: the document must validate against tools/lint_schema.json
     (through the shared stdlib validator, tools/json_schema.py -- no
     third-party jsonschema dependency).
  2. Baseline diff: findings are counted per (rule, file) key and
     compared against the checked-in tools/lint_baseline.json. A key
     whose count grew -- or a key absent from the baseline -- is a NEW
     finding and fails the gate. Fixing findings only prints a nudge to
     refresh the baseline, so improvements never block.
  3. Suppression budget: the total number of `lcsf-lint: allow(...)`
     directives in the tree may not exceed the baseline's recorded
     budget. Adding a suppression therefore requires a deliberate,
     reviewable edit of tools/lint_baseline.json (or fixing the code).

Usage:
  tools/lint_compare.py CANDIDATE.json \
      --schema tools/lint_schema.json --baseline tools/lint_baseline.json
  tools/lint_compare.py CANDIDATE.json --schema tools/lint_schema.json \
      --write-baseline tools/lint_baseline.json

Exit status: 0 = clean, 1 = gate violated, 2 = usage / malformed input.
"""

import argparse
import json
import sys

import json_schema

BASELINE_SCHEMA = "lcsf-lint-baseline-v1"


def fail_usage(msg):
    print(f"lint_compare: {msg}", file=sys.stderr)
    sys.exit(2)


def load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        fail_usage(
            f"{what} {path} not found"
            + (
                "; regenerate it with `lcsf_lint --json | "
                "tools/lint_compare.py - --schema tools/lint_schema.json "
                f"--write-baseline {path}`"
                if what == "baseline"
                else ""
            )
        )
    except (OSError, json.JSONDecodeError) as err:
        fail_usage(f"cannot read {what} {path}: {err}")


def finding_counts(doc):
    """(rule, file) -> finding count, suppressed included: a suppressed
    finding still marks real debt and must stay baseline-visible."""
    counts = {}
    for f in doc["findings"]:
        key = (f["rule"], f["file"])
        counts[key] = counts.get(key, 0) + 1
    return counts


def write_baseline(doc, path):
    counts = finding_counts(doc)
    out = {
        "schema": BASELINE_SCHEMA,
        "suppression_count": doc["suppression_count"],
        "findings": [
            {"rule": rule, "file": file, "count": counts[(rule, file)]}
            for rule, file in sorted(counts)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(f"lint_compare: wrote baseline {path} "
          f"({len(out['findings'])} keys, "
          f"suppression budget {out['suppression_count']})")


def compare(doc, baseline):
    if baseline.get("schema") != BASELINE_SCHEMA:
        fail_usage(f"baseline schema is {baseline.get('schema')!r}, "
                   f"expected {BASELINE_SCHEMA!r}")
    base = {
        (f["rule"], f["file"]): f["count"]
        for f in baseline.get("findings", [])
    }
    cand = finding_counts(doc)

    violations = 0
    for key in sorted(set(base) | set(cand)):
        rule, file = key
        b, c = base.get(key, 0), cand.get(key, 0)
        if c > b:
            print(f"  NEW  {rule} in {file}: {b} -> {c} finding(s)")
            violations += 1
        elif c < b:
            print(f"  stale baseline: {rule} in {file}: {b} -> {c}; "
                  "refresh with --write-baseline")

    budget = baseline.get("suppression_count", 0)
    got = doc["suppression_count"]
    if got > budget:
        print(f"  SUPPRESSION BUDGET: {got} directives > budget {budget}; "
              "fix the finding instead, or grow the budget with a "
              "deliberate edit of the baseline")
        violations += 1

    if violations:
        print(f"lint_compare: {violations} gate violation(s); new findings "
              "must be fixed, not baselined (see docs/static_analysis.md)")
        return 1
    print(f"lint_compare: clean ({len(cand)} baseline key(s), "
          f"suppressions {got}/{budget})")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Validate and baseline-gate a lcsf-lint-v2 document.")
    parser.add_argument("candidate",
                        help="findings JSON from `lcsf_lint --json` "
                             "('-' reads stdin)")
    parser.add_argument("--schema", required=True,
                        help="tools/lint_schema.json")
    parser.add_argument("--baseline",
                        help="checked-in baseline to diff against")
    parser.add_argument("--write-baseline", metavar="PATH",
                        help="write a fresh baseline instead of gating")
    args = parser.parse_args(argv)
    if not args.baseline and not args.write_baseline:
        parser.error("need --baseline (gate) or --write-baseline (refresh)")

    if args.candidate == "-":
        try:
            doc = json.load(sys.stdin)
        except json.JSONDecodeError as err:
            fail_usage(f"cannot parse stdin: {err}")
    else:
        doc = load_json(args.candidate, "candidate")
    schema = load_json(args.schema, "schema")

    errors = json_schema.validate(doc, schema)
    if errors:
        for e in errors:
            print(f"  SCHEMA  {e}")
        print(f"lint_compare: {len(errors)} schema violation(s) in "
              f"{args.candidate}")
        return 1

    if args.write_baseline:
        write_baseline(doc, args.write_baseline)
        return 0
    return compare(doc, load_json(args.baseline, "baseline"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
