#!/usr/bin/env python3
"""Tests for tools/json_schema.py and the three contracts written in it.

Each keyword of the subset gets one accepted and one rejected instance.
Each contract (tools/metrics_schema.json, tools/serve_schema.json,
tools/lint_schema.json) gets a real document, which must pass, and one
mutation per failure mode, which must fail. The documents were recorded
from `lcsf_sta --circuit s27 --samples 4 --metrics`, lcsf_serve and
`lcsf_lint --json`.

Usage: python3 tests/test_json_schema.py   (the `json_schema` ctest)
"""

import contextlib
import io
import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                     "tools")
sys.path.insert(0, TOOLS)

import check_metrics  # noqa: E402
import check_serve  # noqa: E402
import json_schema  # noqa: E402


def load_schema(name):
    with open(os.path.join(TOOLS, name), encoding="utf-8") as fh:
        return json.load(fh)


class Keywords(unittest.TestCase):
    def verdicts(self, schema, good, bad):
        self.assertEqual(json_schema.validate(good, schema), [])
        self.assertNotEqual(json_schema.validate(bad, schema), [])

    def test_type_name(self):
        self.verdicts({"type": "string"}, "a", 1)
        self.verdicts({"type": "array"}, [], {})
        self.verdicts({"type": "object"}, {}, [])
        self.verdicts({"type": "boolean"}, False, 0)

    def test_type_list(self):
        self.verdicts({"type": ["string", "integer"]}, 3, 1.5)
        self.verdicts({"type": ["string", "integer"]}, "x", None)

    def test_numbers_reject_booleans(self):
        self.verdicts({"type": "integer"}, 2, True)
        self.verdicts({"type": "number"}, 2.5, False)

    def test_const(self):
        self.verdicts({"const": "v2"}, "v2", "v1")

    def test_enum(self):
        self.verdicts({"enum": ["a", "b"]}, "b", "c")

    def test_minimum(self):
        self.verdicts({"type": "integer", "minimum": 1}, 1, 0)

    def test_required(self):
        self.verdicts({"required": ["a"]}, {"a": 1}, {"b": 1})

    def test_properties(self):
        schema = {"properties": {"a": {"type": "integer"}}}
        self.verdicts(schema, {"a": 1, "b": "open"}, {"a": "1"})

    def test_closed_object(self):
        schema = {"properties": {"a": {}}, "additionalProperties": False}
        self.verdicts(schema, {"a": 1}, {"a": 1, "b": 2})

    def test_additional_properties_schema(self):
        schema = {"properties": {"a": {"type": "string"}},
                  "additionalProperties": {"type": "integer"}}
        self.verdicts(schema, {"a": "x", "b": 2}, {"a": "x", "b": "2"})

    def test_items(self):
        self.verdicts({"items": {"type": "integer"}}, [1, 2], [1, "2"])

    def test_a_type_mismatch_stops_the_checks_below_it(self):
        schema = {"type": "object", "required": ["a"]}
        self.assertEqual(json_schema.validate([], schema),
                         ["$: expected object, got list"])


METRICS_EXPORT = """{
  "schema": "lcsf-metrics-v1",
  "deterministic": false,
  "counters": {
    "mor.dropped_poles": 0,
    "mor.pact.eigensolves": 5,
    "mor.pact.memo_hits": 20,
    "mor.rom_evaluations": 55,
    "stats.mc.batch_remainder_samples": 4,
    "stats.mc.batches": 0,
    "stats.mc.samples": 4,
    "stats.mc.skipped": 0,
    "teta.chord_iterations": 73865,
    "teta.dt_halvings": 0,
    "teta.steps": 14036,
    "teta.transients": 55
  },
  "distributions": {
    "stats.mc.batch_fill": {"count": 1, "min": 4, "max": 4, "mean": 4, "p50": 4, "p95": 4},
    "stats.mc.block_seconds": {"count": 1, "min": 0.0080094620000000002, "max": 0.0080094620000000002, "mean": 0.0080094620000000002, "p50": 0.0080094620000000002, "p95": 0.0080094620000000002}
  },
  "timers": {
    "core.characterize": {"count": 1, "total_seconds": 0.00026417600000000003},
    "core.characterize/core.graph_characterize": {"count": 1, "total_seconds": 0.00025914599999999997},
    "core.characterize/core.graph_characterize/mor.characterize": {"count": 5, "total_seconds": 0.00021945100000000001},
    "core.characterize/core.graph_characterize/mor.characterize/mor.pact": {"count": 25, "total_seconds": 0.000102792},
    "mor.poleres": {"count": 55, "total_seconds": 0.00039314200000000002},
    "mor.stabilize": {"count": 55, "total_seconds": 9.9840999999999995e-05},
    "stats.monte_carlo": {"count": 1, "total_seconds": 0.0080337359999999997},
    "teta.stage": {"count": 35, "total_seconds": 0.011814718},
    "teta.stage_batch": {"count": 5, "total_seconds": 0.0071782490000000003}
  }
}"""


class MetricsContract(unittest.TestCase):
    schema = load_schema("metrics_schema.json")

    def check(self, mutate, require=()):
        doc = json.loads(METRICS_EXPORT)
        mutate(doc)
        return check_metrics.check(doc, self.schema, require)

    def test_recorded_export_passes(self):
        self.assertEqual(self.check(lambda d: None, ["stats.mc.samples"]), [])

    def test_failure_modes(self):
        def setter(*path_and_value):
            *path, key, value = path_and_value

            def mutate(doc):
                for p in path:
                    doc = doc[p]
                doc[key] = value
            return mutate
        mutations = {
            "wrong type": setter("deterministic", "no"),
            "missing required key": lambda d: d.pop("counters"),
            "bad enum": setter("schema", "lcsf-metrics-v0"),
            "below minimum": setter("counters", "teta.steps", -1),
            "boolean counter": setter("counters", "teta.steps", True),
            "bad extra counter": setter("counters", "x.new", "3"),
            "bad pinned distribution": setter(
                "distributions", "stats.mc.batch_fill", "min", 0),
            "bad timer": setter("timers", "mor.poleres", "count", 0),
            "quantiles out of order": setter(
                "distributions", "stats.mc.batch_fill", "p50", 5),
            "deterministic with timers": setter("deterministic", True),
        }
        for name, mutate in mutations.items():
            with self.subTest(name):
                self.assertNotEqual(self.check(mutate), [])
        self.assertNotEqual(self.check(lambda d: None, ["stats.nope"]), [])


# Recorded lcsf_serve response lines (s27). The metrics response's
# registry export is cut to its first counter; the schema only asks for
# an object there.
SERVE_LINES = [
    '{"id":1,"ok":true,"protocol":"lcsf-serve-v1","type":"load","design":"ff9c813e5393397c","mode":"path","gates":13,"latches":3,"stages":5,"memory_bytes":13947}',
    '{"id":"g","ok":true,"protocol":"lcsf-serve-v1","type":"load","design":"b958f8c056d90477","mode":"graph","gates":13,"latches":3,"paths":4,"blocks":5,"endpoints":1,"memory_bytes":15830}',
    '{"id":2,"ok":true,"protocol":"lcsf-serve-v1","type":"monte_carlo","design":"ff9c813e5393397c","monte_carlo":{"samples":4,"survivors":4,"mean":2.048631358282906e-10,"stddev":4.8075038967697637e-12}}',
    '{"id":3,"ok":true,"protocol":"lcsf-serve-v1","type":"gradients","design":"ff9c813e5393397c","nominal_delay":2.0540323688523876e-10,"stddev":4.850218339300774e-12,"simulations":35,"gradient":[-3.8955007030903618e-12,2.4020393749541454e-12,-9.5624202824122888e-12,3.8544948339339327e-12,-5.9791587311026096e-12,2.7818978893824483e-12,-4.2499599403249056e-12,2.1394377836800702e-12,-4.2692764130487848e-12,2.1031562388672047e-12]}',
    '{"id":4,"ok":true,"protocol":"lcsf-serve-v1","type":"yield","design":"ff9c813e5393397c","estimator":"is","clock_period":2.200094451299666e-10,"yield":0.9886479123984574,"yield_loss":0.011352087601542594,"std_error":0.0086611737181290505,"samples":8,"ess":1.5764349517809082,"pilot_used":4,"surrogate_beta":2.854799493314069}',
    '{"id":5,"ok":true,"protocol":"lcsf-serve-v1","type":"graph","design":"d012b5fa8d501c75","paths":2,"blocks":5,"monte_carlo":{"samples":4,"survivors":4,"mean":2.5619265104757259e-10,"stddev":6.3518845825374184e-12},"nominal":{"max_delay":2.5527470692806573e-10,"stages_simulated":5,"stage_cache_hits":5,"merges":5,"endpoints":[{"net":11,"delay":2.5527470692806573e-10,"slew":4.5794117593219132e-11,"analytic_mean":2.5914784498003196e-10,"analytic_std":4.9342854949682787e-12}]}}',
    '{"id":6,"ok":false,"protocol":"lcsf-serve-v1","type":"load","error":{"kind":"invalid-input","message":"invalid-input: find_benchmark: unknown circuit bogus"}}',
    '{"id":7,"ok":true,"protocol":"lcsf-serve-v1","type":"metrics","metrics":{"schema":"lcsf-metrics-v1","deterministic":false,"counters":{"mor.dropped_poles":0}},"cache":{"hits":3,"misses":3,"evictions":0,"entries":3,"resident_bytes":44583}}',
    '{"id":"bye","ok":true,"protocol":"lcsf-serve-v1","type":"shutdown"}',
]


class ServeContract(unittest.TestCase):
    schema = load_schema("serve_schema.json")

    def passes(self, line):
        check_serve.FAILED = False
        with contextlib.redirect_stderr(io.StringIO()):
            check_serve.validate_response(line, self.schema)
        return not check_serve.FAILED

    def mutated(self, index, mutate):
        resp = json.loads(SERVE_LINES[index])
        mutate(resp)
        return json.dumps(resp)

    def test_recorded_lines_pass(self):
        for line in SERVE_LINES:
            with self.subTest(line[:60]):
                self.assertTrue(self.passes(line))

    def test_failure_modes(self):
        mutations = {
            "wrong type": (0, lambda r: r.update(gates="13")),
            "missing required key": (2, lambda r: r.pop("design")),
            "extra key in a closed response": (
                0, lambda r: r.update(cached=True)),
            "extra key in a shutdown": (8, lambda r: r.update(design="x")),
            "wrong nested type": (
                5, lambda r: r["monte_carlo"].update(samples="4")),
            "missing cache key": (7, lambda r: r["cache"].pop("entries")),
            "wrong protocol": (0, lambda r: r.update(protocol="v0")),
            "unknown response type": (
                8, lambda r: r.update(type="frobnicate")),
            "ok:false without error": (6, lambda r: r.pop("error")),
            "unclassified error kind": (
                6, lambda r: r["error"].update(kind="weird")),
            "error without message": (
                6, lambda r: r["error"].pop("message")),
            "fractional id": (0, lambda r: r.update(id=1.5)),
            "boolean id": (0, lambda r: r.update(id=True)),
            "null id": (6, lambda r: r.update(id=None)),
        }
        for name, (index, mutate) in mutations.items():
            with self.subTest(name):
                self.assertFalse(self.passes(self.mutated(index, mutate)))
        self.assertFalse(self.passes("not json"))
        self.assertFalse(self.passes("[1]"))


LINT_DOC = """{
  "schema": "lcsf-lint-v2",
  "files_scanned": 172,
  "suppression_count": 2,
  "findings": [
    {"rule": "nondeterministic-rng", "file": "src/stats/random.hpp", "line": 122, "suppressed": true, "message": "default-constructed mt19937 uses the fixed default seed and hides the seeding decision; construct with an explicit seed, or use stats::sample_stream for per-sample determinism"},
    {"rule": "thread-outside-pool", "file": "tests/test_tsan_stress.cpp", "line": 71, "suppressed": true, "message": "raw std::thread/std::async outside runtime::ThreadPool: all parallelism must go through the pool so LCSF_THREADS, nesting rules and the determinism contract hold"},
    {"rule": "thread-outside-pool", "file": "tests/test_tsan_stress.cpp", "line": 72, "suppressed": true, "message": "raw std::thread/std::async outside runtime::ThreadPool: all parallelism must go through the pool so LCSF_THREADS, nesting rules and the determinism contract hold"}
  ]
}"""


class LintContract(unittest.TestCase):
    schema = load_schema("lint_schema.json")

    def errors(self, mutate):
        doc = json.loads(LINT_DOC)
        mutate(doc)
        return json_schema.validate(doc, self.schema)

    def test_recorded_document_passes(self):
        self.assertEqual(self.errors(lambda d: None), [])
        self.assertEqual(self.errors(
            lambda d: d["findings"][0].update(edge_path=["core", "api"])), [])

    def test_failure_modes(self):
        mutations = {
            "wrong type": lambda d: d.update(files_scanned="172"),
            "boolean count": lambda d: d.update(files_scanned=True),
            "missing required key": lambda d: d.pop("suppression_count"),
            "missing finding key": lambda d: d["findings"][0].pop("rule"),
            "extra top-level key": lambda d: d.update(extra=1),
            "extra finding key": lambda d: d["findings"][0].update(col=3),
            "bad const": lambda d: d.update(schema="lcsf-lint-v1"),
            "below minimum": lambda d: d["findings"][0].update(line=0),
            "negative count": lambda d: d.update(suppression_count=-1),
            "bad finding": lambda d: d["findings"].append(5),
            "bad edge_path item": lambda d: d["findings"][0].update(
                edge_path=[1]),
        }
        for name, mutate in mutations.items():
            with self.subTest(name):
                self.assertNotEqual(self.errors(mutate), [])


if __name__ == "__main__":
    unittest.main()
