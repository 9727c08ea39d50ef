#!/usr/bin/env python3
"""Protocol checker / client for the lcsf-serve-v1 analysis server.

Stdlib-only. Connects to a running lcsf_serve instance, sends NDJSON
requests, and validates every response line against the machine-readable
contract in tools/serve_schema.json (docs/serving.md) through the shared
subset validator, tools/json_schema.py.

Modes (combinable; all requests go over one connection, in order):

  --request JSON     send one ad-hoc request line, validate + print the
                     response (repeatable)
  --battery          run the built-in conformance battery against
                     --circuit: cold/warm byte-identity of `load`,
                     thread-count invariance of `monte_carlo` payloads
                     on a path and on a graph (top_k 4) session,
                     classified error responses, the per-request caps of
                     the schema's `limits` block, and a schema-valid
                     `metrics` response with populated cache counters
  --shutdown         finish by sending {"type":"shutdown"}

Exit status: 0 when every response validates (and the battery, if
requested, holds), 1 otherwise.

Usage:
  tools/check_serve.py --port 4100 --battery --shutdown
  tools/check_serve.py --port 4100 --request '{"id":1,"type":"load","circuit":"s27"}'
"""

import argparse
import json
import os
import socket
import sys

import json_schema

FAILED = False


def fail(msg):
    global FAILED
    FAILED = True
    print(f"check_serve: FAIL: {msg}", file=sys.stderr)


class Connection:
    """One NDJSON connection: send a line, read one response line."""

    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=300)
        self.buf = b""

    def request(self, line):
        self.sock.sendall(line.encode() + b"\n")
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk
        resp, self.buf = self.buf.split(b"\n", 1)
        return resp.decode()


def check(instance, schema, where):
    for problem in json_schema.validate(instance, schema):
        fail(f"{where}: {problem}")


def closed_response(base, spec):
    """One response type's closed object schema widened by `base`."""
    return dict(spec, required=base["required"] + spec.get("required", []),
                properties=dict(base["properties"],
                                **spec.get("properties", {})))


def validate_response(raw, schema, expect_type=None, expect_ok=None):
    """Validate one response line; returns the parsed object (or None)."""
    try:
        resp = json.loads(raw)
    except json.JSONDecodeError as e:
        fail(f"response is not valid JSON ({e}): {raw[:200]}")
        return None
    if not isinstance(resp, dict):
        fail(f"response is not an object: {raw[:200]}")
        return None

    rtype = resp.get("type", "?")
    where = f"{rtype} response"
    spec = (schema["responses"].get(rtype) if isinstance(rtype, str)
            else None)
    if resp.get("ok") is False or spec is None:
        check(resp, schema["base"], where)
    else:
        check(resp, closed_response(schema["base"], spec), where)
    if resp.get("protocol") != schema["protocol"]:
        fail(f"{where}: protocol is {resp.get('protocol')!r}, "
             f"expected {schema['protocol']!r}")
    if expect_type is not None and rtype != expect_type:
        fail(f"expected a {expect_type} response, got {rtype}: {raw[:200]}")
    if expect_ok is not None and resp.get("ok") is not expect_ok:
        fail(f"{where}: expected ok={expect_ok}: {raw[:300]}")

    if resp.get("ok") is False:
        err = resp.get("error")
        if not isinstance(err, dict):
            fail(f"{where}: ok:false without an error object")
        else:
            check(err, schema["error"], f"{where} error")
    elif spec is None:
        fail(f"{where}: unknown response type {rtype!r}")
    return resp


def payload_after_design(raw):
    """The response bytes from the design hash on: the id and any
    request-echo fields before it may legitimately differ between
    requests that must agree numerically."""
    idx = raw.find('"design"')
    return raw[idx:] if idx >= 0 else raw


def run_battery(conn, schema, circuit):
    load = json.dumps(
        {"id": "b-load", "type": "load", "circuit": circuit})
    cold = conn.request(load)
    validate_response(cold, schema, expect_type="load", expect_ok=True)
    warm = conn.request(load)
    validate_response(warm, schema, expect_type="load", expect_ok=True)
    if cold != warm:
        fail("cold and warm load responses differ:\n"
             f"  cold: {cold}\n  warm: {warm}")

    # Thread-count invariance on a path session and on a graph session
    # (the graph's per-sample walk, through the server).
    for label, session in (("mc", {}), ("graph-mc", {"graph": True,
                                                     "top_k": 4})):
        payloads = {}
        for threads in (1, 2, 8):
            req = json.dumps(dict({
                "id": f"b-{label}-t{threads}", "type": "monte_carlo",
                "circuit": circuit, "samples": 12, "seed": 3,
                "threads": threads,
            }, **session))
            raw = conn.request(req)
            validate_response(raw, schema, expect_type="monte_carlo",
                              expect_ok=True)
            payloads[threads] = payload_after_design(raw)
        for threads in (2, 8):
            if payloads[threads] != payloads[1]:
                fail(f"{label} payload differs between threads=1 and "
                     f"threads={threads}:\n  t1: {payloads[1]}\n  "
                     f"t{threads}: {payloads[threads]}")

    for bad, kind in [
        ("this is not json", "invalid-input"),
        (json.dumps({"id": "b-e1", "type": "frobnicate"}), "invalid-input"),
        (json.dumps({"id": "b-e2", "type": "load", "circuit": "bogus"}),
         "invalid-input"),
        (json.dumps({"id": "b-e3", "type": "monte_carlo",
                     "circuit": circuit, "samples": 0}), "invalid-input"),
        # A number that overflows a double is malformed, not inf (which
        # json.dumps cannot write, hence the hand-built line).
        ('{"id": "b-e4", "type": "gradients", "circuit": %s, '
         '"std_dl": 1e999}' % json.dumps(circuit), "invalid-input"),
    ]:
        resp = validate_response(conn.request(bad), schema, expect_ok=False)
        got = (resp or {}).get("error", {}).get("kind")
        if got != kind:
            fail(f"expected error kind {kind!r} for {bad[:80]!r}, got "
                 f"{got!r}")

    # Each capped field one past its cap (the schema's `limits`). The
    # threads probe goes first with one sample: an uncapped server
    # answers it ok at once.
    over_cap = {
        "threads": {"type": "monte_carlo", "samples": 1},
        "samples": {"type": "monte_carlo"},
        "top_k": {"type": "load", "graph": True},
        "is_pilot": {"type": "yield", "samples": 1, "estimator": "is"},
        "elements": {"type": "load"},
        "batch": {"type": "monte_carlo", "samples": 1},
    }
    for field, base in over_cap.items():
        cap = schema["limits"][field]
        req = dict(base, id=f"b-cap-{field}", circuit=circuit)
        req[field] = cap + 1
        resp = validate_response(conn.request(json.dumps(req)), schema,
                                 expect_ok=False)
        err = (resp or {}).get("error", {})
        message = err.get("message", "")
        if (err.get("kind") != "invalid-input"
                or f"'{field}'" not in message or str(cap) not in message):
            fail(f"{field} = {cap + 1} was not rejected as invalid-input "
                 f"naming the field and its cap {cap}: {err!r}")

    raw = conn.request(json.dumps({"id": "b-metrics", "type": "metrics"}))
    resp = validate_response(raw, schema, expect_type="metrics",
                             expect_ok=True)
    if resp is not None:
        cache = resp.get("cache", {})
        if cache.get("misses", 0) < 1:
            fail("metrics response reports no cache misses after a load")
        if cache.get("hits", 0) < 1:
            fail("metrics response reports no cache hits after a warm load")
        counters = resp.get("metrics", {}).get("counters", {})
        for c in ("serve.requests", "serve.cache.hits", "serve.cache.misses"):
            if c not in counters:
                fail(f"metrics counters missing '{c}'")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, required=True)
    ap.add_argument("--schema",
                    default=os.path.join(os.path.dirname(__file__),
                                         "serve_schema.json"))
    ap.add_argument("--request", action="append", default=[],
                    metavar="JSON", help="ad-hoc request line (repeatable)")
    ap.add_argument("--battery", action="store_true")
    ap.add_argument("--circuit", default="s27")
    ap.add_argument("--shutdown", action="store_true")
    args = ap.parse_args()

    with open(args.schema) as f:
        schema = json.load(f)

    conn = Connection(args.host, args.port)
    for line in args.request:
        raw = conn.request(line)
        validate_response(raw, schema)
        print(raw)
    if args.battery:
        run_battery(conn, schema, args.circuit)
    if args.shutdown:
        raw = conn.request(json.dumps({"id": "bye", "type": "shutdown"}))
        validate_response(raw, schema, expect_type="shutdown",
                          expect_ok=True)

    if FAILED:
        return 1
    checked = len(args.request) + (1 if args.shutdown else 0)
    battery = " + battery" if args.battery else ""
    print(f"check_serve: OK ({checked} ad-hoc request(s){battery})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
