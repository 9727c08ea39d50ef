#!/usr/bin/env python3
"""lcsf_bench runner: builds and runs the benchmark, compares result sets.

Stdlib only. Run from the repository root.

  python3 lcsf_bench/run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload (the contract BENCHMARK.json describes). The
      last stdout line is the result object; --trace 1 reports the
      per-layer metrics and writes the spans as Chrome trace JSON under the
      build directory.

  python3 lcsf_bench/run.py suite --seed S --out DIR [--reps N]
      Every workload N times (seeds S, S+1, ...) plus one traced run each;
      prints every metric with its unit and writes DIR/results.json.

  python3 lcsf_bench/run.py compare PARENT_DIR CHANGE_DIR
      Gain / regression / unresolved verdict per (metric, workload) from two
      suite result sets, using the bounds in BENCHMARK.json.

  python3 lcsf_bench/run.py smoke [--bin-dir DIR]
      Every workload, timed and traced, at LCSF_BENCH_QUICK=1 sizes; checks
      that every declared metric appears with its declared unit.

  python3 lcsf_bench/run.py explain-serve
      bench_serve's configuration split into queue wait and analysis.

The build goes to $CARGO_TARGET_DIR/lcsf_bench (default .bench_build).
"""

import fcntl
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("lcsf_bench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "lcsf_bench")


def build():
    """Configure once, then build the benchmark program and the server
    (no-op when current). Returns the binary directory."""
    for need in ("src/CMakeLists.txt", "src/api/session.hpp",
                 "tools/lcsf_serve.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("%s is missing: run from a full checkout" % need, 2)
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir])
        steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                      "lcsf_bench", "lcsf_serve"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return bdir


def run_bench(bdir, workload, seed, seconds, trace, quick=False,
              trace_out=None):
    """Run one workload; returns (exit code, human lines, result or None)."""
    cmd = [os.path.join(bdir, "lcsf_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--serve-bin", os.path.join(bdir, "lcsf_serve")]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ)
    if quick:
        env["LCSF_BENCH_QUICK"] = "1"
    # Own process group, so a timeout also stops the server it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 1, [], None
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def declared(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def schema_errors(spec, result, trace):
    """Names or units in `result` that differ from BENCHMARK.json."""
    want = declared(spec, trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    errors = ["missing %s" % n for n in sorted(set(want) - set(got))]
    errors += ["undeclared %s" % n for n in sorted(set(got) - set(want))]
    errors += ["%s unit %s, declared %s" % (n, got[n], want[n])
               for n in sorted(set(want) & set(got)) if got[n] != want[n]]
    return errors


# ---- one run (the benchmark contract) ------------------------------------

def contract(argv):
    args = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail("unknown argument %s" % flag, 2)
        args[flag[2:]] = next(it, None)
    if None in args.values() or len(args) != 4:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1",
             2)
    spec = load_spec()
    workload = args["workload"]
    if workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % workload, 2)
    trace = args["trace"] == "1"
    bdir = build()
    trace_out = None
    if trace:
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        trace_out = os.path.join(
            bdir, "traces", "%s-seed%s.json" % (workload, args["seed"]))
    code, lines, result = run_bench(bdir, workload, int(args["seed"]),
                                    float(args["seconds"]), trace,
                                    trace_out=trace_out)
    for line in lines:
        print(line)
    if result is None:
        fail("%s produced no result" % workload)
    errors = schema_errors(spec, result, trace)
    if errors:
        fail("metrics differ from BENCHMARK.json: " + "; ".join(errors))
    print(json.dumps(result), flush=True)
    sys.exit(0 if code == 0 and result["correct"] else 1)


# ---- suite ----------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def suite(argv):
    import argparse
    p = argparse.ArgumentParser(prog="run.py suite")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--reps", type=int, default=3)
    a = p.parse_args(argv)
    spec = load_spec()
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bdir = build()
    os.makedirs(a.out, exist_ok=True)
    units = dict(declared(spec, False), **declared(spec, True))
    res = {"schema": "lcsf-bench-results-v1", "seed": a.seed,
           "reps": a.reps, "seconds": seconds,
           "host": {"nproc": os.cpu_count(), "build_type": build_type(bdir)},
           "correct": True, "runs": {}, "trace": {}, "summary": {}}
    for w in names:
        runs = []
        for i in range(a.reps):
            code, _, r = run_bench(bdir, w, a.seed + i, seconds, False)
            if r is None or code != 0 or not r["correct"]:
                res["correct"] = False
                print("%s seed %d: FAILED" % (w, a.seed + i))
                continue
            runs.append({k: v["value"] for k, v in r["metrics"].items()})
        code, _, r = run_bench(
            bdir, w, a.seed, seconds, True,
            trace_out=os.path.join(a.out, "%s.trace.json" % w))
        if r is None or code != 0 or not r["correct"]:
            res["correct"] = False
            print("%s trace: FAILED" % w)
        else:
            res["trace"][w] = {k: v["value"] for k, v in r["metrics"].items()}
        res["runs"][w] = runs
        summary = {}
        for m in sorted(runs[0]) if runs else []:
            vals = [run[m] for run in runs]
            q1, med, q3 = quartiles(vals)
            summary[m] = {"median": med, "q1": q1, "q3": q3,
                          "n": len(vals), "unit": units[m]}
            print("%-14s %-30s %14.6g %-6s [%.6g, %.6g] n=%d"
                  % (w, m, med, units[m], q1, q3, len(vals)))
        for m, v in sorted(res["trace"].get(w, {}).items()):
            print("%-14s %-30s %14.6g %s" % (w, m, v, units[m]))
        res["summary"][w] = summary
    with open(os.path.join(a.out, "results.json"), "w") as f:
        json.dump(res, f, indent=1, sort_keys=True)
    print("wrote %s" % os.path.join(a.out, "results.json"))
    sys.exit(0 if res["correct"] else 1)


def build_type(bdir):
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return ""


# ---- compare ----------------------------------------------------------------

MIN_GAIN_PAIRS = 10  # a gain needs at least ten pairs (choosing-metrics 8)


def verdict(parent, change, better, bound):
    """choosing-metrics sections 6-8 for one (metric, workload) row."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gap = sign * (c_med - p_med)
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (len(pairs) >= MIN_GAIN_PAIRS and wins >= 0.9 * len(pairs)
            and gap > p_q3 - p_q1):
        return "gain", wins, len(pairs)
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if -gap > bound * abs(p_med):
        return "REGRESSION", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def compare(argv):
    if len(argv) != 2:
        fail("usage: run.py compare PARENT_DIR CHANGE_DIR", 2)
    sets = []
    for d in argv:
        with open(os.path.join(d, "results.json")) as f:
            sets.append(json.load(f))
    parent, change = sets
    spec = load_spec()
    print("%-14s %-14s %12s %12s %9s %6s  %s"
          % ("workload", "metric", "parent", "change", "delta", "wins",
             "verdict"))
    regressions = 0
    for m in spec["end_to_end"]:
        for w in [x["name"] for x in spec["workloads"]]:
            p = [r[m["name"]] for r in parent["runs"].get(w, [])]
            c = [r[m["name"]] for r in change["runs"].get(w, [])]
            if not p or not c:
                print("%-14s %-14s missing runs" % (w, m["name"]))
                regressions += 1
                continue
            v, wins, n = verdict(p, c, m["better"], m["bound"])
            regressions += v == "REGRESSION"
            pm, cm = statistics.median(p), statistics.median(c)
            print("%-14s %-14s %12.6g %12.6g %+8.1f%% %3d/%-2d  %s"
                  % (w, m["name"], pm, cm, 100.0 * (cm - pm) / pm, wins, n,
                     v))
    sys.exit(1 if regressions else 0)


# ---- smoke ------------------------------------------------------------------

def smoke(argv):
    bdir = argv[1] if len(argv) == 2 and argv[0] == "--bin-dir" else build()
    spec = load_spec()
    ok = True
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (False, True):
            code, _, r = run_bench(bdir, w, 1, 1, trace, quick=True)
            errors = (["no result"] if r is None
                      else schema_errors(spec, r, trace))
            if code != 0 or r is None or not r["correct"]:
                errors.append("run failed (exit %d)" % code)
            print("%-14s trace=%d %s" % (w, trace,
                                         "; ".join(errors) or "ok"))
            ok = ok and not errors
    sys.exit(0 if ok else 1)


def explain_serve(argv):
    bdir = build()
    code, lines, _ = run_bench(bdir, "serve_explain", 1, 0, False)
    for line in lines:
        print(line)
    sys.exit(code)


def main():
    argv = sys.argv[1:]
    commands = {"suite": suite, "compare": compare, "smoke": smoke,
                "explain-serve": explain_serve}
    if argv and argv[0] in commands:
        commands[argv[0]](argv[1:])
    else:
        contract(argv)


if __name__ == "__main__":
    main()
