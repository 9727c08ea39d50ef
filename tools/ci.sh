#!/usr/bin/env bash
# Full local CI matrix: everything the tree gates on, in one command.
#
#   release   : plain optimized build + full ctest suite
#   asan-ubsan: LCSF_SANITIZE=address,undefined build + full ctest suite
#   tsan      : LCSF_SANITIZE=thread build + full ctest suite (includes
#               the dedicated test_tsan_stress workload)
#   obs       : observability smoke -- lcsf_sta/lcsf_sim --metrics on the
#               example workloads, schema-validated by
#               tools/check_metrics.py, plus the CLI-level witness that
#               the deterministic metrics are thread-count invariant
#   serve     : analysis-server conformance -- a live lcsf_serve driven
#               through the lcsf-serve-v1 battery of tools/check_serve.py
#               (byte-identical cold/warm responses, thread-count
#               invariance, classified errors), metrics export validated
#   bench-suite: lcsf_bench smoke (python3 lcsf_bench/run.py smoke, about
#               12 s of runs plus its build) -- every benchmark workload
#               at quick sizes, checked for correctness and for every
#               declared metric -- plus the framework-vs-SPICE speed floor
#               on a quick traced mc_long_path run
#   doc-lint  : documentation link/anchor checker
#   lcsf-lint : project-invariant static analysis via tools/lint.sh --
#               the per-file rules, the include-graph pass (layering
#               manifest, cycles, orphan headers), the lcsf-lint-v2
#               JSON document gated by schema + baseline + suppression
#               budget (tools/lint_compare.py), and clang-tidy when
#               installed
#
# Each stage runs to completion even after earlier failures so one pass
# reports everything; the summary table at the end and the exit status
# give the verdict. Build trees: build-ci-<stage>/.
#
# Usage: tools/ci.sh [-j N]
set -u
cd "$(dirname "$0")/.."

JOBS=$(nproc 2> /dev/null || echo 4)
while getopts "j:" opt; do
  case "$opt" in
    j) JOBS="$OPTARG" ;;
    *) echo "usage: tools/ci.sh [-j N]" >&2; exit 2 ;;
  esac
done

STAGES=()
RESULTS=()

record() { # name status
  STAGES+=("$1")
  RESULTS+=("$2")
}

# run_build_stage <name> <build-dir> <cmake-extra...>
run_build_stage() {
  local name="$1" dir="$2"
  shift 2
  echo
  echo "==== stage: $name ===="
  if cmake -B "$dir" -S . "$@" \
      && cmake --build "$dir" -j "$JOBS" \
      && ctest --test-dir "$dir" -j "$JOBS" --output-on-failure; then
    record "$name" PASS
  else
    record "$name" FAIL
  fi
}

run_build_stage release build-ci-release
run_build_stage asan-ubsan build-ci-asan -DLCSF_SANITIZE=address,undefined
run_build_stage tsan build-ci-tsan -DLCSF_SANITIZE=thread

echo
echo "==== stage: bench-quick ===="
# Hot-path perf gate: run the pooled-vs-batched Monte-Carlo bench in
# quick mode (few samples, noisy) and require the batched SoA engine to
# stay ahead of the pooled one-lane calls: 1.3x on the checked-in
# full-mode BENCH_hotpath.json, 1.15x on the quick run to absorb
# short-run jitter. Quick mode runs half the transient steps per sample
# (the fixed per-sample setup cost weighs differently), so quick ratios
# are not comparable to the full-mode ratio within a tight tolerance --
# quick holds a floor only, and the checked-in full-mode file holds the
# acceptance floor. The bench exits nonzero if the two legs' delays
# differ in a single bit. The engine's speed floor against a fixed
# reference is the bench-suite stage's spice.speedup gate. See
# docs/performance.md.
BENCH_JSON=build-ci-release/BENCH_hotpath.json
BENCH_IS_JSON=build-ci-release/BENCH_yield_is.json
# Importance-sampling estimator gate: even the quick run must beat plain
# Monte Carlo by >= 5x effective samples at matched variance and land
# inside the MC reference's 95% band (docs/yield_estimation.md). The
# same floors hold for the checked-in full-mode BENCH_yield_is.json.
BENCH_GRAPH_JSON=build-ci-release/BENCH_sta_graph.json
# Multi-path graph engine gate: memoizing shared stages must beat the
# per-path re-simulation baseline by >= 1.5x (docs/timing_graph.md). The
# ratio is dominated by the stage-simulation count, not timer jitter, so
# quick mode holds the full acceptance floor.
BENCH_SERVE_JSON=build-ci-release/BENCH_serve.json
# Analysis-server cache gate (docs/serving.md): a warm `load` (a
# DesignCache hit) must beat the cold characterizing load by >= 5x on
# the checked-in full-mode BENCH_serve.json; the quick run holds a 3x
# floor because its cold load is sub-millisecond and jittery. The bench
# itself exits nonzero if any response byte differs cold-vs-warm or
# across the client fleet.
if cmake --build build-ci-release -j "$JOBS" --target bench_hotpath \
    && cmake --build build-ci-release -j "$JOBS" --target bench_yield_is \
    && cmake --build build-ci-release -j "$JOBS" --target bench_sta_graph \
    && cmake --build build-ci-release -j "$JOBS" --target bench_serve \
    && LCSF_BENCH_QUICK=1 build-ci-release/bench/bench_hotpath "$BENCH_JSON" \
    && python3 tools/bench_compare.py --check "$BENCH_JSON" \
         --min batched_speedup_vs_pooled=1.15 \
    && python3 tools/bench_compare.py --check BENCH_hotpath.json \
         --min batched_speedup_vs_pooled=1.3 \
    && LCSF_BENCH_QUICK=1 build-ci-release/bench/bench_yield_is \
         "$BENCH_IS_JSON" \
    && python3 tools/bench_compare.py --check "$BENCH_IS_JSON" \
         --min ess_speedup=5 --min is_within_mc_ci=1 \
    && python3 tools/bench_compare.py --check BENCH_yield_is.json \
         --min ess_speedup=5 --min is_within_mc_ci=1 \
    && LCSF_BENCH_QUICK=1 build-ci-release/bench/bench_sta_graph \
         "$BENCH_GRAPH_JSON" \
    && python3 tools/bench_compare.py --check "$BENCH_GRAPH_JSON" \
         --min speedup=1.5 \
    && python3 tools/bench_compare.py --check BENCH_sta_graph.json \
         --min speedup=1.5 \
    && LCSF_BENCH_QUICK=1 build-ci-release/bench/bench_serve \
         "$BENCH_SERVE_JSON" \
    && python3 tools/bench_compare.py --check "$BENCH_SERVE_JSON" \
         --min warm_speedup=3 \
    && python3 tools/bench_compare.py --check BENCH_serve.json \
         --min warm_speedup=5; then
  record bench-quick PASS
else
  record bench-quick FAIL
fi

echo
echo "==== stage: obs ===="
# Observability smoke: the CLIs must emit schema-valid metrics with the
# engine counters populated, and the deterministic projection must be
# bitwise identical across thread counts (docs/observability.md). The
# batched Monte-Carlo runs use --samples 11 --batch 4 so the dispatch
# has both full blocks and a partial one (two blocks of 4, one of 3),
# and must stay deterministic across 1/2/8 worker threads at that fixed
# batch width (docs/performance.md). The --rho runs put the
# spatially-correlated PCA sampler (PathAnalyzer::monte_carlo_correlated)
# through the same batch dispatch at 1 and 8 threads. The s208 runs pin
# the PACT characterization-reuse counters (one eigensolve per distinct
# internal pencil, memo hits for the rest), also thread-count invariant.
OBS_DIR=build-ci-release/obs-ci
STA=build-ci-release/tools/lcsf_sta
SIM=build-ci-release/tools/lcsf_sim
if mkdir -p "$OBS_DIR" \
    && "$STA" --circuit s27 --samples 16 --seed 3 --threads 1 \
         --metrics "$OBS_DIR/sta_t1.json" > /dev/null \
    && "$STA" --circuit s27 --samples 16 --seed 3 --threads 8 \
         --metrics "$OBS_DIR/sta_t8.json" > /dev/null \
    && "$STA" --circuit s27 --samples 11 --seed 3 --threads 1 --batch 4 \
         --metrics "$OBS_DIR/sta_b4_t1.json" > /dev/null \
    && "$STA" --circuit s27 --samples 11 --seed 3 --threads 2 --batch 4 \
         --metrics "$OBS_DIR/sta_b4_t2.json" > /dev/null \
    && "$STA" --circuit s27 --samples 11 --seed 3 --threads 8 --batch 4 \
         --metrics "$OBS_DIR/sta_b4_t8.json" > /dev/null \
    && "$STA" --circuit s27 --samples 11 --seed 3 --threads 1 --batch 4 \
         --rho 0.5 --metrics "$OBS_DIR/sta_rho_t1.json" > /dev/null \
    && "$STA" --circuit s27 --samples 11 --seed 3 --threads 8 --batch 4 \
         --rho 0.5 --metrics "$OBS_DIR/sta_rho_t8.json" > /dev/null \
    && "$STA" --circuit s27 --samples 16 --seed 3 --threads 1 \
         --yield-estimator is --is-pilot 8 \
         --metrics "$OBS_DIR/sta_is_t1.json" > /dev/null \
    && "$STA" --circuit s27 --samples 16 --seed 3 --threads 8 \
         --yield-estimator is --is-pilot 8 \
         --metrics "$OBS_DIR/sta_is_t8.json" > /dev/null \
    && "$STA" --circuit s27 --graph --top-k 8 --samples 8 --seed 3 \
         --threads 1 --metrics "$OBS_DIR/sta_graph_t1.json" > /dev/null \
    && "$STA" --circuit s27 --graph --top-k 8 --samples 8 --seed 3 \
         --threads 8 --metrics "$OBS_DIR/sta_graph_t8.json" > /dev/null \
    && "$STA" --circuit s208 --elements 100 --samples 4 --seed 3 \
         --threads 1 --metrics "$OBS_DIR/sta_pact_t1.json" > /dev/null \
    && "$STA" --circuit s208 --elements 100 --samples 4 --seed 3 \
         --threads 8 --metrics "$OBS_DIR/sta_pact_t8.json" > /dev/null \
    && "$SIM" examples/decks/inverter_chain.sp --tstop 1n --dt 2p \
         --points 2 --metrics "$OBS_DIR/sim.json" > /dev/null \
    && python3 tools/check_metrics.py --schema tools/metrics_schema.json \
         "$OBS_DIR/sta_t1.json" "$OBS_DIR/sta_t8.json" \
         --require stats.mc.samples --require teta.transients \
         --require teta.steps --require mor.rom_evaluations \
    && python3 tools/check_metrics.py --schema tools/metrics_schema.json \
         "$OBS_DIR/sta_b4_t1.json" "$OBS_DIR/sta_b4_t2.json" \
         "$OBS_DIR/sta_b4_t8.json" \
         --require stats.mc.batches \
         --require stats.mc.batch_remainder_samples \
    && python3 tools/check_metrics.py --schema tools/metrics_schema.json \
         "$OBS_DIR/sta_rho_t1.json" "$OBS_DIR/sta_rho_t8.json" \
         --require stats.mc.batches \
         --require stats.mc.batch_remainder_samples \
    && python3 tools/check_metrics.py --schema tools/metrics_schema.json \
         "$OBS_DIR/sta_is_t1.json" "$OBS_DIR/sta_is_t8.json" \
         --require stats.yield_is.samples \
         --require stats.yield_is.pilot_samples \
    && python3 tools/check_metrics.py --schema tools/metrics_schema.json \
         "$OBS_DIR/sta_graph_t1.json" "$OBS_DIR/sta_graph_t8.json" \
         --require stats.graph.paths \
         --require stats.graph.stages_simulated \
         --require stats.graph.stage_cache_hits \
         --require stats.graph.merges \
    && python3 tools/check_metrics.py --schema tools/metrics_schema.json \
         "$OBS_DIR/sta_pact_t1.json" "$OBS_DIR/sta_pact_t8.json" \
         --require mor.pact.eigensolves --require mor.pact.memo_hits \
    && python3 tools/check_metrics.py --schema tools/metrics_schema.json \
         "$OBS_DIR/sim.json" \
         --require spice.newton_iterations --require parser.devices \
    && python3 tools/check_metrics.py --diff-deterministic \
         "$OBS_DIR/sta_t1.json" "$OBS_DIR/sta_t8.json" \
    && python3 tools/check_metrics.py --diff-deterministic \
         "$OBS_DIR/sta_b4_t1.json" "$OBS_DIR/sta_b4_t2.json" \
    && python3 tools/check_metrics.py --diff-deterministic \
         "$OBS_DIR/sta_b4_t1.json" "$OBS_DIR/sta_b4_t8.json" \
    && python3 tools/check_metrics.py --diff-deterministic \
         "$OBS_DIR/sta_rho_t1.json" "$OBS_DIR/sta_rho_t8.json" \
    && python3 tools/check_metrics.py --diff-deterministic \
         "$OBS_DIR/sta_is_t1.json" "$OBS_DIR/sta_is_t8.json" \
    && python3 tools/check_metrics.py --diff-deterministic \
         "$OBS_DIR/sta_graph_t1.json" "$OBS_DIR/sta_graph_t8.json" \
    && python3 tools/check_metrics.py --diff-deterministic \
         "$OBS_DIR/sta_pact_t1.json" "$OBS_DIR/sta_pact_t8.json"; then
  record obs PASS
else
  record obs FAIL
fi

echo
echo "==== stage: serve ===="
# Analysis-server conformance (docs/serving.md): start lcsf_serve on an
# ephemeral port, run the lcsf-serve-v1 battery from check_serve.py
# (cold/warm byte-identity, thread-count invariance of analysis
# payloads, classified error responses, live metrics), then validate
# the --metrics export against the metrics schema with the serve.*
# counters populated.
SERVE=build-ci-release/tools/lcsf_serve
SERVE_DIR=build-ci-release/serve-ci
serve_stage() {
  mkdir -p "$SERVE_DIR" || return 1
  : > "$SERVE_DIR/server.out"
  "$SERVE" --port 0 --workers 4 --cache-mb 64 \
      --metrics "$SERVE_DIR/metrics.json" > "$SERVE_DIR/server.out" 2>&1 &
  local pid=$! port="" i
  for i in $(seq 1 100); do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' \
        "$SERVE_DIR/server.out")
    [ -n "$port" ] && break
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "serve: server never announced its port" >&2
    kill "$pid" 2> /dev/null
    return 1
  fi
  if ! python3 tools/check_serve.py --port "$port" --battery --shutdown; then
    kill "$pid" 2> /dev/null
    return 1
  fi
  wait "$pid" || return 1
  python3 tools/check_metrics.py --schema tools/metrics_schema.json \
      "$SERVE_DIR/metrics.json" \
      --require serve.requests --require serve.cache.hits \
      --require serve.cache.misses
}
if serve_stage; then
  record serve PASS
else
  record serve FAIL
fi

echo
echo "==== stage: bench-suite ===="
# The benchmark's ledger replays the stage engine through its public API
# (measure_stage_with_retry, the BatchWorkspace fields,
# teta::simulate_stage_batch, framework_delay(sample, ws)) and must
# match the Monte-Carlo runs bitwise, so a break in that API or in the
# engine's results fails here, not only in a benchmark run.
#
# Speed floor: the paper's Table 4 ratio, spice.speedup -- the
# framework's one-lane chain (framework_delay) against the in-tree SPICE
# engine on the same path -- from a quick traced mc_long_path run. SPICE
# is a fixed reference that engine changes do not move. On a 4-core
# x86-64 host, two sweeps over seeds 1-10 measured 5.09-6.36x and
# 5.14-8.94x, each with a median of 6.1x; the floor of 4 is 0.66 of
# that. The run must also exit 0 and report
# "correct": true (bench_compare.py fails a result that does not).
SUITE_DIR=build-ci-release/bench-suite
bench_suite_stage() {
  mkdir -p "$SUITE_DIR" || return 1
  python3 lcsf_bench/run.py smoke || return 1
  if ! LCSF_BENCH_QUICK=1 python3 lcsf_bench/run.py --workload mc_long_path \
      --seed 1 --seconds 1 --trace 1 > "$SUITE_DIR/mc_long_path.out"; then
    cat "$SUITE_DIR/mc_long_path.out"
    return 1
  fi
  tail -n 1 "$SUITE_DIR/mc_long_path.out" > "$SUITE_DIR/mc_long_path.json"
  python3 tools/bench_compare.py --check "$SUITE_DIR/mc_long_path.json" \
      --min spice.speedup=4
}
if bench_suite_stage; then
  record bench-suite PASS
else
  record bench-suite FAIL
fi

echo
echo "==== stage: doc-lint ===="
if ctest --test-dir build-ci-release -R '^doc_lint$' --output-on-failure; then
  record doc-lint PASS
else
  record doc-lint FAIL
fi

echo
echo "==== stage: lcsf-lint ===="
if tools/lint.sh build-ci-release; then
  record lcsf-lint PASS
else
  record lcsf-lint FAIL
fi

echo
echo "==== summary ===="
FAILED=0
for i in "${!STAGES[@]}"; do
  printf '  %-12s %s\n' "${STAGES[$i]}" "${RESULTS[$i]}"
  [ "${RESULTS[$i]}" = FAIL ] && FAILED=1
done
exit $FAILED
