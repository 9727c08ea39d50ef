// Multi-path graph engine vs path-by-path re-simulation.
//
// The K most-critical latch-to-latch paths of a benchmark circuit share
// long prefixes (they fan out of the same launching latches) and common
// reconvergence suffixes. GraphAnalyzer::evaluate() exploits that: every
// (gate, input-ramp bucket) is transistor-level-simulated once per
// sample and memoized in the pooled workspace, with the statistical max
// taken where paths merge. The brute-force baseline
// (GraphAnalyzer::per_path_delays) re-simulates every stage of every
// path independently -- exactly what K separate PathAnalyzer runs would
// cost.
//
// Both legs run the same deterministic sample set drawn from the
// counter-based streams; the bench reports per-sample wall-clock for
// each leg, the shared-stage simulation counts, and the worst-endpoint
// disagreement between the two engines (the memoized statistical max
// must track the brute-force per-path max closely -- see
// docs/timing_graph.md for the slew-coupling caveat).
//
// Emits BENCH_sta_graph.json for tools/bench_compare.py; the ci.sh
// bench-quick stage floors `speedup` at 1.5x (the full-mode acceptance
// floor, comfortably cleared because the simulation-count ratio, not
// timer jitter, dominates).
//
// Usage: bench_sta_graph [output.json]   (default BENCH_sta_graph.json)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "circuit/technology.hpp"
#include "core/graph_analyzer.hpp"
#include "numeric/matrix.hpp"
#include "stats/random.hpp"
#include "timing/sta.hpp"

using namespace lcsf;
using numeric::Vector;

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_sta_graph.json";
  const bool quick = bench::quick_mode();
  const std::string circuit = quick ? "s27" : "s208";
  const std::size_t nsamples = quick ? 4 : 20;
  const std::size_t top_k = 8;

  bench::print_header("multi-path graph engine vs per-path re-simulation (" +
                      circuit + ", top-" + std::to_string(top_k) + ")");

  const auto nl = timing::generate_benchmark(timing::find_benchmark(circuit));
  core::GraphSpec spec;
  spec.tech = circuit::technology_180nm();
  spec.netlist = nl;
  spec.top_k = top_k;
  spec.stage_window = 1.0e-9;
  const core::GraphAnalyzer analyzer(std::move(spec));

  core::PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;

  // Deterministic sample set from the counter-based streams (same draws
  // regardless of build or thread count).
  const std::size_t nsrc = analyzer.sources(model).size();
  std::vector<core::GraphSample> samples;
  for (std::size_t s = 0; s < nsamples; ++s) {
    auto stream = stats::sample_stream(7, s, 0);
    Vector w(nsrc);
    for (double& x : w) {
      x = stats::to_normal(stream.uniform_open(), 0.0, 1.0 / 3.0);
    }
    samples.push_back(analyzer.sample_from_sources(model, w));
  }

  std::size_t path_stages = 0;
  for (const auto& p : analyzer.paths()) path_stages += p.length();
  std::printf("paths %zu, path-stages %zu, subgraph gates %zu, blocks %zu\n",
              analyzer.paths().size(), path_stages,
              analyzer.subgraph_gates().size(), analyzer.num_blocks());

  core::GraphAnalyzer::Workspace ws;
  // Warm-up fills the pooled engine scratch for both legs.
  (void)analyzer.per_path_delays(samples[0], ws);
  (void)analyzer.evaluate(samples[0], ws);

  // Baseline: every path independently, no memoization.
  std::vector<double> base_max(nsamples);
  bench::Stopwatch sw_base;
  for (std::size_t s = 0; s < nsamples; ++s) {
    const auto delays = analyzer.per_path_delays(samples[s], ws);
    double worst = delays[0];
    for (double d : delays) worst = std::max(worst, d);
    base_max[s] = worst;
  }
  const double t_base = sw_base.seconds();

  // Graph engine: shared stages simulated once, statistical max at
  // merges.
  std::vector<double> graph_max(nsamples);
  std::size_t sims = 0;
  std::size_t hits = 0;
  bench::Stopwatch sw_graph;
  for (std::size_t s = 0; s < nsamples; ++s) {
    const auto r = analyzer.evaluate(samples[s], ws);
    graph_max[s] = r.max_delay;
    sims += r.stages_simulated;
    hits += r.stage_cache_hits;
  }
  const double t_graph = sw_graph.seconds();

  double max_rel_diff = 0.0;
  for (std::size_t s = 0; s < nsamples; ++s) {
    max_rel_diff = std::max(
        max_rel_diff, std::abs(graph_max[s] - base_max[s]) / base_max[s]);
  }

  const double n = static_cast<double>(nsamples);
  const double speedup = t_base / t_graph;
  std::printf("samples              : %zu (%s)\n", nsamples,
              quick ? "quick" : "full");
  std::printf("per-path baseline    : %8.3f ms/sample (%zu stage sims "
              "each)\n",
              1e3 * t_base / n, path_stages);
  std::printf("graph engine         : %8.3f ms/sample (%.1f sims + %.1f "
              "cache hits each)\n",
              1e3 * t_graph / n, static_cast<double>(sims) / n,
              static_cast<double>(hits) / n);
  std::printf("shared-stage speedup : %.2fx\n", speedup);
  std::printf("max endpoint diff    : %.3f%% of delay\n",
              100.0 * max_rel_diff);

  const auto report = bench::json_object(
      {{"bench", "sta_graph"},
       {"quick", quick},
       {"config",
        bench::json_object(
            {{"circuit", circuit},
             {"top_k", top_k},
             {"samples", nsamples},
             {"paths", analyzer.paths().size()},
             {"path_stages", path_stages},
             {"subgraph_gates", analyzer.subgraph_gates().size()},
             {"blocks", analyzer.num_blocks()}})},
       {"metrics",
        bench::json_object(
            {{"baseline_ms_per_sample", 1e3 * t_base / n},
             {"graph_ms_per_sample", 1e3 * t_graph / n},
             {"stages_simulated_per_sample", static_cast<double>(sims) / n},
             {"stage_cache_hits_per_sample", static_cast<double>(hits) / n},
             {"speedup", speedup},
             {"max_endpoint_rel_diff", max_rel_diff}})}});
  if (!bench::write_json(out_path, report)) return 1;
  return 0;
}
