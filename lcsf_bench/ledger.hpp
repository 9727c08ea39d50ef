// Per-layer ledger of lcsf_bench: an in-memory span tracer and replays
// that push a Monte-Carlo run's own samples back through each layer's
// public functions, timing every call from the benchmark's side.
//
// The replays mirror the engine code they stand in for call by call
// (PathAnalyzer's batched chain, GraphAnalyzer's memoized per-sample walk),
// so their delays must equal the Monte-Carlo values bitwise; a replay
// that does not is measuring a different program, and the benchmark
// reports it as a failed check.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/graph_analyzer.hpp"
#include "core/path.hpp"
#include "core/stage_model.hpp"
#include "stats/analysis.hpp"

namespace lcsf::benchsuite {

/// Nearest-rank percentile (p in [0, 1]) of `v`; 0 when empty.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Peak resident set size (VmHWM) of a process in MB; `pid` 0 = this one.
double peak_rss_mb(pid_t pid = 0);

/// Seconds on the monotonic clock.
double now_s();

/// In-memory spans (name, start, end, parent) recorded from the
/// benchmark's own code; single-threaded. Names must be string literals.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    int parent;  ///< index of the enclosing span, -1 for a root
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int idx_;
    int saved_;
  };

  Tracer();
  /// Total self time (duration minus the time covered by child spans) of
  /// every span called `name`, in seconds.
  double self_s(const std::string& name) const;
  /// Total inclusive duration of every span called `name`, in seconds.
  double total_s(const std::string& name) const;
  /// Chrome trace_event JSON of every span (about:tracing, Perfetto).
  std::string chrome_json() const;

 private:
  std::uint64_t now_ns() const;
  std::vector<Span> spans_;
  int current_ = -1;
  std::int64_t epoch_ns_ = 0;
};

/// Stage models of a single-path analyzer rebuilt through the public
/// stage API, exactly as PathAnalyzer's constructor builds them.
struct PathModels {
  std::vector<core::StageModel> stages;
  std::size_t blocks = 0;  ///< distinct (cell, receiver) characterizations
};
PathModels characterize_path(const core::PathSpec& spec, Tracer& tr);

/// Per-slot stage models of a graph analyzer (subgraph_gates() order),
/// rebuilt as GraphAnalyzer's constructor builds them.
struct GraphModels {
  std::vector<core::StageModel> slots;
  std::size_t blocks = 0;
};
GraphModels characterize_graph(const core::GraphAnalyzer& an, Tracer& tr);

/// Counts gathered by a replay; times live in the Tracer.
struct ReplayCounts {
  std::size_t samples = 0;
  std::size_t stage_sims = 0;      ///< lane-stages simulated
  std::size_t memo_hits = 0;       ///< graph stage-memo hits
  std::size_t merges = 0;          ///< graph merge-net visits
  std::size_t lockstep = 0;        ///< lane-stages finished in lockstep
  std::size_t window_retry = 0;    ///< lane-stages rerun by the retry ladder
  std::uint64_t chord_iters = 0;   ///< teta.chord_iterations
  std::uint64_t dropped_poles = 0; ///< mor.dropped_poles
  std::size_t mismatches = 0;      ///< delays not bitwise equal to the MC run

  ReplayCounts& operator+=(const ReplayCounts& o);
};

/// Replay `mc` (a run of `an` with `model`) through the batched per-stage
/// layers in blocks of `block` lanes, mirroring PathAnalyzer's
/// run_chain_batch and core::measure_stage_batch. Ledger spans: core.sample,
/// core.propagate, mor.evaluate, mor.poleres, mor.stabilize, teta.build,
/// teta.batch, timing.measure, core.fallback; probe spans (same lanes, not
/// in the ledger): probe.teta.setup_dc (tstop = dt) and probe.teta.scalar
/// (pooled scalar engine).
ReplayCounts replay_path(const core::PathAnalyzer& an, const PathModels& pm,
                         const core::PathVariationModel& model,
                         const stats::MonteCarloResult& mc, std::size_t block,
                         Tracer& tr);

/// Replay `mc` through GraphAnalyzer::evaluate's scalar per-sample walk
/// (stage memo, merge nets). Ledger spans as replay_path plus core.memo,
/// with teta.scalar in place of teta.batch; probe.teta.setup_dc likewise.
ReplayCounts replay_graph(const core::GraphAnalyzer& an,
                          const GraphModels& gm,
                          const core::PathVariationModel& model,
                          const stats::MonteCarloResult& mc, Tracer& tr);

/// Framework vs the whole-path SPICE comparator on `n` samples of `an`.
struct SpiceCompare {
  std::size_t samples = 0;
  double spice_s = 0.0;      ///< total SPICE seconds
  double framework_s = 0.0;  ///< total pooled framework_delay seconds
  double max_rel_err = 0.0;  ///< max |fw - spice| / spice
  std::uint64_t newton_iters = 0;
  std::uint64_t steps = 0;
  std::uint64_t lu_refactors = 0;
  std::uint64_t lu_full_factors = 0;
};
SpiceCompare spice_compare(const core::PathAnalyzer& an,
                           const core::PathVariationModel& model,
                           std::size_t n, std::uint64_t seed, Tracer& tr);

}  // namespace lcsf::benchsuite
