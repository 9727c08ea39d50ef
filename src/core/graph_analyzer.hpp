// Multi-path statistical timing engine over a gate netlist (the tentpole
// of docs/timing_graph.md).
//
// GraphAnalyzer builds the timing DAG (timing::TimingGraph), enumerates
// the K most-critical latch-to-latch paths, characterizes each distinct
// (driver cell, effective load) block ONCE -- the compact variational
// block models of hierarchical SSTA -- and evaluates parameter samples
// with a per-sample engine in which stages shared between paths are
// transistor-level-simulated once per sample: results are memoized in the
// pooled core::SampleWorkspace keyed by (gate id, input-ramp bucket), and
// a statistical max (the per-sample max arrival, carrying the winner's
// waveform) is taken where paths merge. Monte Carlo rides on
// stats::Runner's counter-based RNG streams, so graph-level results are
// bitwise thread-count-invariant.
#pragma once

#include <cstddef>
#include <vector>

#include "circuit/technology.hpp"
#include "core/path.hpp"
#include "core/stage_model.hpp"
#include "stats/runner.hpp"
#include "timing/graph.hpp"
#include "timing/ssta.hpp"
#include "timing/sta.hpp"

namespace lcsf::core {

struct GraphSpec : StageSpec {
  timing::GateNetlist netlist;
  /// How many most-critical latch-to-latch paths to carry.
  std::size_t top_k = 8;
  /// Quantum of the stage-memo input-ramp bucket [s]: two arrivals at the
  /// same gate whose (M, S) agree within one quantum share a simulation.
  double ramp_bucket_quantum = 1e-12;
};

/// One parameter sample of the graph: device variation per subgraph gate
/// (in subgraph_gates() order) plus the global wire variation.
using GraphSample = PathSample;

class GraphAnalyzer {
 public:
  explicit GraphAnalyzer(GraphSpec spec);
  GraphAnalyzer(const GraphAnalyzer&) = delete;
  GraphAnalyzer& operator=(const GraphAnalyzer&) = delete;

  const GraphSpec& spec() const { return spec_; }
  const timing::TimingGraph& graph() const { return graph_; }
  /// The enumerated paths, most critical first.
  const std::vector<timing::TimingPath>& paths() const { return paths_; }
  /// Gates appearing on at least one enumerated path, ascending id; this
  /// is the device-variation layout of GraphSample and sources().
  const std::vector<std::size_t>& subgraph_gates() const {
    return subgraph_;
  }
  /// Endpoint (latch-input) nets covered by the paths, ascending.
  const std::vector<std::size_t>& endpoint_nets() const {
    return endpoints_;
  }
  /// Number of distinct characterized (cell, load) blocks.
  std::size_t num_blocks() const { return blocks_.size(); }
  /// The characterized stage of subgraph slot `slot` (subgraph_gates()
  /// order).
  const StageModel& stage_model(std::size_t slot) const {
    return stages_[slot].model;
  }

  /// Resident heap footprint of the characterized artifacts (per-slot
  /// stage models + enumerated paths) -- what a design cache pays to keep
  /// this analyzer warm. See serve::DesignCache.
  std::size_t memory_bytes() const;

  using Workspace = SampleWorkspace;

  struct EndpointDelay {
    std::size_t net = 0;
    double delay = 0.0;  ///< 50% input to 50% arrival at the net [s]
    double slew = 0.0;
  };
  struct SampleResult {
    std::vector<EndpointDelay> endpoints;  ///< endpoint_nets() order
    double max_delay = 0.0;                ///< worst endpoint delay
    std::size_t stages_simulated = 0;
    std::size_t stage_cache_hits = 0;
    std::size_t merges = 0;
  };

  /// Evaluate one parameter sample over the whole path set: paths in
  /// descending criticality, per-stage memoization, statistical max at
  /// merge nets. Throws sim::SimulationError when a stage fails.
  SampleResult evaluate(const GraphSample& sample, Workspace& ws) const;

  /// Path-by-path baseline: every path re-simulated independently with no
  /// memoization or merging -- the brute-force reference the bench and
  /// the distribution tests compare against. Returns one delay per path
  /// (paths() order).
  std::vector<double> per_path_delays(const GraphSample& sample,
                                      Workspace& ws) const;

  /// core::sample_from_sources and PathVariationModel::sources over the
  /// subgraph gates (one stage each, subgraph_gates() order).
  GraphSample sample_from_sources(const PathVariationModel& model,
                                  const numeric::Vector& w) const {
    return core::sample_from_sources(model, spec_.tech, subgraph_.size(), w);
  }
  std::vector<stats::VariationSource> sources(
      const PathVariationModel& model) const {
    return model.sources(subgraph_.size());
  }

  /// Graph-level Monte Carlo; the per-sample metric is the worst endpoint
  /// delay. Bitwise thread-count-invariant (counter-based streams).
  stats::MonteCarloResult monte_carlo(const PathVariationModel& model,
                                      const stats::RunOptions& opt) const;

  /// Compact per-block variational delay models: one per distinct
  /// (cell, load) block, extracted by the Gradient-Analysis probe
  /// (stage_sensitivity) around the nominal input ramp and reusable across
  /// every instantiation of the block (and across designs sharing the
  /// technology).
  std::vector<timing::ssta::BlockDelayModel> block_models(
      const PathVariationModel& model) const;

  struct AnalyticEndpoint {
    std::size_t net = 0;
    timing::ssta::CanonicalForm arrival;  ///< basis: sources(model), then
                                          ///< the independent residual
  };
  /// Analytic SSTA: compose the block models over the subgraph with
  /// canonical sums along edges and Clark's statistical max at merge
  /// nets. First-order (slew propagation not modeled); the per-sample
  /// engine is the reference.
  std::vector<AnalyticEndpoint> analytic_endpoints(
      const PathVariationModel& model) const;

 private:
  struct GateStage {
    StageModel model;
    std::size_t block = 0;  ///< index into blocks_
  };
  /// A distinct characterized (cell, load) combination.
  struct Block {
    std::size_t cell = 0;
    double receiver_cap = 0.0;
    std::size_t stage_slot = 0;  ///< representative subgraph slot
  };

  std::size_t slot_of(std::size_t gate) const;
  StageCacheKey cache_key(std::size_t gate,
                          const timing::RampParams& in) const;
  /// Simulate the stage of subgraph slot `slot` driven by `in`
  /// (propagate_stage_batch on a one-lane block); returns the output
  /// waveform in absolute time or throws the classified failure.
  StageWaveform simulate_slot(std::size_t slot, const StageWaveform& in,
                              const timing::DeviceVariation& dev,
                              const interconnect::WireVariation& wire,
                              Workspace& ws) const;

  GraphSpec spec_;
  timing::TimingGraph graph_;
  std::vector<timing::TimingPath> paths_;
  std::vector<std::size_t> subgraph_;   ///< sorted gate ids
  std::vector<std::size_t> endpoints_;  ///< sorted endpoint nets
  std::vector<GateStage> stages_;       ///< parallel to subgraph_
  std::vector<Block> blocks_;
};

}  // namespace lcsf::core
