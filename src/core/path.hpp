// The framework facade: statistical path-delay analysis (paper Sec. 4).
//
// A path is a chain of logic stages; between consecutive stages lies an RC
// wire (segmented per micron, parasitics from Sakurai's formulas). The
// analyzer is a one-path core::GraphAnalyzer on the chain netlist of the
// path's cells: it pre-characterizes each distinct stage load ONCE --
// driver chord conductances folded in (Table 1), variational over the
// global wire parameters -- and then evaluates:
//   * framework_delay(): stage-by-stage TETA simulation propagating a
//     fine-resolution piecewise-linear waveform (Sec. 4.3.1), through the
//     graph's walk, and
//   * spice_delay(): the conventional whole-path Newton simulation the
//     paper benchmarks against.
// On top sit monte_carlo() and gradient_analysis() (Secs. 4.1/4.3).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "circuit/technology.hpp"
#include "core/graph_analyzer.hpp"
#include "core/stage_model.hpp"
#include "stats/runner.hpp"
#include "timing/sta.hpp"
#include "timing/waveform.hpp"

namespace lcsf::core {

struct PathSpec : StageSpec {
  /// Cell of each stage (indices into timing::cell_library()).
  std::vector<std::size_t> cells;

  /// Convenience: build from a generated benchmark's longest path.
  static PathSpec from_benchmark(const circuit::Technology& tech,
                                 const timing::GateNetlist& nl,
                                 const timing::TimingPath& path,
                                 std::size_t linear_elements);
};

struct PathDelayResult {
  double delay = 0.0;        ///< 50% input to 50% final output [s]
  double output_slew = 0.0;  ///< full-swing-equivalent slew [s]
};

class PathAnalyzer {
 public:
  explicit PathAnalyzer(PathSpec spec);

  std::size_t num_stages() const { return spec_.cells.size(); }
  const PathSpec& spec() const { return spec_; }
  /// The one-path graph this facade runs: gate k is stage k.
  const GraphAnalyzer& graph() const { return *graph_; }
  /// The characterized driver cell + effective load of stage k.
  const StageModel& stage_model(std::size_t k) const {
    return graph_->stage_model(k);
  }

  /// Reusable per-worker scratch covering the whole per-sample pipeline;
  /// the definition lives in core/stage_model.hpp (the walk also keeps
  /// its per-sample state in it).
  using SampleWorkspace = core::SampleWorkspace;

  /// Stage-by-stage TETA evaluation at one parameter sample: the graph's
  /// walk on a one-sample block. Throws sim::SimulationError (with
  /// classified diagnostics) when a stage does not converge within
  /// spec().recovery's retry budget or the window ladder.
  PathDelayResult framework_delay(const PathSample& sample) const;

  /// Workspace-pooled overload: numerically identical, but draws every
  /// engine intermediate from `ws`. The caller guarantees `ws` is not used
  /// concurrently from two threads (the statistical drivers hand each
  /// thread lane its own workspace).
  PathDelayResult framework_delay(const PathSample& sample,
                                  SampleWorkspace& ws) const;

  /// Conventional whole-path transient (the SPICE baseline). Throws
  /// sim::SimulationError on divergence -- the paper-predicted outcome for
  /// non-passive loads; statistical drivers record it instead of dying
  /// when run with stats::FailurePolicy::kSkip.
  PathDelayResult spice_delay(const PathSample& sample) const;

  /// core::sample_from_sources and PathVariationModel::sources over the
  /// path's stages.
  PathSample sample_from_sources(const PathVariationModel& model,
                                 const numeric::Vector& w) const {
    return core::sample_from_sources(model, spec_.tech, num_stages(), w);
  }
  std::vector<stats::VariationSource> sources(
      const PathVariationModel& model) const {
    return model.sources(num_stages());
  }

  /// Monte-Carlo path statistics (Sec. 4.3.1) using the framework engine:
  /// stats::Runner::run_monte_carlo in opt.exec.batch sample blocks
  /// through the walk, under its determinism and fail-soft contracts.
  stats::MonteCarloResult monte_carlo(const PathVariationModel& model,
                                      const stats::RunOptions& opt) const;

  struct CorrelatedMcResult {
    stats::MonteCarloResult mc;
    std::size_t total_sources = 0;
    std::size_t factors_used = 0;  ///< PCA factors explaining >= 95%
  };
  /// Monte-Carlo with spatially-correlated per-stage device parameters
  /// (correlation `rho` between any two stages, the common-factor model of
  /// Sec. 4.1.1). PCA turns the correlated sources into a smaller set of
  /// independent factors which are then sampled. Throws
  /// sim::SimulationError (kInvalidInput) when the model has no sources.
  CorrelatedMcResult monte_carlo_correlated(
      const PathVariationModel& model, double rho,
      const stats::RunOptions& opt) const;

  /// Importance-sampled timing yield P(delay <= clock_period) of the
  /// path (stats::Runner::run_yield_is): the proposal is centered on the
  /// failure boundary of the linear surrogate built from the framework's
  /// own gradient analysis, so rare timing failures are resolved with far
  /// fewer transient simulations than plain Monte Carlo (see
  /// docs/yield_estimation.md). The surrogate's probes and both sampling
  /// phases run in opt.exec.batch sample blocks through the walk, like
  /// monte_carlo(). IS knobs ride in `opt.importance`.
  stats::IsYieldEstimate yield_importance(const PathVariationModel& model,
                                          double clock_period,
                                          const stats::RunOptions& opt)
      const;

  struct GaResult {
    double nominal_delay = 0.0;
    double stddev = 0.0;
    std::size_t simulations = 0;
    /// dD/dw per normalized source (layout of sample_from_sources).
    numeric::Vector gradient;
  };
  /// Gradient Analysis (Sec. 4.3.2): per-stage waveform-parameter
  /// sensitivity propagation, Eq. 30-32 + Eq. 24.
  GaResult gradient_analysis(const PathVariationModel& model) const;

  struct CornerResult {
    double delay = 0.0;
    numeric::Vector corner;  ///< the normalized source vector used
  };
  /// Classic worst-case corner: every source at +/- k_sigma, oriented in
  /// its delay-increasing direction by the gradient of `ga`, this model's
  /// gradient_analysis (the "true worst case" of the paper's ref [3]). The
  /// introduction argues this is overly pessimistic; bench_yield
  /// quantifies by how much.
  CornerResult worst_case_corner(const PathVariationModel& model,
                                 const GaResult& ga, double k_sigma) const;

  /// Resident heap footprint of the analyzer (its one-path graph: stage
  /// load ROMs, chain netlist, timing graph) -- the cost a design cache
  /// pays to keep this analyzer warm. See serve::DesignCache.
  std::size_t memory_bytes() const;

 private:
  /// The walk on a one-sample block, throwing the sample's classified
  /// failure (framework_delay and the one-sample statistical
  /// evaluations); `stage_inputs` (optional) receives the input ramp of
  /// every stage (gradient_analysis).
  PathDelayResult chain_delay(
      const PathSample& sample, BatchWorkspace& bws,
      std::vector<timing::RampParams>* stage_inputs = nullptr) const;

  /// GraphAnalyzer::block_walk valued by the path delay: the block
  /// function of monte_carlo(), monte_carlo_correlated() and
  /// yield_importance().
  stats::BatchPerformanceFn block_walk(
      std::size_t threads,
      std::function<PathSample(const numeric::Vector&)> to_sample) const;

  PathSpec spec_;
  std::unique_ptr<GraphAnalyzer> graph_;
};

}  // namespace lcsf::core
