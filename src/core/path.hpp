// The framework facade: statistical path-delay analysis (paper Sec. 4).
//
// A path is a chain of logic stages; between consecutive stages lies an RC
// wire (segmented per micron, parasitics from Sakurai's formulas). The
// analyzer pre-characterizes each stage's effective load ONCE -- driver
// chord conductances folded in (Table 1), variational over the global wire
// parameters -- and then evaluates:
//   * framework_delay(): stage-by-stage TETA simulation propagating a
//     fine-resolution piecewise-linear waveform (Sec. 4.3.1), and
//   * spice_delay(): the conventional whole-path Newton simulation the
//     paper benchmarks against.
// On top sit monte_carlo() and gradient_analysis() (Secs. 4.1/4.3).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "circuit/technology.hpp"
#include "core/stage_model.hpp"
#include "interconnect/sakurai.hpp"
#include "sim/diagnostics.hpp"
#include "mor/poleres.hpp"
#include "mor/variational.hpp"
#include "stats/analysis.hpp"
#include "stats/pca.hpp"
#include "stats/runner.hpp"
#include "stats/descriptive.hpp"
#include "teta/stage.hpp"
#include "timing/cells.hpp"
#include "timing/sta.hpp"
#include "timing/waveform.hpp"

namespace lcsf::core {

struct PathSpec {
  circuit::Technology tech;
  /// Cell of each stage (indices into timing::cell_library()).
  std::vector<std::size_t> cells;
  /// Target "number of linear circuit elements between stages" (the
  /// Table 4 knob); converted to a wire length at 1 um RC segmentation.
  std::size_t linear_elements_per_stage = 10;
  /// Input stimulus of the first stage.
  timing::RampParams input{0.2e-9, 0.1e-9, true};
  double dt = 2e-12;              ///< timestep for both engines
  double stage_window = 2.0e-9;   ///< simulated window per stage [s]
  std::size_t rom_internal_modes = 6;  ///< PACT order per stage load
  /// Bounded per-step (SPICE) / per-run (TETA) dt-halving retry budget,
  /// forwarded to both engines. Defaults to no retries; statistical
  /// drivers typically enable it together with
  /// stats::FailurePolicy::kSkip (see docs/robustness.md).
  sim::RecoveryOptions recovery;

  /// Convenience: build from a generated benchmark's longest path.
  static PathSpec from_benchmark(const circuit::Technology& tech,
                                 const timing::GateNetlist& nl,
                                 const timing::TimingPath& path,
                                 std::size_t linear_elements);
};

/// One parameter sample: per-stage device fluctuations plus global wire
/// variation.
struct PathSample {
  std::vector<timing::DeviceVariation> device;  ///< size = #stages
  interconnect::WireVariation wire;
};

/// Which variation sources a statistical analysis sweeps, in the
/// normalized units of PathVariationModel (w = 1 means "at the 3-sigma
/// tolerance" of the technology card).
struct PathVariationModel {
  double std_dl = 0.0;  ///< per-stage channel-length reduction (Table 5 DL)
  double std_vt = 0.0;  ///< per-stage threshold shift (Table 5 VT)
  double std_wire_w = 0.0;  ///< global wire width
  double std_wire_h = 0.0;  ///< global ILD thickness

  std::size_t sources_per_stage() const {
    return (std_dl > 0.0 ? 1 : 0) + (std_vt > 0.0 ? 1 : 0);
  }
  std::size_t global_sources() const {
    return (std_wire_w > 0.0 ? 1 : 0) + (std_wire_h > 0.0 ? 1 : 0);
  }
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
  /// The characterized driver cell + effective load of stage k.
  const StageModel& stage_model(std::size_t k) const {
    return stages_[k];
  }

  /// Reusable per-worker scratch covering the whole per-sample pipeline;
  /// the definition lives in core/stage_model.hpp (shared with
  /// core::GraphAnalyzer, which also keeps its per-sample stage memo in
  /// it).
  using SampleWorkspace = core::SampleWorkspace;

  /// Stage-by-stage TETA evaluation at one parameter sample: the block
  /// chain on a one-sample block. Throws sim::SimulationError (with
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

  /// Map a normalized source vector w (layout: [dl_0, vt_0, dl_1, vt_1,
  /// ..., wire_w, wire_h], entries present per the model) to a sample.
  PathSample sample_from_sources(const PathVariationModel& model,
                                 const numeric::Vector& w) const;
  std::vector<stats::VariationSource> sources(
      const PathVariationModel& model) const;

  /// Monte-Carlo path statistics (Sec. 4.3.1) using the framework engine:
  /// stats::Runner::run_monte_carlo in opt.exec.batch sample blocks
  /// through the block chain, under its determinism and fail-soft
  /// contracts.
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
  /// docs/yield_estimation.md). IS knobs ride in `opt.importance`.
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
  /// its delay-increasing direction by the GA gradient (the "true worst
  /// case" of the paper's ref [3]). The introduction argues this is overly
  /// pessimistic; bench_yield quantifies by how much.
  CornerResult worst_case_corner(const PathVariationModel& model,
                                 double k_sigma) const;

  /// Total linear-element count of the full path netlist (Fig. 5 x-axis).
  std::size_t total_linear_elements() const;

  /// Resident heap footprint of the characterized artifacts (the stage
  /// load ROMs) -- the cost a design cache pays to keep this analyzer
  /// warm. See serve::DesignCache.
  std::size_t memory_bytes() const;

 private:
  /// The stage chain over a block of samples: every sample marches down
  /// the path one stage at a time through propagate_stage_batch. Lane l's
  /// delay lands in out[l].value; a lane whose stage fails is recorded in
  /// out[l] with its classified diagnostics and dropped from the
  /// remaining stages. `out` must be sized to samples.size() (the stats
  /// driver's BatchSlot contract). For samples[0], `output` (optional)
  /// receives the path output ramp and `stage_inputs` (optional) the
  /// input ramp of every stage it reached (gradient_analysis).
  void run_chain_batch(std::span<const PathSample> samples,
                       BatchWorkspace& bws, std::span<stats::BatchSlot> out,
                       timing::RampParams* output = nullptr,
                       std::vector<timing::RampParams>* stage_inputs =
                           nullptr) const;

  /// run_chain_batch on a one-sample block, throwing the sample's
  /// classified failure (framework_delay and the one-sample statistical
  /// evaluations).
  PathDelayResult chain_delay(
      const PathSample& sample, BatchWorkspace& bws,
      std::vector<timing::RampParams>* stage_inputs = nullptr) const;

  /// Engine knobs forwarded to the shared stage engine.
  StageSimOptions sim_options() const;

  PathSpec spec_;
  std::size_t segments_per_stage_ = 1;
  std::vector<StageModel> stages_;
};

}  // namespace lcsf::core
