// The library's front door: one loaded design, many analyses.
//
// api::Session packages the load-once / analyze-many lifecycle every
// entry point shares: resolve the design (a generated benchmark circuit
// or a SPICE deck), pre-characterize the expensive variational artifacts
// exactly once, and expose the statistical analyses as methods taking
// stats::RunOptions. The CLI tools (lcsf_sta, lcsf_sim) and the analysis
// server (serve::Server, tools/lcsf_serve.cpp) are all thin clients of
// this facade, so a server response and a CLI run over the same design
// and options are computed by the same code path and agree bitwise.
//
// Sessions are immutable after load() and every analysis method is
// const and thread-safe (the analyzers underneath are), so one Session
// may serve concurrent requests -- the contract serve::DesignCache
// relies on when it hands one shared Session to parallel connections.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "circuit/netlist.hpp"
#include "circuit/technology.hpp"
#include "core/graph_analyzer.hpp"
#include "core/path.hpp"
#include "spice/transient.hpp"
#include "stats/runner.hpp"
#include "timing/sta.hpp"

namespace lcsf::api {

/// Everything that determines a characterized design. Exactly one of
/// `circuit` (benchmark name) or `deck` (SPICE deck text) must be set.
/// The fields below the divider are characterization knobs: they are
/// baked into the analyzers at load() time and therefore participate in
/// cache_key() -- two specs differing in any of them are distinct cache
/// entries.
struct DesignSpec {
  std::string circuit;  ///< benchmark name (timing::find_benchmark)
  std::string deck;     ///< SPICE deck text (transient-only session)

  std::string tech = "180nm";  ///< "180nm" or "600nm"
  /// Linear circuit elements per stage wire (the Table 4 knob).
  std::size_t elements = 10;
  /// false: single longest path (core::PathAnalyzer); true: the top_k
  /// most-critical paths (core::GraphAnalyzer, docs/timing_graph.md).
  bool graph = false;
  std::size_t top_k = 8;
  double stage_window = 1.0e-9;  ///< simulated window per stage [s]
  /// Grant the engines the 3-deep dt-halving retry budget of
  /// --on-failure retry (docs/robustness.md). Baked into the analyzer
  /// spec, hence part of the design identity.
  bool retry = false;

  /// Content-addressed identity: an FNV-1a hash over the *generated or
  /// parsed netlist content* plus every characterization knob above.
  /// Two specs with the same key load bitwise-identical sessions; the
  /// serve::DesignCache is keyed by this. Throws sim::SimulationError
  /// (kInvalidInput) for an unknown circuit or technology.
  std::string cache_key() const;
};

/// Outcome of a timing-yield estimate (Session::run_yield). Which
/// fields are populated depends on the estimator: "mc" fills the
/// binomial fields, "is"/"is-cv" additionally expose the full
/// importance-sampling detail in `is`.
struct YieldResult {
  std::string estimator;      ///< "mc", "is" or "is-cv"
  double clock_period = 0.0;  ///< period actually probed [s]
  double yield = 0.0;         ///< P(delay <= clock_period)
  double yield_loss = 0.0;
  double std_error = 0.0;     ///< standard error of yield_loss
  std::size_t samples = 0;    ///< surviving (mc) / main-phase (is) count
  stats::FailureSummary failures;
  std::optional<stats::IsYieldEstimate> is;  ///< is / is-cv detail
};

/// Reject yield inputs no estimate can use, naming the input
/// (sim::SimulationError, kInvalidInput): an estimator other than "mc",
/// "is" or "is-cv", a yield_target outside (0, 1), or a clock_period
/// below 0 (0 derives the Gradient-Analysis period). Session::run_yield
/// runs it first; the server runs it while parsing a request, before the
/// design loads.
void check_yield_inputs(const std::string& estimator, double clock_period,
                        double yield_target);

/// Outcome of a multi-path graph analysis (Session::run_graph).
struct GraphResult {
  stats::MonteCarloResult mc;  ///< worst-endpoint-delay Monte Carlo
  core::GraphAnalyzer::SampleResult nominal;  ///< all-nominal sample
  std::vector<core::GraphAnalyzer::AnalyticEndpoint> analytic;
};

class Session {
 public:
  /// Resolve, generate/parse and pre-characterize the design. Failures
  /// are classified sim::SimulationError: unknown circuit, unknown
  /// technology, deck parse errors and contradictory specs all carry
  /// kInvalidInput.
  static std::shared_ptr<Session> load(const DesignSpec& spec);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const DesignSpec& spec() const { return spec_; }
  /// The spec's cache_key(), computed once at load.
  const std::string& key() const { return key_; }
  const circuit::Technology& tech() const { return tech_; }

  bool is_deck() const { return deck_nl_ != nullptr; }
  bool is_graph() const { return graph_an_ != nullptr; }

  /// Resident heap footprint of the session (its netlist and the
  /// analyzer: stage-load ROMs, enumerated paths, the analyzer's netlist
  /// and timing graph; or the parsed deck) -- the byte cost
  /// serve::DesignCache accounts against its budget.
  std::size_t memory_bytes() const;

  // -- circuit-session accessors (throw kInvalidInput on a deck session)
  const timing::BenchmarkSpec& benchmark() const;
  const timing::GateNetlist& netlist() const;
  /// The analyzed single path (throws on graph/deck sessions).
  const timing::TimingPath& longest_path() const;
  /// Mode-specific analyzer access for bespoke reporting; null when the
  /// session is in the other mode. Prefer the run_* methods.
  const core::PathAnalyzer* path_analyzer() const { return path_an_.get(); }
  const core::GraphAnalyzer* graph_analyzer() const {
    return graph_an_.get();
  }

  /// Parsed deck (deck sessions only; throws kInvalidInput otherwise).
  const circuit::Netlist& deck_netlist() const;

  // -- analyses (thread-safe, bitwise deterministic per RunOptions
  //    contract: identical results for every threads/batch value)

  /// Monte-Carlo delay statistics: per-sample path delay (single-path
  /// session) or worst endpoint delay (graph session).
  stats::MonteCarloResult run_monte_carlo(
      const core::PathVariationModel& model,
      const stats::RunOptions& opt) const;

  /// Spatially-correlated Monte Carlo (single-path sessions only).
  core::PathAnalyzer::CorrelatedMcResult run_monte_carlo_correlated(
      const core::PathVariationModel& model, double rho,
      const stats::RunOptions& opt) const;

  /// Gradient Analysis (single-path sessions only).
  core::PathAnalyzer::GaResult run_gradients(
      const core::PathVariationModel& model) const;

  /// Timing yield at `clock_period` by the chosen estimator ("mc",
  /// "is", "is-cv"; docs/yield_estimation.md), after
  /// check_yield_inputs. clock_period 0 derives the Gradient-Analysis
  /// period for `yield_target` first (single-path sessions only -- a
  /// graph session needs an explicit period). The IS estimators are
  /// single-path only.
  YieldResult run_yield(const core::PathVariationModel& model,
                        double clock_period, const std::string& estimator,
                        double yield_target,
                        const stats::RunOptions& opt) const;

  /// Multi-path analysis bundle (graph sessions only): worst-endpoint
  /// Monte Carlo, the all-nominal sample report and the analytic SSTA
  /// endpoint forms.
  GraphResult run_graph(const core::PathVariationModel& model,
                        const stats::RunOptions& opt) const;

  /// Conventional transient of a deck session (throws kInvalidInput on
  /// circuit sessions). Constructs the engine per call; the parsed
  /// netlist is the cached artifact.
  spice::TransientResult run_transient(
      const spice::TransientOptions& opt) const;

 private:
  Session() = default;

  DesignSpec spec_;
  std::string key_;
  circuit::Technology tech_;
  timing::BenchmarkSpec bspec_;
  timing::GateNetlist netlist_;
  timing::TimingPath path_;
  std::unique_ptr<core::PathAnalyzer> path_an_;
  std::unique_ptr<core::GraphAnalyzer> graph_an_;
  std::unique_ptr<circuit::Netlist> deck_nl_;
};

/// Resolve a technology name ("180nm", "600nm"); throws kInvalidInput
/// otherwise. Shared by Session::load and the CLI flag parsers so a
/// bogus --tech is a classified error everywhere.
circuit::Technology technology_by_name(const std::string& name);

}  // namespace lcsf::api
