// The statistical driver (paper Sec. 4): stats::Runner runs Monte Carlo,
// Gradient Analysis (Eq. 24), Monte-Carlo yield and importance-sampled
// yield under one option struct, RunOptions -- configure sampling,
// seeding, execution and observability once, then run any analysis
// against it. It is the only statistical entry point.
//
// Observability: every run_* method records phase spans, engine counters
// and a per-sample latency distribution into RunOptions::registry -- or,
// when that is null, into the registry ambient on the calling thread
// (obs::ScopedContext), so tools can install one registry around a whole
// analysis pipeline. With neither, recording is a no-op.
#pragma once

#include "obs/registry.hpp"
#include "stats/analysis.hpp"
#include "stats/importance.hpp"
#include "stats/yield.hpp"

namespace lcsf::stats {

/// Shared configuration for all Runner analyses: the sampling fields, the
/// gradient step, the execution knobs in `exec` (one ExecutionOptions for
/// every analysis), the importance-sampling knobs and the metrics sink.
struct RunOptions {
  std::size_t samples = 100;    ///< MC/yield sample count; must be >= 1
  /// Base seed. Sample s draws from stream (seed, s) regardless of how
  /// samples are partitioned across threads, so two runs with equal
  /// (samples, seed, latin_hypercube) agree bitwise whatever
  /// exec.threads is.
  std::uint64_t seed = 1;
  bool latin_hypercube = true;  ///< stratified (paper Example 2) vs plain
  /// Relative finite-difference step of run_gradients, as a fraction of
  /// each source's sigma. The paper evaluates "five simulations per
  /// variation source"; central differences use two plus the shared
  /// nominal run.
  double step_fraction = 0.1;
  ExecutionOptions exec;        ///< threads + failure policy + batch

  /// Importance-sampled yield knobs (run_yield_is only): proposal shift
  /// scale, defensive-mixture weight, adaptive pilot budget and the
  /// control-variate switch. See stats/importance.hpp and
  /// docs/yield_estimation.md.
  ImportanceOptions importance;

  /// Metrics/trace destination. Null = inherit the calling thread's
  /// ambient registry (if any); recording is disabled when both are null.
  obs::Registry* registry = nullptr;
};

/// Facade running the statistical analyses under one RunOptions.
/// Stateless apart from the options (safe to reuse and copy). Results are
/// bitwise identical for every exec.threads value, with or without a
/// registry installed.
class Runner {
 public:
  Runner() = default;
  explicit Runner(RunOptions opt) : opt_(std::move(opt)) {}

  const RunOptions& options() const { return opt_; }
  RunOptions& options() { return opt_; }

  /// Exhaustive sampling of f over the variation sources, plain or
  /// Latin-Hypercube (options().latin_hypercube).
  ///
  /// Determinism contract: values[s] and samples[s] depend only on
  /// (seed, s, samples if Latin-Hypercube, sources) -- never on
  /// exec.threads or the machine's core count. `samples == 1` with
  /// latin_hypercube is well-defined: the single stratum is the whole
  /// unit interval, so it degenerates to one plain draw.
  ///
  /// Throws sim::SimulationError (kInvalidInput) naming the offending
  /// option if `sources` is empty or RunOptions::samples == 0. Under the
  /// default FailurePolicy::kAbort, exceptions thrown by f propagate to
  /// the caller (first one wins, remaining samples are abandoned); under
  /// kSkip, simulation failures are recorded in the result's
  /// FailureSummary and the statistics cover the survivors.
  MonteCarloResult run_monte_carlo(
      const PerformanceFn& f,
      const std::vector<VariationSource>& sources) const;
  /// Lane-aware overload: identical contract, but f also receives the
  /// lane index so it can reuse a per-lane sample workspace.
  MonteCarloResult run_monte_carlo(
      const LanedPerformanceFn& f,
      const std::vector<VariationSource>& sources) const;

  /// Batch-dispatched Monte-Carlo: identical contract and (given a
  /// conforming BatchPerformanceFn) identical results to the laned
  /// overload. Samples are partitioned into floor(samples / K) full
  /// K-blocks evaluated through `fb` plus a scalar remainder loop through
  /// `f`, where K comes from options().exec.batch (see ExecutionOptions);
  /// K == 1 or an empty `fb` runs the laned overload. Every sample still
  /// draws from its own counter-based stream, and full blocks and
  /// remainder samples are dispatched through one work queue, so results
  /// stay bitwise identical for every thread count AND every batch width.
  /// Under kAbort a failed batched sample surfaces as
  /// sim::SimulationError carrying its classified diagnostics; under
  /// kSkip it is recorded exactly like a scalar failure. With K >= 2 it
  /// emits the stats.mc.batches / stats.mc.batch_remainder_samples
  /// counters and the stats.mc.batch_fill distribution.
  MonteCarloResult run_monte_carlo(
      const LanedPerformanceFn& f, const BatchPerformanceFn& fb,
      const std::vector<VariationSource>& sources) const;

  /// First-order (RSS) estimate of the performance spread, paper Eq. 24:
  ///   sigma_D = sqrt( sum_l sigma_l^2 (dD/dw_l)^2 ),
  /// from central differences of step options().step_fraction * sigma_l
  /// about the source means. exec.threads spreads the 2 x #sources probe
  /// evaluations; the result stays thread-count invariant (probes are
  /// independent and the Eq. 24 sum is accumulated in source order).
  /// Under kSkip a failed probe zeroes that source's gradient entry,
  /// drops it from the Eq. 24 sum and is recorded
  /// (SampleFailure::index = source index). A failed *nominal*
  /// evaluation always rethrows -- there is no gradient about a point
  /// that does not evaluate. Throws kInvalidInput for empty `sources` or
  /// step_fraction <= 0.
  GradientAnalysisResult run_gradients(
      const PerformanceFn& f,
      const std::vector<VariationSource>& sources) const;
  GradientAnalysisResult run_gradients(
      const LanedPerformanceFn& f,
      const std::vector<VariationSource>& sources) const;

  /// Monte-Carlo timing yield: samples f with run_monte_carlo and counts
  /// the fraction meeting `clock_period`, so the estimate inherits its
  /// determinism contract and input checks. Under kSkip, failed samples
  /// are excluded from the survivor fraction and classified in
  /// samples().failures; a run where every sample failed reports yield 0.
  McYieldEstimate run_yield(const PerformanceFn& f,
                            const std::vector<VariationSource>& sources,
                            double clock_period) const;
  McYieldEstimate run_yield(const LanedPerformanceFn& f,
                            const std::vector<VariationSource>& sources,
                            double clock_period) const;

  /// Importance-sampled timing yield (ISLE-style; stats/importance.hpp):
  /// builds a linear surrogate from run_gradients, shifts the sampling
  /// distribution onto the surrogate's failure boundary, and unbiases
  /// each sample with its likelihood ratio. Configured by
  /// options().importance (shift scale, defensive mixture, adaptive
  /// pilot, control variate). Same determinism contract as run_yield:
  /// the estimate, weights and failure summaries are bitwise identical
  /// for every exec.threads value. See docs/yield_estimation.md.
  IsYieldEstimate run_yield_is(const PerformanceFn& f,
                               const std::vector<VariationSource>& sources,
                               double clock_period) const;
  IsYieldEstimate run_yield_is(const LanedPerformanceFn& f,
                               const std::vector<VariationSource>& sources,
                               double clock_period) const;

 private:
  RunOptions opt_;
};

}  // namespace lcsf::stats
