// The statistical driver (paper Sec. 4): stats::Runner runs Monte Carlo,
// Gradient Analysis (Eq. 24) and importance-sampled yield under one
// option struct, RunOptions -- configure sampling, seeding, execution and
// observability once, then run any analysis against it. It is the only
// statistical entry point, and every analysis evaluates one
// BatchPerformanceFn in sample blocks (stats::per_sample adapts a
// one-sample function).
//
// Observability: every run_* method records phase spans, engine counters
// and a per-block latency distribution into RunOptions::registry -- or,
// when that is null, into the registry ambient on the calling thread
// (obs::ScopedContext), so tools can install one registry around a whole
// analysis pipeline. With neither, recording is a no-op.
#pragma once

#include "obs/registry.hpp"
#include "stats/analysis.hpp"
#include "stats/importance.hpp"

namespace lcsf::stats {

/// Shared configuration for all Runner analyses: the sampling fields, the
/// execution knobs in `exec` (one ExecutionOptions for every analysis),
/// the importance-sampling knobs and the metrics sink.
struct RunOptions {
  std::size_t samples = 100;    ///< MC/IS sample count; must be >= 1
  /// Base seed. Sample s draws from stream (seed, s) regardless of how
  /// samples are partitioned across threads, so two runs with equal
  /// (samples, seed, latin_hypercube) agree bitwise whatever
  /// exec.threads is.
  std::uint64_t seed = 1;
  bool latin_hypercube = true;  ///< stratified (paper Example 2) vs plain
  ExecutionOptions exec;        ///< threads + failure policy + batch

  /// Importance-sampled yield knobs (run_yield_is only): the adaptive
  /// pilot budget and the control-variate switch. See
  /// stats/importance.hpp and docs/yield_estimation.md.
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
  /// Latin-Hypercube (options().latin_hypercube), in blocks of
  /// min(K, remaining) samples, K = exec.batch (see ExecutionOptions).
  ///
  /// Determinism contract: values[s] and samples[s] depend only on
  /// (seed, s, samples if Latin-Hypercube, sources) -- never on
  /// exec.threads, exec.batch or the machine's core count. `samples == 1`
  /// with latin_hypercube is well-defined: the single stratum is the
  /// whole unit interval, so it degenerates to one plain draw.
  ///
  /// Throws sim::SimulationError (kInvalidInput) naming the offending
  /// option if `sources` is empty or RunOptions::samples == 0. Under the
  /// default FailurePolicy::kAbort the first failed sample of a block is
  /// rethrown as sim::SimulationError once its block returns (first
  /// failing block wins, remaining samples are abandoned); under kSkip,
  /// failures are recorded in the result's FailureSummary and the
  /// statistics cover the survivors. With K >= 2 it emits the
  /// stats.mc.batches / stats.mc.batch_remainder_samples counters and one
  /// stats.mc.batch_fill value per block.
  MonteCarloResult run_monte_carlo(
      const BatchPerformanceFn& f,
      const std::vector<VariationSource>& sources) const;

  /// First-order (RSS) estimate of the performance spread, paper Eq. 24:
  ///   sigma_D = sqrt( sum_l sigma_l^2 (dD/dw_l)^2 ),
  /// from central differences of step 0.1 * sigma_l about the source
  /// means (the paper evaluates "five simulations per variation source";
  /// central differences use two plus the shared nominal run). f sees
  /// the nominal point alone, then the 2 x #sources probes (+h, -h per
  /// source, in source order) in blocks of min(K, remaining) spread over
  /// exec.threads; the result stays thread-count and batch-width
  /// invariant (probes are independent and the Eq. 24 sum is accumulated
  /// in source order).
  /// Under kSkip a failed probe zeroes that source's gradient entry,
  /// drops it from the Eq. 24 sum and is recorded
  /// (SampleFailure::index = source index, the + probe's failure first).
  /// A failed *nominal* evaluation always rethrows -- there is no
  /// gradient about a point that does not evaluate. Throws kInvalidInput
  /// for empty `sources`.
  GradientAnalysisResult run_gradients(
      const BatchPerformanceFn& f,
      const std::vector<VariationSource>& sources) const;

  /// Importance-sampled timing yield (ISLE-style; stats/importance.hpp):
  /// builds a linear surrogate from run_gradients, shifts the sampling
  /// distribution onto the surrogate's failure boundary, and unbiases
  /// each sample with its likelihood ratio. Configured by
  /// options().importance (adaptive pilot, control variate). Both phases
  /// run in blocks like run_monte_carlo and share its determinism
  /// contract: the estimate, weights and failure summaries are bitwise
  /// identical for every exec.threads and exec.batch value. See
  /// docs/yield_estimation.md. Monte-Carlo yield is McYieldEstimate
  /// (stats/yield.hpp) over run_monte_carlo.
  IsYieldEstimate run_yield_is(const BatchPerformanceFn& f,
                               const std::vector<VariationSource>& sources,
                               double clock_period) const;

 private:
  RunOptions opt_;
};

}  // namespace lcsf::stats
