// The vocabulary of the Monte-Carlo and Gradient-Analysis drivers (paper
// Sec. 4.1.2-4.1.3): performance functions, variation sources, failure
// policy and summaries, execution knobs and result types. The drivers
// themselves are stats::Runner's methods (stats/runner.hpp).
//
// Both operate on an abstract performance function f(w) over independent
// variation sources w (use Pca::from_factors upstream if the physical
// parameters are correlated). Both evaluate f in parallel on the shared
// runtime::ThreadPool substrate; results are bitwise identical for every
// thread count because each sample draws from its own counter-based
// stream (see stats/random.hpp and docs/monte_carlo.md).
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "numeric/matrix.hpp"
#include "sim/diagnostics.hpp"
#include "stats/descriptive.hpp"
#include "stats/random.hpp"

namespace lcsf::stats {

/// Compiled-in default width of a lockstep sample block (see
/// ExecutionOptions::batch and docs/performance.md).
inline constexpr std::size_t kDefaultBatch = 8;

/// Widest sample block a command line or a server request may ask for.
/// Each lane of a block keeps its own sample workspace, so memory grows
/// with the width while throughput stops improving long before this.
inline constexpr std::size_t kMaxBatch = 64;

/// Per-sample outcome of one block evaluation. On failure `diag` carries
/// the classified diagnostics; foreign std::runtime_error failures are
/// classified kOther with the exception message as detail.
struct BatchSlot {
  double value = 0.0;
  bool failed = false;
  sim::SimDiagnostics diag;
};

/// The performance function every statistical driver evaluates: a block
/// of realizations of the normalized variation sources w, evaluated on
/// one lane, filling one BatchSlot per input (the driver sizes `out` to
/// match and clears it). The driver passes the executing thread's lane
/// index (runtime::ThreadPool lane semantics: caller = 0, worker k =
/// k + 1, lane < max(1, resolved thread count)); within one driver call a
/// lane is used by at most one thread at a time, so f may keep mutable
/// per-lane workspaces without locking. Contract: out[b] depends on w[b]
/// alone -- bitwise for values, same classified diagnostics for failures
/// -- never on the lane or on the rest of the block (fail-soft: one
/// diverging sample must not perturb its neighbours). An exception that
/// escapes f aborts the run whatever the failure policy.
using BatchPerformanceFn = std::function<void(
    const std::vector<numeric::Vector>& w, std::size_t lane,
    std::vector<BatchSlot>& out)>;

/// One-sample performance function: maps one realization of w to a scalar
/// metric (a delay, a skew...). Must be safe to call concurrently from
/// multiple threads. The drivers take it through per_sample().
using PerformanceFn = std::function<double(const numeric::Vector&)>;

/// Adapt a one-sample f (an analytic function, a one-sample engine call)
/// to the block shape: each sample of a block is evaluated in turn. A
/// sim::SimulationError is recorded in its slot with its diagnostics, a
/// foreign std::runtime_error as kOther with its message as detail;
/// std::logic_error (misuse) and anything else propagate.
BatchPerformanceFn per_sample(PerformanceFn f);

/// Description of one independent variation source.
struct VariationSource {
  enum class Kind { kNormal, kUniform } kind = Kind::kNormal;
  double sigma = 1.0;      ///< std-dev (normal) or half-width (uniform)
  double mean = 0.0;
};

/// What a statistical driver does when one sample's evaluation fails
/// (its BatchSlot comes back failed).
enum class FailurePolicy {
  kAbort,  ///< rethrow: one bad sample kills the whole run
  kSkip,   ///< record + classify the failure, compute stats over survivors
};

/// One failed sample. `index` is the reproduction handle: rerunning with
/// the same (seed, samples, latin_hypercube, sources) makes sample `index`
/// draw the identical variate vector.
struct SampleFailure {
  std::size_t index = 0;
  sim::FailureKind kind = sim::FailureKind::kOther;
  std::string detail;  ///< diagnostics message of the failure
};

/// Deterministic aggregate of per-sample failures: built serially in
/// sample-index order after the parallel evaluation, so it is bitwise
/// identical for every thread count (same contract as the values).
struct FailureSummary {
  std::size_t attempted = 0;  ///< samples evaluated (or aborted mid-run)
  std::size_t survived = 0;   ///< samples that produced a value
  /// Failure count per sim::FailureKind (indexed by the enum's value).
  std::array<std::size_t, sim::kNumFailureKinds> counts{};
  /// Every failure, ordered by sample index (the first entry per kind is
  /// the cheapest reproduction case).
  std::vector<SampleFailure> failures;

  std::size_t failed() const { return attempted - survived; }
  bool any() const { return failed() > 0; }
  std::size_t count(sim::FailureKind k) const {
    return counts[static_cast<std::size_t>(k)];
  }
  /// Multi-line "kind : count (first sample i: detail)" report table;
  /// empty string when nothing failed.
  std::string table() const;
};

/// Execution knobs shared by every statistical driver (Monte-Carlo,
/// Gradient Analysis, yield), carried by RunOptions::exec.
struct ExecutionOptions {
  /// Worker threads for the parallel evaluations. 0 = auto-detect via
  /// runtime::ThreadPool::default_threads() (LCSF_THREADS env, then hardware
  /// concurrency); 1 = serial.
  std::size_t threads = 0;
  /// Fail-soft switch. With kSkip, an evaluation whose slot comes back
  /// failed is skipped, counted and classified in the result's
  /// FailureSummary; statistics cover the survivors. An exception that
  /// escapes the performance function (per_sample lets std::logic_error
  /// through: misuse is not a simulation outcome) still propagates. See
  /// each driver for what "one evaluation" means (a sample, resp. a
  /// probe pair).
  FailurePolicy on_failure = FailurePolicy::kAbort;
  /// Lockstep sample-block width K. 0 = kDefaultBatch. Every driver
  /// evaluates its points in blocks of min(K, remaining), so n points run
  /// as floor(n / K) full blocks and at most one partial block. Values
  /// never change results -- sample draws and the thread-count
  /// determinism contract are batch-width invariant.
  std::size_t batch = 0;
};

/// Result of Runner::run_monte_carlo.
struct MonteCarloResult {
  OnlineStats stats;                       ///< accumulated in sample order
  /// Per-sample performance / variates of the *survivors*, in sample-index
  /// order (== all samples when nothing failed).
  std::vector<double> values;
  std::vector<numeric::Vector> samples;
  FailureSummary failures;  ///< who died, and why (empty under kAbort)
};

/// Result of Runner::run_gradients.
struct GradientAnalysisResult {
  double nominal = 0.0;
  numeric::Vector gradient;  ///< dD/dw_l at nominal
  double stddev = 0.0;       ///< Eq. 24 RSS
  std::size_t evaluations = 0;
  FailureSummary failures;   ///< failed probes by source index
};

}  // namespace lcsf::stats
