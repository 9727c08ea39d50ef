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

/// Performance function under analysis: maps one realization of the
/// normalized variation sources w to a scalar metric (a delay, a skew...).
/// Must be safe to call concurrently from multiple threads.
using PerformanceFn = std::function<double(const numeric::Vector&)>;

/// Lane-aware performance function: the driver passes the executing
/// thread's lane index (runtime::ThreadPool lane semantics: caller = 0,
/// worker k = k + 1, lane < max(1, resolved thread count)). Within one
/// driver call a lane is used by at most one thread at a time, so f may
/// keep mutable per-lane workspaces -- the allocation-free Monte-Carlo
/// hot path -- without locking. The value returned must not depend on the
/// lane, or the thread-count determinism contract is forfeit.
using LanedPerformanceFn =
    std::function<double(const numeric::Vector&, std::size_t)>;

/// Compiled-in default width of a lockstep sample block (see
/// ExecutionOptions::batch and docs/performance.md).
inline constexpr std::size_t kDefaultBatch = 8;

/// Per-sample outcome of one batched evaluation. On failure `diag` carries
/// the classified diagnostics (what the scalar path would have thrown as
/// sim::SimulationError); foreign std::runtime_error failures are
/// classified kOther with the exception message as detail.
struct BatchSlot {
  double value = 0.0;
  bool failed = false;
  sim::SimDiagnostics diag;
};

/// Batched performance function: evaluate a block of variation-source
/// samples in lockstep on one lane, filling one BatchSlot per input (the
/// driver sizes `out` to match). Contract: out[b] must equal what the
/// scalar PerformanceFn would produce for w[b] -- bitwise for values, same
/// classified diagnostics for failures -- regardless of the surrounding
/// block (fail-soft: one diverging sample must not perturb its
/// neighbours). Must be safe to call concurrently from multiple threads
/// with distinct lanes.
using BatchPerformanceFn = std::function<void(
    const std::vector<numeric::Vector>& w, std::size_t lane,
    std::vector<BatchSlot>& out)>;

/// Description of one independent variation source.
struct VariationSource {
  enum class Kind { kNormal, kUniform } kind = Kind::kNormal;
  double sigma = 1.0;      ///< std-dev (normal) or half-width (uniform)
  double mean = 0.0;
};

/// What a statistical driver does when one sample's evaluation fails
/// (throws sim::SimulationError or another std::runtime_error).
enum class FailurePolicy {
  kAbort,  ///< rethrow: one bad sample kills the whole run (legacy)
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
  /// Fail-soft switch. With kSkip, an evaluation that throws
  /// sim::SimulationError (or std::runtime_error, classified kOther) is
  /// skipped, counted and classified in the result's FailureSummary;
  /// statistics cover the survivors. std::logic_error still propagates --
  /// misuse is not a simulation outcome. See each driver for what "one
  /// evaluation" means (a sample, resp. a probe pair).
  FailurePolicy on_failure = FailurePolicy::kAbort;
  /// Lockstep sample-block width for drivers given a BatchPerformanceFn.
  /// 0 = kDefaultBatch; 1 = force the scalar path; K >= 2 dispatches
  /// floor(samples / K) full blocks plus a scalar remainder loop. Values
  /// never change results -- sample draws and the thread-count
  /// determinism contract are batch-width invariant.
  std::size_t batch = 0;
};

/// Parse a batch width from command-line text: a positive decimal
/// integer. Throws sim::SimulationError (kInvalidInput) naming `what`
/// otherwise.
std::size_t parse_batch(const std::string& text, const char* what);

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
