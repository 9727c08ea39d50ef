// Internal helpers shared by the statistical driver engines (runner.cpp,
// importance.cpp). Not part of the public stats API -- everything here
// lives in lcsf::stats::detail and may change without notice.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "sim/diagnostics.hpp"
#include "stats/analysis.hpp"
#include "stats/random.hpp"

namespace lcsf::stats::detail {

/// The observability context of one driver call. The run records into
/// `explicit_reg` (RunOptions::registry) or, when that is null, into the
/// registry ambient on the calling thread. Installs (registry, lane 0) on
/// the driver thread -- unless that exact registry is already ambient, in
/// which case the existing context (and its span path, e.g. an enclosing
/// run_yield_is span) is left in place.
class DriverContext {
 public:
  explicit DriverContext(obs::Registry* explicit_reg)
      : reg_(explicit_reg != nullptr ? explicit_reg
                                     : obs::ambient_registry()) {
    if (reg_ != obs::ambient_registry()) ctx_.emplace(reg_, 0);
  }

  /// The registry the parallel chunks route their lane sinks to.
  obs::Registry* registry() const { return reg_; }

 private:
  obs::Registry* reg_;
  std::optional<obs::ScopedContext> ctx_;
};

/// The input checks every sampling driver makes before it draws: at least
/// one source and at least one sample. Throws sim::SimulationError
/// (kInvalidInput) naming `driver` and the offending option.
inline void check_sampling(const char* driver, std::size_t num_sources,
                           std::size_t samples) {
  if (num_sources == 0) {
    sim::throw_invalid_input(
        std::string(driver) +
        ": `sources` must contain at least one VariationSource");
  }
  if (samples == 0) {
    sim::throw_invalid_input(std::string(driver) +
                             ": RunOptions::samples must be >= 1");
  }
}

/// Latin-Hypercube stratum assignment of one sampling run: one
/// deterministic permutation of the n strata per dimension, drawn from
/// stream (seed, d, perm_tag) -- generation is O(n * dims) and serial,
/// negligible next to the f(w) evaluations. `perm_tag` keeps each
/// driver's permutations independent (stream_tag::kLhsPerm for plain
/// Monte Carlo, kIsPilotPerm / kIsMainPerm for the IS phases).
class LhsStrata {
 public:
  /// `enabled` false = plain sampling: no permutations are drawn and
  /// variate() passes the jitter through.
  LhsStrata(bool enabled, std::uint64_t seed, std::size_t dims,
            std::size_t n, std::uint64_t perm_tag)
      : n_(n) {
    if (!enabled) return;
    perm_.reserve(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      SplitMix64 perm_stream = sample_stream(seed, d, perm_tag);
      perm_.push_back(stream_permutation(n, perm_stream));
    }
  }

  /// The U(0,1) variate of sample s in dimension d given its jitter draw
  /// in (0, 1): (stratum + jitter) / n under Latin Hypercube, the jitter
  /// itself under plain sampling. With n == 1 every permutation is the
  /// identity and the single stratum spans (0, 1).
  double variate(std::size_t d, std::size_t s, double jitter) const {
    if (perm_.empty()) return jitter;
    return (static_cast<double>(perm_[d][s]) + jitter) /
           static_cast<double>(n_);
  }

 private:
  std::size_t n_;
  std::vector<std::vector<std::size_t>> perm_;
};

/// The resolved sample-block width K of exec.batch (0 = kDefaultBatch).
inline std::size_t block_width(const ExecutionOptions& exec) {
  return exec.batch == 0 ? kDefaultBatch : exec.batch;
}

/// The one evaluation loop of every driver: evaluates the n points
/// draw(0) ... draw(n - 1) through `fb` in blocks of min(K, n - first)
/// consecutive indices, K = exec.batch (0 = kDefaultBatch), so n points
/// run as floor(n / K) full blocks and at most one partial block. Blocks
/// are the work units of one exec.threads pool; slots[i] receives point
/// i's outcome (sized n on return) and, when `points` is non-null,
/// (*points)[i] the point itself. Each point is drawn and evaluated
/// exactly once whatever the partition, so results are bitwise identical
/// for every thread count and every K. Under kAbort the first failed
/// slot of a block is rethrown as sim::SimulationError once the block
/// returns; under kSkip the caller folds the failed slots. Records one
/// `block_seconds` wall-clock value per block when metrics are enabled.
void evaluate_blocks(const ExecutionOptions& exec, obs::Registry* reg,
                     const BatchPerformanceFn& fb, std::size_t n,
                     const std::function<numeric::Vector(std::size_t)>& draw,
                     const char* block_seconds, std::vector<BatchSlot>& slots,
                     std::vector<numeric::Vector>* points = nullptr);

/// Serial index-order fold of per-evaluation slots into `out`: every
/// failed slot contributes a SampleFailure carrying its index, kind and
/// diagnostics message. Run after the parallel loop joins, so the
/// summary is identical for every thread count. attempted = slots.size().
inline void fold_failures(const std::vector<BatchSlot>& slots,
                          FailureSummary& out) {
  out.attempted = slots.size();
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (!slots[s].failed) continue;
    const sim::SimDiagnostics& diag = slots[s].diag;
    ++out.counts[static_cast<std::size_t>(diag.kind)];
    out.failures.push_back({s, diag.kind, diag.message()});
  }
  out.survived = out.attempted - out.failures.size();
}

}  // namespace lcsf::stats::detail
