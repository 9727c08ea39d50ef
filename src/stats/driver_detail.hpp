// Internal helpers shared by the statistical driver engines (runner.cpp,
// importance.cpp). Not part of the public stats API -- everything here
// lives in lcsf::stats::detail and may change without notice.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "sim/diagnostics.hpp"
#include "stats/analysis.hpp"
#include "stats/random.hpp"

namespace lcsf::stats::detail {

/// Evaluate one sample under the kSkip policy: returns true and fills
/// `value` on success, false and fills `failure` on a classified failure.
/// std::logic_error (misuse) propagates.
inline bool eval_fail_soft(const LanedPerformanceFn& f,
                           const numeric::Vector& w, std::size_t lane,
                           std::size_t index, double& value,
                           SampleFailure& failure) {
  try {
    value = f(w, lane);
    return true;
  } catch (const sim::SimulationError& e) {
    failure = {index, e.kind(), e.diagnostics().message()};
  } catch (const std::runtime_error& e) {
    // A foreign engine that does not speak SimulationError: still a
    // simulation outcome, classified as kOther.
    failure = {index, sim::FailureKind::kOther, e.what()};
  }
  return false;
}

/// Adapt a lane-blind f to the laned core the drivers run on.
inline LanedPerformanceFn ignore_lane(const PerformanceFn& f) {
  return [&f](const numeric::Vector& w, std::size_t) { return f(w); };
}

/// The observability context of one driver call. The run records into
/// `explicit_reg` (RunOptions::registry) or, when that is null, into the
/// registry ambient on the calling thread. Installs (registry, lane 0) on
/// the driver thread -- unless that exact registry is already ambient, in
/// which case the existing context (and its span path, e.g. an enclosing
/// run_yield span) is left in place.
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

/// Serial index-order fold of per-evaluation failure slots into `out`:
/// every index whose `died` flag is set contributes its SampleFailure.
/// Run after the parallel loop joins, so the summary is identical for
/// every thread count. attempted = died.size().
inline void fold_failures(const std::vector<char>& died,
                          std::vector<SampleFailure>& deaths,
                          FailureSummary& out) {
  out.attempted = died.size();
  for (std::size_t s = 0; s < died.size(); ++s) {
    if (!died[s]) continue;
    ++out.counts[static_cast<std::size_t>(deaths[s].kind)];
    out.failures.push_back(std::move(deaths[s]));
  }
  out.survived = out.attempted - out.failures.size();
}

}  // namespace lcsf::stats::detail
