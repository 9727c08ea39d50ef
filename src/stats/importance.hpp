// Importance-sampled timing-yield estimation (ISLE-style).
//
// Brute-force Monte Carlo resolves a tail probability P_f = P(D > T) with
// per-sample variance P_f(1 - P_f): estimating a 10^-3 failure rate to
// 10% relative error needs ~10^5-10^6 samples. Following Bayrakci, Demir
// and Tasiran ("Fast Monte Carlo Estimation of Timing Yield: Importance
// Sampling with Stochastic Logical Effort", see PAPERS.md), this engine
// instead samples from the original distribution mean-shifted onto the
// failure boundary of a cheap linear surrogate of the path delay -- built
// from the Eq. 24 central-difference gradients of
// stats::Runner::run_gradients -- and unbiases every sample with its
// exponential-tilt likelihood ratio. An optional pilot run re-centers the
// shift on observed failures, and the surrogate's failure indicator can
// serve as a control variate. Orders of magnitude fewer samples land the
// same estimator variance; bench_yield_is records the MC-equivalent
// budget speedup in BENCH_yield_is.json.
//
// The estimator preserves the bitwise thread-count-invariance contract of
// the plain Monte-Carlo engine: every sample draws from its own
// counter-based stream (stats/random.hpp stream_tag constants) and all
// floating-point accumulation -- likelihood ratios, failure summaries,
// control-variate moments, obs distributions -- is folded serially in
// sample-index order after the parallel evaluation joins.
//
// The full derivation (shift construction, likelihood-ratio unbiasing,
// control variates, ESS) and an estimator-selection guide live in
// docs/yield_estimation.md.
#pragma once

#include <cstddef>
#include <vector>

#include "numeric/matrix.hpp"
#include "stats/analysis.hpp"

namespace lcsf::stats {

/// Knobs of the importance-sampled yield estimator
/// (Runner::run_yield_is; carried by stats::RunOptions::importance).
struct ImportanceOptions {
  /// Two-phase adaptive allocation: when > 0, a pilot run of this many
  /// samples (independent streams; the main run's seeds are untouched)
  /// refines the analytic shift with the cross-entropy update -- the
  /// likelihood-weighted centroid of the observed failing samples. 0
  /// disables the pilot (single-phase, analytic shift only).
  std::size_t pilot_samples = 0;

  /// Use the linear-surrogate failure indicator as a control variate:
  /// its expectation under the original distribution is exactly
  /// Phi(-beta), so the correlated part of the estimator noise cancels
  /// analytically. Requires every VariationSource to be kNormal (the
  /// exact control expectation is Gaussian); throws kInvalidInput
  /// otherwise.
  bool control_variate = false;
};

/// The linear delay surrogate and the proposal shift derived from it.
struct IsSurrogate {
  double nominal = 0.0;      ///< f at the source means (surrogate intercept)
  numeric::Vector gradient;  ///< dD/dw_l at nominal (Eq. 24 sensitivities)
  double sigma = 0.0;        ///< Eq. 24 RSS spread of the surrogate
  /// Proposal mean shift per source, in *standardized* units (theta_d is
  /// added to the standard-normal variate of source d; uniform sources
  /// are never shifted and keep a zero entry).
  numeric::Vector shift;
  /// Surrogate reliability index (T - nominal) / sigma: the number of
  /// RSS sigmas between the nominal delay and the clock period. The
  /// surrogate failure probability is Phi(-beta).
  double beta = 0.0;
};

/// Result of the importance-sampled yield estimator. The estimate,
/// per-sample values and weights, and both failure summaries are bitwise
/// identical for every exec.threads value.
struct IsYieldEstimate {
  double yield = 0.0;       ///< IS estimate of P(delay <= clock_period)
  double yield_loss = 0.0;  ///< IS estimate of P(delay > clock_period)
  double std_error = 0.0;   ///< standard error of yield_loss (and yield)

  /// Effective sample size of the main-phase weights,
  /// (sum w)^2 / (sum w^2): how many equally-weighted samples the run is
  /// worth. ESS near main_samples means the proposal is benign; a
  /// collapsed ESS flags weight degeneracy (see docs/yield_estimation.md).
  double ess = 0.0;

  std::size_t main_samples = 0;   ///< main-phase sample budget
  std::size_t pilot_used = 0;     ///< pilot samples actually run

  IsSurrogate surrogate;  ///< surrogate + final (possibly refined) shift

  bool control_variate_used = false;  ///< IS-CV path taken
  double control_coefficient = 0.0;   ///< fitted CV coefficient c*
  /// Exact E_p of the control (surrogate failure probability Phi(-beta)).
  double control_expectation = 0.0;

  /// Main-phase survivor delays and their likelihood ratios, in
  /// sample-index order (parallel MonteCarloResult::values).
  std::vector<double> values;
  std::vector<double> weights;

  FailureSummary failures;        ///< main-phase kSkip failures
  FailureSummary pilot_failures;  ///< pilot-phase kSkip failures
};

}  // namespace lcsf::stats
