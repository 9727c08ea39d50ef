// Timing-yield estimation (the paper's Sec. 4 motivation: "To predict the
// timing yield of the critical path delay, a large number of simulations
// are required") and the worst-case-corner analysis the introduction
// argues against ("worst-case corner methods are known to create overly
// pessimistic results").
//
// Everything here is brute-force: the estimators average indicator
// functions over a plain Monte-Carlo sample. For *rare* failures (clock
// periods sigmas beyond nominal) the importance-sampled estimator in
// stats/importance.hpp resolves the same tail with orders of magnitude
// fewer simulations -- see the selection table in
// docs/yield_estimation.md.
#pragma once

#include <cstddef>
#include <vector>

#include "stats/analysis.hpp"

namespace lcsf::stats {

/// Standard normal CDF.
double normal_cdf(double x);

/// P(delay <= clock_period) from an empirical Monte-Carlo sample
/// (fraction of samples meeting the period).
double empirical_yield(const std::vector<double>& delays,
                       double clock_period);

/// empirical_yield over a grid of clock periods, evaluated on the shared
/// thread pool (`threads` has ExecutionOptions::threads semantics). The
/// returned vector is ordered like `periods` regardless of thread count.
std::vector<double> empirical_yield_curve(const std::vector<double>& delays,
                                          const std::vector<double>& periods,
                                          std::size_t threads = 0);

/// A Monte-Carlo yield estimate plus the sample it was computed from
/// (a Runner::run_monte_carlo result).
class McYieldEstimate {
 public:
  McYieldEstimate() = default;
  /// Compute yield/std_error for `clock_period` over `samples`' survivor
  /// values. A run where *every* sample failed (kSkip) reports yield 0:
  /// by the ISLE-style convention a sample that diverges cannot meet
  /// timing (the summary in samples().failures tells the story).
  McYieldEstimate(MonteCarloResult samples, double clock_period);

  /// The underlying Monte-Carlo sample (reusable for yield curves etc.).
  const MonteCarloResult& samples() const { return samples_; }
  MonteCarloResult& samples() { return samples_; }

  double yield = 0.0;        ///< fraction of samples meeting the period
  double std_error = 0.0;    ///< binomial std error sqrt(y(1-y)/n)

 private:
  MonteCarloResult samples_;
};

/// P(delay <= clock_period) under the Gaussian model implied by Gradient
/// Analysis (Eq. 24): N(nominal, sigma).
double gaussian_yield(double nominal, double sigma, double clock_period);

/// The smallest clock period achieving the target yield, from the
/// empirical sample (exact order statistic, linearly interpolated).
double period_for_yield(std::vector<double> delays, double target_yield);

/// Same under the Gaussian model.
double gaussian_period_for_yield(double nominal, double sigma,
                                 double target_yield);

/// Classic worst-case-corner estimate: every variation source pushed to
/// +k sigma simultaneously in its delay-increasing direction. `corner(k)`
/// must return the delay with all sources at +/-k chosen adversarially by
/// the caller. This helper just documents the comparison; the pessimism
/// ratio of a corner delay vs a statistical quantile is
/// corner_pessimism().
double corner_pessimism(double corner_delay, double statistical_quantile,
                        double nominal);

}  // namespace lcsf::stats
