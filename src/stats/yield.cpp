#include "stats/yield.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "runtime/thread_pool.hpp"
#include "numeric/fp_compare.hpp"
#include "sim/diagnostics.hpp"
#include "stats/random.hpp"

namespace lcsf::stats {

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double empirical_yield(const std::vector<double>& delays,
                       double clock_period) {
  if (delays.empty()) sim::throw_invalid_input("empirical_yield: empty");
  std::size_t pass = 0;
  for (double d : delays) {
    if (d <= clock_period) ++pass;
  }
  return static_cast<double>(pass) / static_cast<double>(delays.size());
}

std::vector<double> empirical_yield_curve(const std::vector<double>& delays,
                                          const std::vector<double>& periods,
                                          std::size_t threads) {
  if (delays.empty()) {
    sim::throw_invalid_input("empirical_yield_curve: empty sample");
  }
  std::vector<double> out(periods.size());
  runtime::parallel_for_lanes(
      threads, periods.size(),
      [&](std::size_t begin, std::size_t end, std::size_t /*lane*/) {
        for (std::size_t k = begin; k < end; ++k) {
          out[k] = empirical_yield(delays, periods[k]);
        }
      });
  return out;
}

McYieldEstimate::McYieldEstimate(MonteCarloResult sample_set,
                                 double clock_period)
    : samples_(std::move(sample_set)) {
  if (samples_.values.empty()) {
    // Every sample failed under FailurePolicy::kSkip: by the ISLE-style
    // convention a sample that diverges cannot meet timing, so the yield
    // estimate is 0 (the summary in samples().failures tells the story).
    return;
  }
  yield = empirical_yield(samples_.values, clock_period);
  std_error = std::sqrt(yield * (1.0 - yield) /
                        static_cast<double>(samples_.values.size()));
}

double gaussian_yield(double nominal, double sigma, double clock_period) {
  if (sigma < 0.0) sim::throw_invalid_input("gaussian_yield: sigma < 0");
  if (numeric::exact_zero(sigma)) return clock_period >= nominal ? 1.0 : 0.0;
  return normal_cdf((clock_period - nominal) / sigma);
}

double period_for_yield(std::vector<double> delays, double target_yield) {
  if (delays.empty()) {
    sim::throw_invalid_input("period_for_yield: empty sample");
  }
  if (target_yield <= 0.0 || target_yield > 1.0) {
    sim::throw_invalid_input("period_for_yield: yield in (0,1]");
  }
  std::sort(delays.begin(), delays.end());
  const double pos =
      target_yield * static_cast<double>(delays.size()) - 1.0;
  if (pos <= 0.0) return delays.front();
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  if (lo + 1 >= delays.size()) return delays.back();
  const double frac = pos - std::floor(pos);
  return delays[lo] + frac * (delays[lo + 1] - delays[lo]);
}

double gaussian_period_for_yield(double nominal, double sigma,
                                 double target_yield) {
  if (target_yield <= 0.0 || target_yield >= 1.0) {
    sim::throw_invalid_input("gaussian_period_for_yield: yield in (0,1)");
  }
  return nominal + sigma * inverse_normal_cdf(target_yield);
}

double corner_pessimism(double corner_delay, double statistical_quantile,
                        double nominal) {
  const double corner_margin = corner_delay - nominal;
  const double stat_margin = statistical_quantile - nominal;
  if (stat_margin <= 0.0) {
    sim::throw_invalid_input("corner_pessimism: quantile <= nominal");
  }
  return corner_margin / stat_margin;
}

}  // namespace lcsf::stats
