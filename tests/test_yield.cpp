// Tests for timing-yield estimation and corner-pessimism helpers.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/diagnostics.hpp"
#include "stats/random.hpp"
#include "stats/runner.hpp"
#include "stats/yield.hpp"

namespace lcsf::stats {
namespace {

TEST(Yield, NormalCdfAnchors) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-9);
  EXPECT_NEAR(normal_cdf(-3.0), 0.0013498980316301, 1e-9);
}

TEST(Yield, EmpiricalYield) {
  std::vector<double> delays{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(empirical_yield(delays, 2.5), 0.5);
  EXPECT_DOUBLE_EQ(empirical_yield(delays, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(empirical_yield(delays, 4.0), 1.0);
  EXPECT_THROW(empirical_yield({}, 1.0), sim::SimulationError);
}

TEST(Yield, GaussianYieldAndInverse) {
  const double nominal = 300e-12;
  const double sigma = 10e-12;
  EXPECT_NEAR(gaussian_yield(nominal, sigma, nominal), 0.5, 1e-12);
  EXPECT_NEAR(gaussian_yield(nominal, sigma, nominal + 2 * sigma),
              0.9772498680518208, 1e-9);
  // Round trip.
  for (double y : {0.1, 0.5, 0.9, 0.99}) {
    const double period = gaussian_period_for_yield(nominal, sigma, y);
    EXPECT_NEAR(gaussian_yield(nominal, sigma, period), y, 1e-9);
  }
  EXPECT_DOUBLE_EQ(gaussian_yield(nominal, 0.0, nominal + 1e-15), 1.0);
  EXPECT_THROW(gaussian_yield(nominal, -1.0, nominal),
               sim::SimulationError);
}

TEST(Yield, PeriodForYieldMatchesGaussianOnLargeSample) {
  std::vector<double> delays;
  for (std::uint64_t k = 0; k < 50000; ++k) {
    delays.push_back(to_normal(sample_stream(3, k).uniform_open(), 1.0, 0.1));
  }
  for (double y : {0.5, 0.9, 0.99}) {
    const double emp = period_for_yield(delays, y);
    const double gauss = gaussian_period_for_yield(1.0, 0.1, y);
    EXPECT_NEAR(emp, gauss, 0.01) << y;
  }
  EXPECT_THROW(period_for_yield({}, 0.5), sim::SimulationError);
  EXPECT_THROW(period_for_yield({1.0}, 1.5), sim::SimulationError);
}

TEST(Yield, EmpiricalYieldCurveMatchesPointwise) {
  std::vector<double> delays{1.0, 2.0, 3.0, 4.0};
  std::vector<double> periods{0.5, 2.5, 4.0};
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const auto curve = empirical_yield_curve(delays, periods, threads);
    ASSERT_EQ(curve.size(), periods.size());
    for (std::size_t k = 0; k < periods.size(); ++k) {
      EXPECT_DOUBLE_EQ(curve[k], empirical_yield(delays, periods[k]));
    }
  }
  EXPECT_THROW(empirical_yield_curve({}, periods), sim::SimulationError);
}

TEST(Yield, MonteCarloYieldEstimatorIsThreadCountInvariant) {
  // f(w) = w0 with w0 ~ N(0,1): P(f <= 1) = Phi(1) ~= 0.841.
  std::vector<VariationSource> src(1);
  auto f = [](const numeric::Vector& w) { return w[0]; };
  RunOptions opt;
  opt.samples = 2000;
  opt.seed = 31;

  opt.exec.threads = 1;
  const McYieldEstimate serial(Runner(opt).run_monte_carlo(per_sample(f), src),
                               1.0);
  EXPECT_NEAR(serial.yield, 0.8413, 0.03);
  EXPECT_NEAR(serial.std_error,
              std::sqrt(serial.yield * (1.0 - serial.yield) / 2000.0),
              1e-12);

  opt.exec.threads = 8;
  const McYieldEstimate par(Runner(opt).run_monte_carlo(per_sample(f), src),
                            1.0);
  EXPECT_EQ(serial.yield, par.yield);
  EXPECT_EQ(serial.samples().values, par.samples().values);
}

TEST(Yield, CornerPessimism) {
  // Corner margin 30 ps vs statistical margin 10 ps -> 3x pessimistic.
  EXPECT_NEAR(corner_pessimism(330e-12, 310e-12, 300e-12), 3.0, 1e-9);
  EXPECT_THROW(corner_pessimism(330e-12, 290e-12, 300e-12),
               sim::SimulationError);
}

}  // namespace
}  // namespace lcsf::stats
