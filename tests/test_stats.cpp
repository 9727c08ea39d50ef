// Tests for the statistics layer: sample streams, LHS, PCA, MC, GA.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/diagnostics.hpp"
#include "stats/analysis.hpp"
#include "stats/descriptive.hpp"
#include "stats/pca.hpp"
#include "stats/random.hpp"
#include "stats/runner.hpp"

namespace lcsf::stats {
namespace {

using numeric::Matrix;
using numeric::Vector;

TEST(InverseNormalCdf, MatchesKnownQuantiles) {
  EXPECT_NEAR(inverse_normal_cdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(inverse_normal_cdf(0.8413447460685429), 1.0, 1e-6);
  EXPECT_NEAR(inverse_normal_cdf(0.9772498680518208), 2.0, 1e-6);
  EXPECT_NEAR(inverse_normal_cdf(0.0013498980316301), -3.0, 1e-5);
  EXPECT_THROW(inverse_normal_cdf(0.0), sim::SimulationError);
  EXPECT_THROW(inverse_normal_cdf(1.0), sim::SimulationError);
}

TEST(InverseNormalCdf, RoundTripsCdf) {
  // Phi(Phi^{-1}(p)) == p via erfc-based CDF.
  for (double p : {0.001, 0.01, 0.1, 0.3, 0.7, 0.95, 0.999}) {
    const double x = inverse_normal_cdf(p);
    const double cdf = 0.5 * std::erfc(-x / std::sqrt(2.0));
    EXPECT_NEAR(cdf, p, 1e-8) << p;
  }
}

TEST(LatinHypercube, VarianceReductionVsPlainSampling) {
  // The mean of a monotone function is estimated with lower spread by LHS.
  const std::vector<VariationSource> unit{
      {VariationSource::Kind::kUniform, 0.5, 0.5}};  // U(0, 1)
  const auto square = per_sample([](const Vector& w) { return w[0] * w[0]; });
  auto spread_of = [&](bool lhs) {
    std::vector<double> means;
    for (unsigned seed = 0; seed < 30; ++seed) {
      RunOptions opt;
      opt.samples = 20;
      opt.seed = seed;
      opt.latin_hypercube = lhs;
      means.push_back(Runner(opt).run_monte_carlo(square, unit).stats.mean());
    }
    return summarize(means).stddev();
  };
  EXPECT_LT(spread_of(true), 0.5 * spread_of(false));
}

TEST(OnlineStats, MatchesClosedForm) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Histogram, BinsAndRender) {
  Histogram h(0.0, 10.0, 5);
  for (double x : {0.5, 1.0, 3.0, 3.5, 9.9, -1.0, 11.0}) h.add(x);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_EQ(h.bin_count(0), 3u);  // 0.5, 1.0, clamped -1.0
  EXPECT_EQ(h.bin_count(1), 2u);
  EXPECT_EQ(h.bin_count(4), 2u);  // 9.9, clamped 11.0
  EXPECT_NEAR(h.bin_center(0), 1.0, 1e-12);
  const std::string r = h.render(10);
  EXPECT_NE(r.find('#'), std::string::npos);
}

TEST(Pca, RecoversAxisAlignedStructure) {
  Vector sigmas{3.0, 1.0, 0.1};
  Matrix cov = equicorrelated_covariance(sigmas, 0.0);
  Pca pca(cov, Vector{1.0, 2.0, 3.0});
  EXPECT_NEAR(pca.variances()[0], 9.0, 1e-9);
  EXPECT_NEAR(pca.variances()[1], 1.0, 1e-9);
  EXPECT_NEAR(pca.variances()[2], 0.01, 1e-9);
  // 9/(10.01) = 0.899 -> one factor covers 89%, two cover 99.9%.
  EXPECT_EQ(pca.factors_for(0.89), 1u);
  EXPECT_EQ(pca.factors_for(0.999), 2u);
}

TEST(Pca, RoundTripAndDimensionalityReduction) {
  Vector sigmas{1.0, 1.0, 1.0, 1.0};
  Matrix cov = equicorrelated_covariance(sigmas, 0.9);
  Pca pca(cov, Vector(4, 0.0));
  // Strong common factor: first eigenvalue 1+3*0.9 = 3.7 of total 4.
  EXPECT_NEAR(pca.variances()[0], 3.7, 1e-9);
  EXPECT_EQ(pca.factors_for(0.9), 1u);

  // Round trip through full factor space.
  Vector x{0.3, -0.2, 0.5, 0.1};
  Vector z = pca.to_factors(x);
  Vector back = pca.from_factors(z);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(back[i], x[i], 1e-9);
}

TEST(Pca, ReverseTransformReproducesCovariance) {
  Vector sigmas{2.0, 1.0};
  Matrix cov = equicorrelated_covariance(sigmas, 0.5);
  Pca pca(cov, Vector(2, 0.0));
  OnlineStats s00, s01, s11;
  for (int k = 0; k < 20000; ++k) {
    SplitMix64 draw = sample_stream(5, static_cast<std::uint64_t>(k));
    Vector z{inverse_normal_cdf(draw.uniform_open()),
             inverse_normal_cdf(draw.uniform_open())};
    Vector x = pca.from_factors(z);
    s00.add(x[0] * x[0]);
    s01.add(x[0] * x[1]);
    s11.add(x[1] * x[1]);
  }
  EXPECT_NEAR(s00.mean(), 4.0, 0.15);
  EXPECT_NEAR(s01.mean(), 1.0, 0.1);
  EXPECT_NEAR(s11.mean(), 1.0, 0.05);
}

TEST(MonteCarlo, LinearFunctionStatistics) {
  // f(w) = 10 + 2 w0 + 3 w1, w ~ N(0,1): mean 10, sigma sqrt(13).
  std::vector<VariationSource> src(2);
  auto f = [](const Vector& w) { return 10.0 + 2 * w[0] + 3 * w[1]; };
  RunOptions opt;
  opt.samples = 2000;
  auto res = Runner(opt).run_monte_carlo(per_sample(f), src);
  EXPECT_EQ(res.values.size(), 2000u);
  EXPECT_NEAR(res.stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(res.stats.stddev(), std::sqrt(13.0), 0.15);
}

TEST(MonteCarlo, UniformSourcesAndReproducibility) {
  std::vector<VariationSource> src(1);
  src[0].kind = VariationSource::Kind::kUniform;
  src[0].sigma = 0.5;  // U(-0.5, 0.5)
  auto f = [](const Vector& w) { return w[0]; };
  RunOptions opt;
  opt.samples = 500;
  opt.seed = 99;
  auto r1 = Runner(opt).run_monte_carlo(per_sample(f), src);
  auto r2 = Runner(opt).run_monte_carlo(per_sample(f), src);
  EXPECT_EQ(r1.values, r2.values);
  EXPECT_NEAR(r1.stats.mean(), 0.0, 0.02);
  // Uniform(-a,a) sigma = a/sqrt(3).
  EXPECT_NEAR(r1.stats.stddev(), 0.5 / std::sqrt(3.0), 0.02);
  EXPECT_GE(r1.stats.min(), -0.5);
  EXPECT_LE(r1.stats.max(), 0.5);
}

TEST(SplitMix64, StreamsAreReproducibleAndDistinct) {
  SplitMix64 a = sample_stream(42, 7);
  SplitMix64 b = sample_stream(42, 7);
  for (int k = 0; k < 16; ++k) EXPECT_EQ(a.next(), b.next());
  SplitMix64 c = sample_stream(42, 8);
  SplitMix64 d = sample_stream(43, 7);
  SplitMix64 e = sample_stream(42, 7, 1);  // distinct tag
  SplitMix64 base = sample_stream(42, 7);
  EXPECT_NE(base.next(), c.next());
  EXPECT_NE(sample_stream(42, 7).next(), d.next());
  EXPECT_NE(sample_stream(42, 7).next(), e.next());
}

TEST(SplitMix64, UniformOpenStaysInsideUnitInterval) {
  SplitMix64 s(123);
  for (int k = 0; k < 100000; ++k) {
    const double u = s.uniform_open();
    ASSERT_GT(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
  // Values near the interval edges must still survive the normal inverse.
  EXPECT_NO_THROW(inverse_normal_cdf(0.5 * 0x1.0p-53));
}

TEST(SplitMix64, StreamPermutationIsBijective) {
  SplitMix64 s = sample_stream(9, 0);
  auto p = stream_permutation(50, s);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.rbegin(), 49u);
  SplitMix64 s2 = sample_stream(9, 0);
  EXPECT_EQ(p, stream_permutation(50, s2));
}

TEST(MonteCarlo, BitwiseIdenticalAcrossThreadCounts) {
  std::vector<VariationSource> src(3);
  src[1].kind = VariationSource::Kind::kUniform;
  src[1].sigma = 0.4;
  auto f = [](const Vector& w) { return w[0] + 2.0 * w[1] - w[2]; };

  for (bool lhs : {false, true}) {
    RunOptions opt;
    opt.samples = 333;  // not a multiple of any thread count
    opt.seed = 5;
    opt.latin_hypercube = lhs;

    opt.exec.threads = 1;
    const auto serial = Runner(opt).run_monte_carlo(per_sample(f), src);
    for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      opt.exec.threads = threads;
      const auto par = Runner(opt).run_monte_carlo(per_sample(f), src);
      // Element-wise bitwise equality: values AND the sampled w vectors.
      EXPECT_EQ(serial.values, par.values) << "lhs=" << lhs;
      ASSERT_EQ(serial.samples.size(), par.samples.size());
      for (std::size_t s = 0; s < serial.samples.size(); ++s) {
        EXPECT_EQ(serial.samples[s], par.samples[s]) << "lhs=" << lhs;
      }
      // Stats accumulate in sample order, so they match bitwise too.
      EXPECT_EQ(serial.stats.mean(), par.stats.mean());
      EXPECT_EQ(serial.stats.stddev(), par.stats.stddev());
    }
  }
}

TEST(MonteCarlo, LatinHypercubeStillStratifiesInParallel) {
  // The identity map exposes the underlying variates: with n samples and
  // U(0,1)-shaped uniform sources, LHS puts exactly one sample per
  // stratum in every dimension, whatever the thread count.
  std::vector<VariationSource> src(2);
  for (auto& s : src) {
    s.kind = VariationSource::Kind::kUniform;
    s.mean = 0.5;
    s.sigma = 0.5;  // maps the (0,1) variate to itself
  }
  RunOptions opt;
  opt.samples = 40;
  opt.seed = 17;
  opt.exec.threads = 8;
  auto id0 = [](const Vector& w) { return w[0]; };
  const auto res = Runner(opt).run_monte_carlo(per_sample(id0), src);
  for (std::size_t d = 0; d < 2; ++d) {
    std::vector<bool> stratum(opt.samples, false);
    for (const auto& w : res.samples) {
      ASSERT_GT(w[d], 0.0);
      ASSERT_LT(w[d], 1.0);
      stratum[static_cast<std::size_t>(w[d] * double(opt.samples))] = true;
    }
    for (std::size_t k = 0; k < opt.samples; ++k) EXPECT_TRUE(stratum[k]);
  }
}

TEST(MonteCarlo, SingleSampleLatinHypercubeIsWellDefined) {
  // samples == 1 with stratification: the lone stratum is the whole unit
  // interval, so this must behave like one plain draw, not throw.
  std::vector<VariationSource> src(2);
  RunOptions opt;
  opt.samples = 1;
  opt.latin_hypercube = true;
  auto f = [](const Vector& w) { return w[0] + w[1]; };
  const auto res = Runner(opt).run_monte_carlo(per_sample(f), src);
  EXPECT_EQ(res.values.size(), 1u);
  EXPECT_TRUE(std::isfinite(res.values[0]));

  // ...and it equals the plain draw from the same per-sample stream.
  opt.latin_hypercube = false;
  const auto plain = Runner(opt).run_monte_carlo(per_sample(f), src);
  EXPECT_EQ(res.values, plain.values);
}

TEST(MonteCarlo, ErrorsNameTheOffendingOption) {
  auto f = [](const Vector&) { return 0.0; };
  RunOptions opt;
  try {
    Runner(opt).run_monte_carlo(per_sample(f), {});
    FAIL() << "expected SimulationError(kInvalidInput)";
  } catch (const sim::SimulationError& e) {
    EXPECT_EQ(e.kind(), sim::FailureKind::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("sources"), std::string::npos)
        << e.what();
  }
  std::vector<VariationSource> src(1);
  opt.samples = 0;
  try {
    Runner(opt).run_monte_carlo(per_sample(f), src);
    FAIL() << "expected SimulationError(kInvalidInput)";
  } catch (const sim::SimulationError& e) {
    EXPECT_NE(std::string(e.what()).find("samples"), std::string::npos)
        << e.what();
  }
}

TEST(MonteCarlo, WorkerExceptionPropagates) {
  std::vector<VariationSource> src(1);
  RunOptions opt;
  opt.samples = 64;
  opt.exec.threads = 4;
  auto f = [](const Vector& w) {
    if (w[0] > -10.0) throw std::runtime_error("engine diverged");
    return 0.0;
  };
  EXPECT_THROW(Runner(opt).run_monte_carlo(per_sample(f), src),
               std::runtime_error);
}

TEST(GradientAnalysis, ThreadCountInvariant) {
  std::vector<VariationSource> src(6);
  for (std::size_t d = 0; d < src.size(); ++d) {
    src[d].sigma = 0.1 + 0.05 * static_cast<double>(d);
  }
  auto f = [](const Vector& w) {
    double acc = 1.0;
    for (std::size_t d = 0; d < w.size(); ++d) {
      acc += std::sin(w[d]) * static_cast<double>(d + 1);
    }
    return acc;
  };
  RunOptions opt;
  opt.exec.threads = 1;
  const auto serial = Runner(opt).run_gradients(per_sample(f), src);
  opt.exec.threads = 8;
  const auto par = Runner(opt).run_gradients(per_sample(f), src);
  EXPECT_EQ(serial.nominal, par.nominal);
  EXPECT_EQ(serial.stddev, par.stddev);
  EXPECT_EQ(serial.evaluations, par.evaluations);
  for (std::size_t d = 0; d < src.size(); ++d) {
    EXPECT_EQ(serial.gradient[d], par.gradient[d]);
  }
}

TEST(GradientAnalysis, ExactOnLinearFunctions) {
  std::vector<VariationSource> src(3);
  src[0].sigma = 1.0;
  src[1].sigma = 2.0;
  src[2].sigma = 0.5;
  auto f = [](const Vector& w) { return 5.0 + w[0] - 4 * w[1] + 2 * w[2]; };
  auto res = Runner().run_gradients(per_sample(f), src);
  EXPECT_DOUBLE_EQ(res.nominal, 5.0);
  EXPECT_NEAR(res.gradient[0], 1.0, 1e-9);
  EXPECT_NEAR(res.gradient[1], -4.0, 1e-9);
  EXPECT_NEAR(res.gradient[2], 2.0, 1e-9);
  // Eq. 24: sqrt(1 + 64 + 1) = sqrt(66).
  EXPECT_NEAR(res.stddev, std::sqrt(66.0), 1e-9);
  EXPECT_EQ(res.evaluations, 7u);
}

TEST(GradientAnalysis, AgreesWithMonteCarloOnMildNonlinearity) {
  std::vector<VariationSource> src(2);
  src[0].sigma = 0.1;
  src[1].sigma = 0.1;
  auto f = [](const Vector& w) {
    return std::exp(0.5 * w[0]) + 2.0 * w[1] + 0.1 * w[0] * w[1];
  };
  auto ga = Runner().run_gradients(per_sample(f), src);
  RunOptions opt;
  opt.samples = 4000;
  auto mc = Runner(opt).run_monte_carlo(per_sample(f), src);
  EXPECT_NEAR(ga.stddev, mc.stats.stddev(), 0.01);
}

TEST(GradientAnalysis, UniformSourceVariance) {
  std::vector<VariationSource> src(1);
  src[0].kind = VariationSource::Kind::kUniform;
  src[0].sigma = 0.3;
  auto f = [](const Vector& w) { return 7.0 * w[0]; };
  auto res = Runner().run_gradients(per_sample(f), src);
  EXPECT_NEAR(res.stddev, 7.0 * 0.3 / std::sqrt(3.0), 1e-9);
}

}  // namespace
}  // namespace lcsf::stats
