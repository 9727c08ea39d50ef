// Tests for the importance-sampled yield estimator (stats/importance.hpp
// + Runner::run_yield_is): thread-count invariance, agreement with plain
// Monte Carlo, the zero-shift degenerate identity, fail-soft parity and
// the control-variate path. The toy problems are linear or mildly
// nonlinear functions of a few sources, so exact tail probabilities are
// known in closed form.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "numeric/fp_compare.hpp"
#include "obs/registry.hpp"
#include "sim/diagnostics.hpp"
#include "stats/importance.hpp"
#include "stats/runner.hpp"
#include "stats/yield.hpp"

namespace lcsf::stats {
namespace {

using numeric::Vector;

/// Linear toy delay: D = 100 + sum_d w_d over n standard-normal sources,
/// so D ~ N(100, sqrt(n)) and P(D > T) = Phi(-(T - 100)/sqrt(n)) exactly.
std::vector<VariationSource> normal_sources(std::size_t n) {
  std::vector<VariationSource> src(n);
  for (auto& s : src) {
    s.kind = VariationSource::Kind::kNormal;
    s.mean = 0.0;
    s.sigma = 1.0;
  }
  return src;
}

double linear_delay(const Vector& w) {
  double d = 100.0;
  for (const double x : w) d += x;
  return d;
}

RunOptions base_options(std::size_t samples, std::size_t threads = 1) {
  RunOptions opt;
  opt.samples = samples;
  opt.seed = 7;
  opt.exec.threads = threads;
  return opt;
}

TEST(YieldIs, BitwiseThreadInvariance) {
  const auto src = normal_sources(4);
  const double T = 106.0;  // 3-sigma tail: P_f ~ 1.35e-3
  IsYieldEstimate ref;
  for (std::size_t variant = 0; variant < 2; ++variant) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      RunOptions opt = base_options(400, threads);
      opt.importance.pilot_samples = variant == 1 ? 100 : 0;
      opt.importance.control_variate = variant == 1;
      const auto est = Runner(opt).run_yield_is(
          per_sample(linear_delay), src, T);
      if (threads == 1) {
        ref = est;
        continue;
      }
      // Bitwise: the estimate, every weight and every value.
      EXPECT_EQ(ref.yield_loss, est.yield_loss) << threads;
      EXPECT_EQ(ref.std_error, est.std_error) << threads;
      EXPECT_EQ(ref.ess, est.ess) << threads;
      EXPECT_EQ(ref.control_coefficient, est.control_coefficient) << threads;
      ASSERT_EQ(ref.values.size(), est.values.size());
      for (std::size_t i = 0; i < ref.values.size(); ++i) {
        EXPECT_EQ(ref.values[i], est.values[i]) << i;
        EXPECT_EQ(ref.weights[i], est.weights[i]) << i;
      }
      for (std::size_t d = 0; d < src.size(); ++d) {
        EXPECT_EQ(ref.surrogate.shift[d], est.surrogate.shift[d]) << d;
      }
    }
  }
}

TEST(YieldIs, ObsCountersMergeDeterministically) {
  const auto src = normal_sources(4);
  auto run = [&](std::size_t threads) {
    obs::Registry reg;
    RunOptions opt = base_options(300, threads);
    opt.importance.pilot_samples = 60;
    opt.registry = &reg;
    (void)Runner(opt).run_yield_is(
        per_sample(linear_delay), src, 106.0);
    return reg.to_json(false);  // excludes wall-clock metrics
  };
  const std::string serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
  EXPECT_NE(serial.find("stats.yield_is.samples"), std::string::npos);
  EXPECT_NE(serial.find("stats.yield_is.likelihood_ratio"),
            std::string::npos);
  EXPECT_NE(serial.find("stats.yield_is.ess"), std::string::npos);
}

TEST(YieldIs, AgreesWithExactTailAndBeatsMcVariance) {
  const std::size_t n = 4;
  const auto src = normal_sources(n);
  const double T = 106.0;
  const double exact = normal_cdf(-(T - 100.0) / std::sqrt(4.0));
  RunOptions opt = base_options(2000);
  const auto est = Runner(opt).run_yield_is(
      per_sample(linear_delay), src, T);
  // Within 4 standard errors of the exact tail probability.
  EXPECT_GT(est.std_error, 0.0);
  EXPECT_NEAR(est.yield_loss, exact, 4.0 * est.std_error);
  EXPECT_NEAR(est.yield, 1.0 - exact, 4.0 * est.std_error);
  // The same budget of plain MC has SE sqrt(p(1-p)/n) -- IS must beat it
  // by a wide margin on a 3-sigma tail.
  const double mc_se = std::sqrt(exact * (1.0 - exact) / 2000.0);
  EXPECT_LT(est.std_error, mc_se / 2.0);
  // ESS is reported and sane.
  EXPECT_GT(est.ess, 0.0);
  EXPECT_LE(est.ess, 2000.0);
  // The surrogate of a linear f is exact: beta matches the true margin.
  EXPECT_NEAR(est.surrogate.beta, 3.0, 1e-6);
  // Every weight is the exponential tilt exp(|theta|^2/2 - theta . u):
  // the shift is equal in every dimension, and sum_d u_d = D - 100.
  const double th = est.surrogate.shift[0];
  for (std::size_t d = 1; d < n; ++d) EXPECT_EQ(est.surrogate.shift[d], th);
  ASSERT_EQ(est.weights.size(), est.values.size());
  for (std::size_t i = 0; i < est.values.size(); ++i) {
    const double tilt = std::exp(0.5 * static_cast<double>(n) * th * th -
                                 th * (est.values[i] - 100.0));
    EXPECT_NEAR(est.weights[i] / tilt, 1.0, 1e-9) << i;
  }
}

TEST(YieldIs, NegativeMarginDegeneratesToPlainMc) {
  // Nominal already fails the clock: margin <= 0, no shift is derived,
  // and the proposal is the original distribution.
  const auto src = normal_sources(3);
  const auto est = Runner(base_options(300)).run_yield_is(
      per_sample(linear_delay), src, 90.0);
  ASSERT_EQ(est.weights.size(), 300u);
  for (const double w : est.weights) {
    EXPECT_EQ(w, 1.0);  // exactly, not approximately
  }
  EXPECT_EQ(est.ess, static_cast<double>(est.values.size()));
  EXPECT_NEAR(est.yield_loss, 1.0, 0.05);  // essentially always failing
}

TEST(YieldIs, PilotRefinementStaysUnbiased) {
  const auto src = normal_sources(4);
  const double T = 106.0;
  const double exact = normal_cdf(-3.0);
  RunOptions opt = base_options(2000);
  opt.importance.pilot_samples = 300;
  const auto est = Runner(opt).run_yield_is(
      per_sample(linear_delay), src, T);
  EXPECT_EQ(est.pilot_used, 300u);
  EXPECT_NEAR(est.yield_loss, exact, 4.0 * est.std_error);
}

TEST(YieldIs, ControlVariateReducesVarianceOnMildNonlinearity) {
  const auto src = normal_sources(4);
  const double T = 106.0;
  // Mild quadratic bend so the surrogate is good but not exact and the
  // CV has genuine residual noise to cancel.
  auto f = [](const Vector& w) {
    double d = linear_delay(w);
    for (const double x : w) d += 0.02 * x * x;
    return d;
  };
  RunOptions opt = base_options(2000);
  const auto plain = Runner(opt).run_yield_is(per_sample(f), src, T);
  opt.importance.control_variate = true;
  const auto cv = Runner(opt).run_yield_is(per_sample(f), src, T);
  EXPECT_TRUE(cv.control_variate_used);
  EXPECT_NEAR(cv.control_expectation, normal_cdf(-cv.surrogate.beta),
              1e-12);
  EXPECT_LT(cv.std_error, plain.std_error);
  // Both stay within each other's combined confidence band.
  EXPECT_NEAR(cv.yield_loss, plain.yield_loss,
              4.0 * (cv.std_error + plain.std_error));
}

TEST(YieldIs, ControlVariateRejectsUniformSources) {
  auto src = normal_sources(2);
  src[1].kind = VariationSource::Kind::kUniform;
  RunOptions opt = base_options(100);
  opt.importance.control_variate = true;
  try {
    (void)Runner(opt).run_yield_is(
        per_sample(linear_delay), src, 103.0);
    FAIL() << "expected kInvalidInput";
  } catch (const sim::SimulationError& e) {
    EXPECT_EQ(e.kind(), sim::FailureKind::kInvalidInput);
  }
}

TEST(YieldIs, UniformSourcesAreNeverShifted) {
  auto src = normal_sources(3);
  src[2].kind = VariationSource::Kind::kUniform;
  const auto est = Runner(base_options(500)).run_yield_is(
      per_sample(linear_delay), src, 104.0);
  EXPECT_EQ(est.surrogate.shift[2], 0.0);
  EXPECT_GT(std::abs(est.surrogate.shift[0]), 0.0);
}

TEST(YieldIs, FailSoftSkipsMatchMcDiscipline) {
  // A sample whose first coordinate exceeds 2 diverges; under kSkip both
  // engines must classify and exclude it, never die.
  const auto src = normal_sources(3);
  auto f = [](const Vector& w) {
    if (w[0] > 2.0) {
      throw sim::SimulationError(sim::FailureKind::kBlowUp, "toy blow-up");
    }
    return linear_delay(w);
  };
  RunOptions opt = base_options(400, 4);
  opt.exec.on_failure = FailurePolicy::kSkip;
  // A clock below the nominal delay degenerates the shift, so IS samples
  // the nominal distribution.
  const double T = 90.0;
  const auto is = Runner(opt).run_yield_is(per_sample(f), src, T);
  const auto mc = Runner(opt).run_monte_carlo(per_sample(f), src);
  // Identical zero-shift streams would diverge identically -- but the IS
  // engine draws from its own stream family, so compare the *policy*:
  // attempted bookkeeping, classified kinds, and survivor counts add up.
  EXPECT_EQ(is.failures.attempted, 400u);
  EXPECT_GT(is.failures.failed(), 0u);
  EXPECT_GT(mc.failures.failed(), 0u);
  EXPECT_EQ(is.failures.failed() + is.failures.survived, 400u);
  for (const auto& rec : is.failures.failures) {
    EXPECT_EQ(rec.kind, sim::FailureKind::kBlowUp);
  }
  EXPECT_EQ(is.values.size(), is.failures.survived);
  // Thread invariance holds for the failure set too.
  opt.exec.threads = 1;
  const auto serial = Runner(opt).run_yield_is(per_sample(f), src, T);
  ASSERT_EQ(serial.failures.failures.size(), is.failures.failures.size());
  for (std::size_t i = 0; i < serial.failures.failures.size(); ++i) {
    EXPECT_EQ(serial.failures.failures[i].index,
              is.failures.failures[i].index);
  }
  EXPECT_EQ(serial.yield_loss, is.yield_loss);
}

TEST(YieldIs, AllSamplesFailedConvention) {
  const auto src = normal_sources(2);
  auto f = [](const Vector&) -> double {
    throw sim::SimulationError(sim::FailureKind::kBlowUp, "always");
  };
  RunOptions opt = base_options(50);
  opt.exec.on_failure = FailurePolicy::kSkip;
  // run_gradients' probes are fail-soft under kSkip; an always-throwing
  // f still rethrows out of the nominal evaluation.
  EXPECT_THROW((void)Runner(opt).run_yield_is(per_sample(f), src, 1.0),
               sim::SimulationError);

  // An f that evaluates only at the origin: the nominal succeeds, every
  // probe fails (so the shift degenerates), and every main sample fails.
  // A sample that diverges cannot meet timing, as in McYieldEstimate.
  auto origin_only = [](const Vector& w) -> double {
    if (numeric::exact_zero(w[0]) && numeric::exact_zero(w[1])) {
      return 100.0;
    }
    throw sim::SimulationError(sim::FailureKind::kBlowUp, "off origin");
  };
  const auto est =
      Runner(opt).run_yield_is(per_sample(origin_only), src, 104.0);
  EXPECT_EQ(est.yield, 0.0);
  EXPECT_EQ(est.yield_loss, 1.0);
  EXPECT_EQ(est.std_error, 0.0);
  EXPECT_TRUE(est.values.empty());
  EXPECT_TRUE(est.weights.empty());
  EXPECT_EQ(est.failures.failed(), opt.samples);
  EXPECT_EQ(est.failures.survived, 0u);
}

TEST(YieldIs, InvalidInputsThrow) {
  const auto src = normal_sources(2);
  auto f = per_sample(linear_delay);
  {
    RunOptions opt = base_options(0);
    EXPECT_THROW((void)Runner(opt).run_yield_is(f, src, 1.0),
                 sim::SimulationError);
  }
  {
    RunOptions opt = base_options(10);
    EXPECT_THROW((void)Runner(opt).run_yield_is(f, {}, 1.0),
                 sim::SimulationError);
  }
}

}  // namespace
}  // namespace lcsf::stats
