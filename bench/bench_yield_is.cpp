// Importance-sampled yield estimator vs brute-force Monte Carlo on a
// known-tail toy problem (docs/yield_estimation.md).
//
// The performance function is a mildly nonlinear delay over 8 normal
// sources -- linear ramp plus a small quadratic bend, so the linear
// surrogate that steers the proposal is good but not exact (the honest
// regime for the estimator). The clock period is placed ~3 sigma out,
// where plain MC needs ~10^5 samples to resolve the failure rate and the
// IS run spends a few thousand.
//
// Three estimators run on the same problem:
//   mc     : brute-force Monte Carlo at a large reference budget. Its
//            estimate and 95% CI are the ground truth the IS runs must
//            agree with.
//   is     : Runner::run_yield_is with the analytic boundary shift.
//   is-cv  : the same plus the linear-surrogate control variate.
//
// The headline metric is ess_speedup: how many plain-MC samples one IS
// sample is worth at matched estimator variance, p(1-p)/SE_is^2 / n_is.
// The ci.sh bench-quick stage gates ess_speedup >= 5 and
// is_within_mc_ci == 1 on the committed BENCH_yield_is.json.
//
// Usage: bench_yield_is [output.json]   (default BENCH_yield_is.json)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "numeric/fp_compare.hpp"
#include "stats/importance.hpp"
#include "stats/runner.hpp"
#include "stats/yield.hpp"

namespace {

using namespace lcsf;
using numeric::Vector;

constexpr std::size_t kDims = 8;

/// Mildly nonlinear toy delay (picoseconds): the quadratic term keeps the
/// linear surrogate honest without moving the tail far from Gaussian.
double toy_delay(const Vector& w) {
  double d = 100.0;
  for (const double x : w) d += 1.5 * x + 0.03 * x * x;
  return d;
}

std::vector<stats::VariationSource> toy_sources() {
  std::vector<stats::VariationSource> src(kDims);
  for (auto& s : src) {
    s.kind = stats::VariationSource::Kind::kNormal;
    s.mean = 0.0;
    s.sigma = 1.0;
  }
  return src;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_yield_is.json";
  const bool quick = bench::quick_mode();
  bench::print_header("importance-sampled yield vs brute-force MC");

  const auto src = toy_sources();
  // ~3 sigma of the surrogate spread (1.5 * sqrt(8) ~ 4.24/sigma).
  const double T = 100.0 + 3.0 * 1.5 * std::sqrt(static_cast<double>(kDims));
  const std::size_t n_mc = quick ? 20000 : 400000;
  const std::size_t n_is = quick ? 1000 : 4000;

  const auto delay = stats::per_sample(toy_delay);
  stats::RunOptions mc_opt;
  mc_opt.samples = n_mc;
  mc_opt.seed = 404;
  mc_opt.exec.threads = 0;  // auto

  // ---- Brute-force reference.
  bench::Stopwatch mc_sw;
  const auto mc = stats::Runner(mc_opt).run_monte_carlo(delay, src);
  const double mc_time = mc_sw.seconds();
  std::size_t mc_fail = 0;
  for (const double v : mc.values) {
    if (v > T) ++mc_fail;
  }
  const double n_mc_d = static_cast<double>(n_mc);
  const double p_mc = static_cast<double>(mc_fail) / n_mc_d;
  const double se_mc = std::sqrt(p_mc * (1.0 - p_mc) / n_mc_d);

  // ---- Importance-sampled runs (identical budget, same seed base).
  stats::RunOptions is_opt = mc_opt;
  is_opt.samples = n_is;
  bench::Stopwatch is_sw;
  const auto is = stats::Runner(is_opt).run_yield_is(delay, src, T);
  const double is_time = is_sw.seconds();

  stats::RunOptions cv_opt = is_opt;
  cv_opt.importance.control_variate = true;
  const auto cv = stats::Runner(cv_opt).run_yield_is(delay, src, T);

  // Bitwise thread-invariance spot check (serial rerun of the IS leg).
  stats::RunOptions serial_opt = is_opt;
  serial_opt.exec.threads = 1;
  const auto is_serial =
      stats::Runner(serial_opt).run_yield_is(delay, src, T);
  const bool identical = is.weights == is_serial.weights &&
                         is.values == is_serial.values &&
                         numeric::exact_eq(is.yield_loss,
                                           is_serial.yield_loss);

  // MC samples worth one IS sample at matched variance.
  const double n_is_d = static_cast<double>(n_is);
  const double mc_equiv =
      is.yield_loss * (1.0 - is.yield_loss) /
      (is.std_error * is.std_error);
  const double ess_speedup = mc_equiv / n_is_d;
  const double cv_equiv =
      cv.yield_loss * (1.0 - cv.yield_loss) /
      (cv.std_error * cv.std_error);
  const double cv_speedup = cv_equiv / n_is_d;
  // 95% agreement band of the two independent estimators.
  const double band =
      1.96 * std::sqrt(se_mc * se_mc + is.std_error * is.std_error);
  const bool within = std::abs(is.yield_loss - p_mc) <= band;

  std::printf("clock period %.2f ps (surrogate beta %.2f)\n", T,
              is.surrogate.beta);
  std::printf("%-8s %-12s %-12s %-10s %-10s\n", "est", "yield loss",
              "std err", "samples", "speedup");
  std::printf("%-8s %-12.4e %-12.4e %-10zu %-10s\n", "mc", p_mc, se_mc,
              n_mc, "1.0x");
  std::printf("%-8s %-12.4e %-12.4e %-10zu %.1fx\n", "is",
              is.yield_loss, is.std_error, n_is, ess_speedup);
  std::printf("%-8s %-12.4e %-12.4e %-10zu %.1fx\n", "is-cv",
              cv.yield_loss, cv.std_error, n_is, cv_speedup);
  std::printf("IS ESS %.1f of %zu; |is - mc| = %.3e vs 95%% band %.3e "
              "(%s)\n",
              is.ess, n_is, std::abs(is.yield_loss - p_mc), band,
              within ? "within" : "OUTSIDE");
  std::printf("serial rerun %s\n",
              identical ? "bitwise identical" : "DIFFERS");

  const auto report = bench::json_object(
      {{"bench", "yield_is"},
       {"quick", quick},
       {"config", bench::json_object({{"dims", kDims},
                                      {"clock_period", T},
                                      {"mc_samples", n_mc},
                                      {"is_samples", n_is}})},
       {"metrics",
        bench::json_object({{"mc_yield_loss", p_mc},
                            {"is_yield_loss", is.yield_loss},
                            {"is_std_error", is.std_error},
                            {"cv_yield_loss", cv.yield_loss},
                            {"cv_std_error", cv.std_error},
                            {"ess", is.ess},
                            {"ess_speedup", ess_speedup},
                            {"cv_ess_speedup", cv_speedup},
                            {"is_within_mc_ci", std::size_t{within}},
                            {"mc_seconds", mc_time},
                            {"is_seconds", is_time}})},
       {"bitwise_identical", identical}});
  if (!bench::write_json(out_path, report)) return 1;
  return (identical && within) ? 0 : 1;
}
