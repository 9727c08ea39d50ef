// Extension bench: timing yield and worst-case-corner pessimism.
//
// The paper's introduction motivates the statistical framework by arguing
// that worst-case corner methods "create overly pessimistic results and
// sub-optimal designs", and Sec. 4 frames the goal as predicting "the
// timing yield of the critical path delay". This bench quantifies both on
// the s208 longest path: yield-vs-clock-period curves from the MC sample
// and from the GA Gaussian, and the pessimism of the +/-3-sigma corner
// relative to the statistical 99.87% (3-sigma) quantile.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/path.hpp"
#include "runtime/thread_pool.hpp"
#include "stats/yield.hpp"

using namespace lcsf;

int main() {
  bench::print_header("Extension: timing yield & corner pessimism");
  const bool quick = bench::quick_mode();
  const std::size_t threads = runtime::ThreadPool::default_threads();

  const auto& bspec = timing::find_benchmark("s208");
  const auto nl = timing::generate_benchmark(bspec);
  const auto path = timing::longest_path(nl);
  core::PathSpec spec = core::PathSpec::from_benchmark(
      circuit::technology_180nm(), nl, path, 10);
  spec.stage_window = 1.0e-9;
  core::PathAnalyzer analyzer(spec);

  core::PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;

  stats::RunOptions opt;
  opt.samples = quick ? 30 : 200;
  opt.seed = 88;

  // Parallel MC run plus a serial rerun: the engine's determinism
  // contract says they agree bitwise; the timing ratio is this host's
  // threading speed-up for the yield sweep.
  opt.exec.threads = threads;
  bench::Stopwatch mt_sw;
  const auto mc = analyzer.monte_carlo(model, opt);
  const double mt_time = mt_sw.seconds();
  opt.exec.threads = 1;
  bench::Stopwatch serial_sw;
  const auto mc_serial = analyzer.monte_carlo(model, opt);
  const double serial_time = serial_sw.seconds();
  const bool identical = mc.values == mc_serial.values;
  const auto ga = analyzer.gradient_analysis(model);

  std::printf("\n%s longest path (%zu stages), %zu MC samples\n",
              bspec.name.c_str(), analyzer.num_stages(), mc.values.size());
  std::printf("MC mean %.2f ps std %.2f | GA mean %.2f ps std %.2f\n",
              mc.stats.mean() * 1e12, mc.stats.stddev() * 1e12,
              ga.nominal_delay * 1e12, ga.stddev * 1e12);
  std::printf("%zu threads: %.2f s vs %.2f s serial (%.2fx), values %s\n\n",
              threads, mt_time, serial_time, serial_time / mt_time,
              identical ? "bitwise identical" : "DIFFER");

  std::printf("%-18s %-14s %-14s\n", "clock period [ps]", "MC yield",
              "GA yield");
  const double lo = mc.stats.mean() - 2.5 * mc.stats.stddev();
  const double hi = mc.stats.mean() + 3.5 * mc.stats.stddev();
  std::vector<double> periods;
  for (int k = 0; k <= 6; ++k) periods.push_back(lo + (hi - lo) * k / 6.0);
  const auto mc_yield = stats::empirical_yield_curve(mc.values, periods);
  for (std::size_t k = 0; k < periods.size(); ++k) {
    std::printf("%-18.2f %-14.4f %-14.4f\n", periods[k] * 1e12, mc_yield[k],
                stats::gaussian_yield(ga.nominal_delay, ga.stddev,
                                      periods[k]));
  }

  const double q3s = stats::gaussian_period_for_yield(
      ga.nominal_delay, ga.stddev, 0.99865);
  const auto corner = analyzer.worst_case_corner(model, ga, 3.0);
  std::printf("\n3-sigma statistical quantile: %.2f ps\n", q3s * 1e12);
  std::printf("+/-3-sigma worst-case corner: %.2f ps\n",
              corner.delay * 1e12);
  std::printf("corner pessimism (margin ratio): %.2fx\n",
              stats::corner_pessimism(corner.delay, q3s,
                                      ga.nominal_delay));
  std::printf(
      "\nreading: the simultaneous all-corners delay overstates the margin\n"
      "needed for 3-sigma yield -- the pessimism the paper's statistical\n"
      "methodology removes.\n");
  return identical ? 0 : 1;
}
