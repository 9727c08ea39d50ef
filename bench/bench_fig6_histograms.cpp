// Reproduces Figure 6: "Delay histograms (Example 2)" -- 100 Latin
// Hypercube samples over the five global wire parameters (W, T, S, H, rho)
// with uniform distributions at the technology tolerances; the
// variational-ROM framework's delay distribution is compared against the
// full conventional simulation. The paper reports mean and standard
// deviation agreeing "in the order of numerical precision error".
//
// Both sweeps run through the parallel stats::Runner engine; the
// framework sweep is additionally run serially to demonstrate the
// determinism contract (bitwise-equal values) and report the threading
// speed-up on this host.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "runtime/thread_pool.hpp"
#include "example2_stage.hpp"
#include "stats/descriptive.hpp"
#include "stats/runner.hpp"

using namespace lcsf;
using numeric::Vector;

int main() {
  bench::print_header("Figure 6: Example 2 delay histograms");
  const bool quick = bench::quick_mode();
  const std::size_t samples = quick ? 20 : 100;
  const double length = 100e-6;

  bench::Example2Stage stage(circuit::technology_180nm(), length);
  const std::size_t threads = runtime::ThreadPool::default_threads();
  std::printf("\nwirelength %.0f um, %zu linear elements, %zu LHS samples, "
              "%zu threads\n",
              length * 1e6, stage.linear_elements(), samples, threads);

  bench::Stopwatch char_sw;
  const auto rom = stage.characterize();
  std::printf("variational library characterized in %.2f s\n\n",
              char_sw.seconds());

  // Latin Hypercube over 5 parameters; uniform in [-1, 1] tolerance units
  // ("uniform distributions with tolerances specified in [14]").
  std::vector<stats::VariationSource> sources(5);
  for (auto& s : sources) {
    s.kind = stats::VariationSource::Kind::kUniform;
    s.sigma = 1.0;  // half-width: the +-1 tolerance box
  }
  stats::RunOptions mco;
  mco.samples = samples;
  mco.seed = 1402;
  mco.latin_hypercube = true;

  const auto fw_fn = stats::per_sample(
      [&](const Vector& w) { return stage.framework_delay(rom, w); });
  const auto sp_fn =
      stats::per_sample([&](const Vector& w) { return stage.spice_delay(w); });

  bench::Stopwatch fw_sw;
  mco.exec.threads = 0;  // auto
  const auto fw_mc = stats::Runner(mco).run_monte_carlo(fw_fn, sources);
  const double fw_time = fw_sw.seconds();

  bench::Stopwatch fw1_sw;
  mco.exec.threads = 1;  // serial reference
  const auto fw_serial = stats::Runner(mco).run_monte_carlo(fw_fn, sources);
  const double fw1_time = fw1_sw.seconds();
  const bool identical = fw_mc.values == fw_serial.values;

  bench::Stopwatch sp_sw;
  mco.exec.threads = 0;
  const auto sp_mc = stats::Runner(mco).run_monte_carlo(sp_fn, sources);
  const double sp_time = sp_sw.seconds();

  const auto& fw_stats = fw_mc.stats;
  const auto& sp_stats = sp_mc.stats;
  std::printf("%-22s %-14s %-14s\n", "", "framework", "full simulation");
  std::printf("%-22s %-14.2f %-14.2f\n", "mean [ps]",
              fw_stats.mean() * 1e12, sp_stats.mean() * 1e12);
  std::printf("%-22s %-14.2f %-14.2f\n", "std [ps]",
              fw_stats.stddev() * 1e12, sp_stats.stddev() * 1e12);
  std::printf("%-22s %-14.2f %-14.2f\n", "analysis time [s]", fw_time,
              sp_time);
  std::printf("mean error %.3f%%, std error %.2f%%\n",
              100.0 * (fw_stats.mean() - sp_stats.mean()) / sp_stats.mean(),
              100.0 * (fw_stats.stddev() - sp_stats.stddev()) /
                  sp_stats.stddev());
  std::printf("threading: %zu-thread run %s serial (%.2f s vs %.2f s, "
              "%.2fx)\n\n",
              threads, identical ? "bitwise-equals" : "DIFFERS FROM",
              fw_time, fw1_time, fw1_time / fw_time);

  std::printf("framework delay histogram:\n%s\n",
              stats::Histogram::from_data(fw_mc.values, 10)
                  .render(40)
                  .c_str());
  std::printf("full-simulation delay histogram:\n%s",
              stats::Histogram::from_data(sp_mc.values, 10)
                  .render(40)
                  .c_str());
  return identical ? 0 : 1;
}
