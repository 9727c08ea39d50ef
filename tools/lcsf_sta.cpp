// lcsf_sta: statistical path-delay report for a benchmark circuit.
//
//   lcsf_sta --circuit s208 [--elements 10] [--samples 100] [--seed 1]
//            [--std-dl 0.33] [--std-vt 0.33] [--rho r] [--corner]
//            [--yield-target 0.9987] [--threads n] [--batch n]
//            [--yield-estimator mc|is|is-cv] [--clock-period t]
//            [--is-pilot n]
//            [--graph] [--top-k n]
//            [--on-failure abort|skip|retry]
//            [--metrics out.json] [--trace out.trace.json]
//            [--report-timing]
//
// The tool is a thin client of api::Session (docs/serving.md): the
// design loads once (netlist generation + variational stage-load
// pre-characterization) and every analysis below runs through the same
// facade the analysis server uses, so a server response over the same
// design and options carries bitwise-identical numbers.
//
// --graph switches from single-path to multi-path analysis
// (docs/timing_graph.md): the K most-critical latch-to-latch paths
// (--top-k, default 8) are carried simultaneously by core::GraphAnalyzer,
// stages shared between paths are simulated once per sample (memoized in
// the pooled workspace), and the per-sample metric is the statistical-max
// worst endpoint delay. The report adds per-endpoint delays, the stage
// reuse counters (also exported as stats.graph.* metrics), and the
// analytic SSTA endpoint forms composed from the compact per-block
// variational delay models: one api::Session::run_graph call, the one
// the server's graph request makes.
//
// --yield-estimator selects how the timing yield at --clock-period is
// estimated (docs/yield_estimation.md): mc reuses the Monte-Carlo sweep
// (default), is runs the importance-sampled estimator of
// stats::Runner::run_yield_is, is-cv additionally applies the
// linear-surrogate control variate. --clock-period is in seconds (>= 0)
// and its default 0 means the Gradient-Analysis period for
// --yield-target, so the IS run probes exactly the tail the report
// quotes. --is-pilot spends n
// pilot samples refining the proposal shift (cross-entropy update)
// before the main run.
//
// The last three flags enable the observability subsystem
// (docs/observability.md): --metrics writes the merged counters, value
// distributions and phase timers as JSON; --trace writes Chrome
// trace_event spans (load in about:tracing or Perfetto); --report-timing
// prints a human-readable phase-time tree to stderr.
//
// --threads (or the LCSF_THREADS environment variable) sets the worker
// count for the Monte-Carlo sweep; results are bitwise identical for any
// value (see docs/monte_carlo.md). 0 = auto-detect.
//
// --batch sets the lockstep sample-block width of the path's Monte-Carlo
// and importance-sampling runs (docs/performance.md; default 8, at most
// 64): samples run through the SoA TETA engine in blocks of n, the last
// block holding the remainder. Results are bitwise identical for every
// value; a value outside 1..64 exits 1 with usage.
//
// --on-failure picks the fail-soft policy (docs/robustness.md): abort
// rethrows the first divergent sample (default), skip records and
// excludes divergent samples, retry additionally grants each sample a
// 3-deep dt-halving budget before it may fail. With skip/retry a
// classified failure table is printed after the statistics.
//
// An unknown option or a malformed number (`--samples abc`,
// `--samples -1`, a --yield-target outside (0, 1)) is rejected with a
// diagnostic + usage and exit status 1; a malformed invocation (missing
// required values) exits 2.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "api/session.hpp"
#include "cli_number.hpp"
#include "obs_cli.hpp"
#include "stats/yield.hpp"

using namespace lcsf;

namespace {

void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: lcsf_sta --circuit <name> [--elements n] [--samples n]\n"
      "                [--seed n] [--std-dl s] [--std-vt s] [--rho r]\n"
      "                [--corner] [--yield-target y] [--threads n]\n"
      "                [--batch n]\n"
      "                [--yield-estimator mc|is|is-cv] [--clock-period t]\n"
      "                [--is-pilot n] [--graph] [--top-k n]\n"
      "                [--on-failure abort|skip|retry]\n"
      "                %s\n"
      "circuits: s27 s208 s832 s444 s1423 s1423d s9234\n",
      tools::ObsCli::usage_line());
}

[[noreturn]] void usage() {
  print_usage(stderr);
  std::exit(2);
}

[[noreturn]] void bad_option(const std::string& arg) {
  std::fprintf(stderr, "lcsf_sta: unknown option '%s'\n", arg.c_str());
  print_usage(stderr);
  std::exit(1);
}

[[noreturn]] void bad_value(const std::string& arg, const std::string& text) {
  std::fprintf(stderr, "lcsf_sta: invalid value '%s' for %s\n",
               text.c_str(), arg.c_str());
  print_usage(stderr);
  std::exit(1);
}

int classified_failure(const sim::SimulationError& e) {
  std::fprintf(stderr, "lcsf_sta: %s [%s]\n",
               e.diagnostics().message().c_str(),
               sim::failure_kind_name(e.kind()));
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string circuit_name;
  std::size_t elements = 10;
  std::size_t samples = 100;
  std::uint64_t seed = 1;
  double std_dl = 0.33;
  double std_vt = 0.33;
  double rho = -1.0;
  bool corner = false;
  double yield_target = 0.9987;
  std::size_t threads = 0;  // 0 = auto (LCSF_THREADS env / hardware)
  std::size_t batch = 0;    // 0 = stats::kDefaultBatch
  std::string on_failure = "abort";
  std::string yield_estimator = "mc";
  double clock_period = 0.0;  // 0 = GA period for --yield-target
  std::size_t is_pilot = 0;
  bool graph_mode = false;
  std::size_t top_k = 8;
  tools::ObsCli obs_cli;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) usage();
      return argv[i];
    };
    auto next_size =
        [&](std::size_t min = 0,
            std::size_t max = std::numeric_limits<std::size_t>::max()) {
      const std::string text = next();
      const auto v = tools::parse_unsigned(text, min, max);
      if (!v) bad_value(arg, text);
      return static_cast<std::size_t>(*v);
    };
    auto next_double =
        [&](double min = -std::numeric_limits<double>::infinity()) {
          const std::string text = next();
          const auto v = tools::parse_double(text);
          if (!v || *v < min) bad_value(arg, text);
          return *v;
        };
    if (arg == "--circuit") {
      circuit_name = next();
    } else if (arg == "--elements") {
      elements = next_size();
    } else if (arg == "--samples") {
      samples = next_size();
    } else if (arg == "--seed") {
      seed = next_size();
    } else if (arg == "--std-dl") {
      // A negative sigma is malformed, not "no variation" (that is 0).
      std_dl = next_double(0.0);
    } else if (arg == "--std-vt") {
      std_vt = next_double(0.0);
    } else if (arg == "--rho") {
      rho = next_double();
    } else if (arg == "--corner") {
      corner = true;
    } else if (arg == "--yield-target") {
      // A yield is a probability strictly inside (0, 1); reject anything
      // else here, before any analysis runs.
      yield_target = next_double();
      if (!(yield_target > 0.0 && yield_target < 1.0)) bad_value(arg, argv[i]);
    } else if (arg == "--threads") {
      threads = next_size();
    } else if (arg == "--batch") {
      batch = next_size(1, stats::kMaxBatch);
    } else if (arg == "--yield-estimator") {
      yield_estimator = next();
    } else if (arg == "--clock-period") {
      clock_period = next_double(0.0);  // 0 = the GA period
    } else if (arg == "--is-pilot") {
      is_pilot = next_size();
    } else if (arg == "--graph") {
      graph_mode = true;
    } else if (arg == "--top-k") {
      top_k = next_size();
    } else if (arg == "--on-failure") {
      on_failure = next();
    } else if (arg.rfind("--on-failure=", 0) == 0) {
      on_failure = arg.substr(std::strlen("--on-failure="));
    } else if (obs_cli.parse_flag(arg, next)) {
      // handled
    } else {
      bad_option(arg);
    }
  }
  if (circuit_name.empty()) usage();
  if (on_failure != "abort" && on_failure != "skip" &&
      on_failure != "retry") {
    usage();
  }
  if (yield_estimator != "mc" && yield_estimator != "is" &&
      yield_estimator != "is-cv") {
    usage();
  }

  obs_cli.install();

  api::DesignSpec dspec;
  dspec.circuit = circuit_name;
  dspec.elements = elements;
  dspec.graph = graph_mode;
  dspec.top_k = top_k;
  dspec.retry = on_failure == "retry";

  std::shared_ptr<api::Session> session;
  try {
    session = api::Session::load(dspec);
  } catch (const sim::SimulationError& e) {
    return classified_failure(e);
  }
  const auto& bspec = session->benchmark();
  const auto& nl = session->netlist();

  core::PathVariationModel model;
  model.std_dl = std_dl;
  model.std_vt = std_vt;

  stats::RunOptions run_opt;
  run_opt.samples = samples;
  run_opt.seed = seed;
  run_opt.exec.threads = threads;
  run_opt.exec.batch = batch;
  run_opt.exec.on_failure = on_failure == "abort"
                                ? stats::FailurePolicy::kAbort
                                : stats::FailurePolicy::kSkip;
  run_opt.registry = obs_cli.registry();

  if (graph_mode) {
    const core::GraphAnalyzer& analyzer = *session->graph_analyzer();

    std::printf("circuit %s: %zu gates, %zu latches; %zu most-critical "
                "paths\n",
                bspec.name.c_str(), nl.gates.size(), bspec.num_latches,
                analyzer.paths().size());
    for (const auto& p : analyzer.paths()) {
      std::printf("  path (%zu stages -> net %zu):", p.length(), p.end_net);
      for (std::size_t g : p.gates) {
        std::printf(" %s",
                    timing::cell_library()[nl.gates[g].cell].name.c_str());
      }
      std::printf("\n");
    }
    std::printf("subgraph: %zu gates, %zu characterized blocks, %zu "
                "endpoints\n\n",
                analyzer.subgraph_gates().size(), analyzer.num_blocks(),
                analyzer.endpoint_nets().size());

    api::GraphResult run;
    try {
      run = session->run_graph(model, run_opt);
    } catch (const sim::SimulationError& e) {
      obs_cli.finish("lcsf_sta");
      return classified_failure(e);
    }
    const stats::MonteCarloResult& mc = run.mc;
    if (mc.failures.any()) {
      std::printf("sample failures: %zu of %zu attempted\n%s\n",
                  mc.failures.failed(), mc.failures.attempted,
                  mc.failures.table().c_str());
    }
    if (mc.values.empty()) {
      std::fprintf(stderr, "lcsf_sta: every Monte-Carlo sample failed\n");
      obs_cli.finish("lcsf_sta");
      return 1;
    }
    std::printf("Monte-Carlo max endpoint delay (%zu samples): mean %.2f "
                "ps, std %.2f ps\n",
                mc.values.size(), mc.stats.mean() * 1e12,
                mc.stats.stddev() * 1e12);
    const double t_mc = stats::period_for_yield(mc.values, yield_target);
    std::printf("clock period for %.2f%% yield: %.2f ps (MC)\n\n",
                100 * yield_target, t_mc * 1e12);

    // Nominal-sample endpoint report + the stage-reuse counters (the same
    // numbers accumulate into stats.graph.* for --metrics).
    const auto& nominal = run.nominal;
    std::printf("endpoints (nominal sample | analytic SSTA):\n");
    for (std::size_t k = 0; k < nominal.endpoints.size(); ++k) {
      const auto& e = nominal.endpoints[k];
      const auto& a = run.analytic[k].arrival;
      std::printf("  net %4zu: %.2f ps slew %.2f ps | mean %.2f ps "
                  "std %.2f ps\n",
                  e.net, e.delay * 1e12, e.slew * 1e12, a.mean * 1e12,
                  std::sqrt(timing::ssta::variance(a)) * 1e12);
    }
    std::printf("stage reuse per sample: %zu simulated, %zu cache hits, "
                "%zu merges (%zu path-stages)\n",
                nominal.stages_simulated, nominal.stage_cache_hits,
                nominal.merges,
                nominal.stages_simulated + nominal.stage_cache_hits);

    std::printf("\ndelay histogram:\n%s",
                stats::Histogram::from_data(mc.values, 12).render(40).c_str());
    return obs_cli.finish("lcsf_sta") ? 0 : 1;
  }

  const auto& path = session->longest_path();
  const core::PathAnalyzer& analyzer = *session->path_analyzer();

  std::printf("circuit %s: %zu gates, %zu latches; longest path %zu "
              "stages\n",
              bspec.name.c_str(), nl.gates.size(), bspec.num_latches,
              path.length());
  std::printf("path:");
  for (std::size_t g : path.gates) {
    std::printf(" %s",
                timing::cell_library()[nl.gates[g].cell].name.c_str());
  }
  std::printf("\n\n");

  try {
    stats::MonteCarloResult mc;
    if (rho > 0.0) {
      const auto corr =
          session->run_monte_carlo_correlated(model, rho, run_opt);
      std::printf("correlated MC (rho = %.2f): %zu sources -> %zu PCA "
                  "factors\n",
                  rho, corr.total_sources, corr.factors_used);
      mc = corr.mc;
    } else {
      mc = session->run_monte_carlo(model, run_opt);
    }
    const auto ga = session->run_gradients(model);

    if (mc.failures.any()) {
      std::printf("sample failures: %zu of %zu attempted\n%s\n",
                  mc.failures.failed(), mc.failures.attempted,
                  mc.failures.table().c_str());
    }
    if (mc.values.empty()) {
      std::fprintf(stderr, "lcsf_sta: every Monte-Carlo sample failed\n");
      obs_cli.finish("lcsf_sta");  // the metrics tell the failure story
      return 1;
    }
    std::printf("Monte-Carlo (%zu samples): mean %.2f ps, std %.2f ps\n",
                mc.values.size(), mc.stats.mean() * 1e12,
                mc.stats.stddev() * 1e12);
    std::printf("Gradient Analysis (%zu sims): mean %.2f ps, std %.2f "
                "ps\n\n",
                ga.simulations, ga.nominal_delay * 1e12, ga.stddev * 1e12);

    const double t_mc = stats::period_for_yield(mc.values, yield_target);
    const double t_ga = stats::gaussian_period_for_yield(
        ga.nominal_delay, ga.stddev, yield_target);
    std::printf("clock period for %.2f%% yield: %.2f ps (MC), %.2f ps "
                "(GA)\n",
                100 * yield_target, t_mc * 1e12, t_ga * 1e12);

    if (yield_estimator != "mc") {
      // Probe the tail at --clock-period (default: the GA period computed
      // above, so the IS report quantifies exactly the quoted target).
      const double t_clk = clock_period > 0.0 ? clock_period : t_ga;
      stats::RunOptions is_opt = run_opt;
      is_opt.importance.pilot_samples = is_pilot;
      const auto yres = session->run_yield(model, t_clk, yield_estimator,
                                           yield_target, is_opt);
      const stats::IsYieldEstimate& is = *yres.is;
      double shift_norm = 0.0;
      for (const double th : is.surrogate.shift) shift_norm += th * th;
      shift_norm = std::sqrt(shift_norm);
      std::printf("\nimportance-sampled yield @ %.2f ps (%s%s):\n",
                  t_clk * 1e12, yield_estimator.c_str(),
                  is_pilot > 0 ? ", pilot-refined" : "");
      std::printf("  yield loss %.3e +/- %.3e (yield %.6f)\n",
                  is.yield_loss, is.std_error, is.yield);
      std::printf("  surrogate beta %.2f, proposal shift |theta| %.2f\n",
                  is.surrogate.beta, shift_norm);
      // Brute-force MC needs p(1-p)/SE^2 samples for the same standard
      // error; the ratio to the IS budget is the headline speedup.
      if (is.std_error > 0.0) {
        const double mc_equiv = is.yield_loss * (1.0 - is.yield_loss) /
                                (is.std_error * is.std_error);
        std::printf("  ESS %.1f of %zu samples; MC-equivalent budget %.0f "
                    "(%.1fx)\n",
                    is.ess, is.main_samples, mc_equiv,
                    mc_equiv / static_cast<double>(is.main_samples));
      }
      if (is.control_variate_used) {
        std::printf("  control variate: c* %.3f, exact E[C] %.3e\n",
                    is.control_coefficient, is.control_expectation);
      }
      if (is.failures.any() || is.pilot_failures.any()) {
        std::printf("  skipped samples: %zu main, %zu pilot\n",
                    is.failures.failed(), is.pilot_failures.failed());
      }
    }

    if (corner) {
      const auto wc = analyzer.worst_case_corner(model, ga, 3.0);
      std::printf("worst-case +/-3-sigma corner: %.2f ps (pessimism %.2fx "
                  "vs GA quantile)\n",
                  wc.delay * 1e12,
                  stats::corner_pessimism(wc.delay, t_ga, ga.nominal_delay));
    }
    std::printf("\ndelay histogram:\n%s",
                stats::Histogram::from_data(mc.values, 12).render(40).c_str());
  } catch (const sim::SimulationError& e) {
    obs_cli.finish("lcsf_sta");
    return classified_failure(e);
  }
  return obs_cli.finish("lcsf_sta") ? 0 : 1;
}
