// lcsf_sim: transient simulation of a SPICE-format deck.
//
//   lcsf_sim <deck.sp> --tstop 2n [--dt 1p] [--probe node]...
//            [--tech 180nm|600nm] [--points 40]
//            [--on-failure abort|skip|retry]
//            [--metrics out.json] [--trace out.trace.json]
//            [--report-timing]
//
// --metrics/--trace/--report-timing enable the observability subsystem
// (docs/observability.md): engine counters (Newton iterations, LU
// refactor vs full-factor counts, committed steps) and phase spans for
// the parse and transient phases.
//
// The deck loads through api::Session (docs/serving.md), the same
// facade behind lcsf_sta and the lcsf_serve analysis server: the parse
// happens once at load, a bogus --tech or a malformed deck is a
// classified sim::SimulationError (kind printed in brackets, exit 1),
// and the transient runs on the cached parsed netlist. The tool then
// prints the probed node waveforms as a TSV table.
//
// --on-failure controls divergence handling (docs/robustness.md): abort
// exits 1 with the classified diagnostic (default); skip prints the
// partial waveform up to the failure point and exits 0; retry grants a
// 3-deep per-step dt-halving budget, then behaves like skip if the run
// still diverges.
//
// An unknown option, a stray extra positional argument or a malformed
// number (`--points abc`, `--tstop 2x`) is rejected with a diagnostic +
// usage and exit status 1; a malformed invocation (missing deck or
// --tstop) exits 2.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "circuit/parser.hpp"
#include "cli_number.hpp"
#include "obs_cli.hpp"

using namespace lcsf;

namespace {

void print_usage(std::FILE* to) {
  std::fprintf(to,
               "usage: lcsf_sim <deck.sp> --tstop <t> [--dt <t>] "
               "[--probe <node>]... [--tech 180nm|600nm] [--points n] "
               "[--on-failure abort|skip|retry] %s\n",
               tools::ObsCli::usage_line());
}

[[noreturn]] void usage() {
  print_usage(stderr);
  std::exit(2);
}

[[noreturn]] void bad_option(const std::string& arg) {
  std::fprintf(stderr, "lcsf_sim: unknown option '%s'\n", arg.c_str());
  print_usage(stderr);
  std::exit(1);
}

[[noreturn]] void bad_value(const std::string& arg, const std::string& text) {
  std::fprintf(stderr, "lcsf_sim: invalid value '%s' for %s\n",
               text.c_str(), arg.c_str());
  print_usage(stderr);
  std::exit(1);
}

int classified_failure(const sim::SimulationError& e) {
  std::fprintf(stderr, "lcsf_sim: %s [%s]\n",
               e.diagnostics().message().c_str(),
               sim::failure_kind_name(e.kind()));
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  std::string deck_path;
  double tstop = 0.0;
  double dt = 1e-12;
  std::size_t points = 40;
  std::string tech_name = "180nm";
  std::string on_failure = "abort";
  std::vector<std::string> probes;
  tools::ObsCli obs_cli;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) usage();
      return argv[i];
    };
    // SPICE-suffixed time value ("2n"); circuit::parse_value is strict
    // about the number and the suffix.
    auto next_time = [&]() -> double {
      const std::string text = next();
      double v = 0.0;
      try {
        v = circuit::parse_value(text);
      } catch (const circuit::ParseError&) {
        bad_value(arg, text);
      }
      if (!std::isfinite(v)) bad_value(arg, text);
      return v;
    };
    auto next_size = [&](std::uint64_t min) -> std::size_t {
      const std::string text = next();
      const auto v = tools::parse_unsigned(
          text, min, std::numeric_limits<std::size_t>::max());
      if (!v) bad_value(arg, text);
      return static_cast<std::size_t>(*v);
    };
    if (arg == "--tstop") {
      tstop = next_time();
    } else if (arg == "--dt") {
      dt = next_time();
    } else if (arg == "--probe") {
      probes.push_back(next());
    } else if (arg == "--tech") {
      tech_name = next();
    } else if (arg == "--points") {
      points = next_size(1);  // the output stride divides by it
    } else if (arg == "--on-failure") {
      on_failure = next();
    } else if (arg.rfind("--on-failure=", 0) == 0) {
      on_failure = arg.substr(std::strlen("--on-failure="));
    } else if (obs_cli.parse_flag(arg, next)) {
      // handled
    } else if (arg.rfind("-", 0) == 0) {
      bad_option(arg);
    } else if (!deck_path.empty()) {
      // A second positional used to silently replace the deck path --
      // reject it so a typo'd flag value can't be mistaken for the deck.
      std::fprintf(stderr, "lcsf_sim: unexpected argument '%s'\n",
                   arg.c_str());
      print_usage(stderr);
      return 1;
    } else {
      deck_path = arg;
    }
  }
  if (deck_path.empty() || tstop <= 0.0) usage();
  if (on_failure != "abort" && on_failure != "skip" &&
      on_failure != "retry") {
    usage();
  }

  obs_cli.install();

  std::ifstream in(deck_path);
  if (!in) {
    std::fprintf(stderr, "lcsf_sim: cannot open %s\n", deck_path.c_str());
    return 1;
  }
  std::ostringstream deck_text;
  deck_text << in.rdbuf();

  api::DesignSpec dspec;
  dspec.deck = deck_text.str();
  dspec.tech = tech_name;
  std::shared_ptr<api::Session> session;
  try {
    session = api::Session::load(dspec);
  } catch (const sim::SimulationError& e) {
    return classified_failure(e);
  }
  const circuit::Netlist& nl = session->deck_netlist();

  // Default probes: every named (non-auto) node.
  if (probes.empty()) {
    for (std::size_t n = 1; n < nl.node_count(); ++n) {
      const std::string& name = nl.node_name(static_cast<int>(n));
      if (name.rfind("n", 0) != 0 || name.size() > 4) probes.push_back(name);
    }
  }

  spice::TransientOptions opt;
  opt.tstop = tstop;
  opt.dt = dt;
  if (on_failure == "retry") opt.recovery.max_dt_retries = 3;
  const auto res = session->run_transient(opt);
  if (!res.converged) {
    std::fprintf(stderr,
                 "lcsf_sim: simulation failed: %s [%s] (t = %g, "
                 "%d retries used)\n",
                 res.failure().c_str(),
                 sim::failure_kind_name(res.diag.kind),
                 res.diag.failure_time, res.diag.retries_used);
    if (on_failure == "abort") return 1;
    std::fprintf(stderr,
                 "lcsf_sim: printing partial waveform up to t = %g\n",
                 res.time.empty() ? 0.0 : res.time.back());
  }

  std::vector<std::size_t> probe_nodes;
  for (const auto& p : probes) {
    const circuit::NodeId node = nl.find_node(p);
    if (node < 0) {
      std::fprintf(stderr, "lcsf_sim: unknown probe node '%s'\n", p.c_str());
      return 1;
    }
    probe_nodes.push_back(static_cast<std::size_t>(node));
  }

  std::printf("# t");
  for (const auto& p : probes) std::printf("\t%s", p.c_str());
  std::printf("\n");
  const std::size_t stride =
      std::max<std::size_t>(1, res.time.size() / points);
  for (std::size_t k = 0; k < res.time.size(); k += stride) {
    std::printf("%.6e", res.time[k]);
    for (const std::size_t node : probe_nodes) {
      std::printf("\t%.6f", res.node_voltages[k][node]);
    }
    std::printf("\n");
  }
  std::fprintf(stderr, "lcsf_sim: %zu steps, %ld Newton iterations\n",
               res.time.empty() ? 0 : res.time.size() - 1,
               res.total_newton_iterations);
  return obs_cli.finish("lcsf_sim") ? 0 : 1;
}
