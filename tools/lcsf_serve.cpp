// lcsf_serve: persistent statistical-timing analysis service.
//
//   lcsf_serve [--port n] [--workers n] [--cache-mb n]
//              [--metrics out.json]
//
// Speaks the lcsf-serve-v1 protocol (docs/serving.md): newline-
// delimited JSON requests over TCP on the loopback interface, one
// response line per request. Request types: load, monte_carlo,
// gradients, yield, graph, metrics, shutdown. Designs are characterized
// once and cached by netlist content hash (serve::DesignCache) under a
// --cache-mb byte budget with LRU eviction, so repeated analyses over
// the same design skip the expensive pre-characterization.
//
// --port 0 (the default) binds a kernel-assigned ephemeral port; the
// actual endpoint is announced on stdout as
//   lcsf_serve: listening on 127.0.0.1:<port>
// before the server starts accepting, so scripts can parse it.
//
// A malformed number (`--workers abc`, `--cache-mb -1`) or an unknown
// option exits 1 with usage.
//
// The server runs until a client sends {"type":"shutdown"}. --metrics
// writes the server-wide observability export (request counters and
// latency distribution, cache hit/miss/eviction counters, cumulative
// engine counters) on exit; the same data is available live through
// the `metrics` request.
//
// Responses are bitwise identical to the equivalent CLI (lcsf_sta)
// analyses: both are thin clients of api::Session and all analyses are
// deterministic for every thread count and batch width.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>

#include "cli_number.hpp"
#include "obs/registry.hpp"
#include "serve/server.hpp"
#include "sim/diagnostics.hpp"

using namespace lcsf;

namespace {

void print_usage(std::FILE* to) {
  std::fprintf(to,
               "usage: lcsf_serve [--port n] [--workers n] [--cache-mb n] "
               "[--metrics out.json]\n");
}

[[noreturn]] void bad_option(const std::string& arg) {
  std::fprintf(stderr, "lcsf_serve: unknown option '%s'\n", arg.c_str());
  print_usage(stderr);
  std::exit(1);
}

[[noreturn]] void missing_value(const std::string& arg) {
  std::fprintf(stderr, "lcsf_serve: option '%s' needs a value\n",
               arg.c_str());
  print_usage(stderr);
  std::exit(1);
}

[[noreturn]] void bad_value(const std::string& arg, const std::string& text) {
  std::fprintf(stderr, "lcsf_serve: invalid value '%s' for %s\n",
               text.c_str(), arg.c_str());
  print_usage(stderr);
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions opt;
  std::string metrics_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) missing_value(arg);
      return argv[i];
    };
    auto next_unsigned = [&](std::uint64_t max) -> std::uint64_t {
      const std::string text = next();
      const auto v = tools::parse_unsigned(text, 0, max);
      if (!v) bad_value(arg, text);
      return *v;
    };
    if (arg == "--port") {
      opt.port = static_cast<int>(next_unsigned(65535));
    } else if (arg == "--workers") {
      opt.workers = static_cast<std::size_t>(
          next_unsigned(std::numeric_limits<std::size_t>::max()));
    } else if (arg == "--cache-mb") {
      opt.cache_bytes = static_cast<std::size_t>(next_unsigned(
                            std::numeric_limits<std::size_t>::max() >> 20))
                        << 20;
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else {
      bad_option(arg);
    }
  }

  obs::Registry registry;
  opt.registry = &registry;
  serve::Server server(opt);
  try {
    server.bind_and_listen();
  } catch (const sim::SimulationError& e) {
    std::fprintf(stderr, "lcsf_serve: %s\n",
                 e.diagnostics().message().c_str());
    return 1;
  }
  std::printf("lcsf_serve: listening on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);
  server.run();

  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    out << registry.to_json(true);
    if (!out) {
      std::fprintf(stderr, "lcsf_serve: cannot write %s\n",
                   metrics_path.c_str());
      return 1;
    }
  }
  return 0;
}
