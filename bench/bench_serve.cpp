// Analysis-server throughput and characterization-cache benchmark
// (docs/serving.md). A real serve::Server is started on an ephemeral
// loopback port and driven over TCP, exactly like production clients:
//
//   cold load  : the first `load` of the circuit -- pays netlist
//                generation plus the full variational stage-load
//                pre-characterization inside api::Session::load.
//   warm load  : the same `load` again -- a serve::DesignCache hit; the
//                round-trip is parse + cache lookup + serialize. The
//                cold/warm ratio is the headline `warm_speedup` gated by
//                the ci.sh bench stage (>= 5x).
//   fleet      : N concurrent client connections each issue a stream of
//                monte_carlo requests against the warm design; the bench
//                reports aggregate requests/sec and the p50/p95 of the
//                per-request round-trip latency.
//
// Protocol determinism is asserted along the way: the cold and warm
// load responses must be byte-identical (a response never reveals
// whether it was served from cache), and every fleet response must
// equal the first -- `bitwise_identical` in the JSON records both.
//
// Emits BENCH_serve.json for tools/bench_compare.py and the ci.sh
// bench stage. Usage: bench_serve [output.json]
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/registry.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"

namespace {

using namespace lcsf;

/// Minimal blocking NDJSON client: one connection, send a line, read a
/// line. Throws on any socket hiccup -- a bench run must be clean.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      throw std::runtime_error("connect() failed");
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  std::string request(const std::string& line) {
    const std::string out = line + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, 0);
      if (n <= 0) throw std::runtime_error("send() failed");
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        const std::string resp = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return resp;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("connection closed");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serve.json";
  const bool quick = bench::quick_mode();

  const std::string circuit = quick ? "s27" : "s832";
  const std::size_t clients = quick ? 2 : 8;
  const std::size_t requests_per_client = quick ? 4 : 25;
  const std::size_t mc_samples = 8;
  const std::size_t warm_loads = quick ? 5 : 20;

  bench::print_header("analysis server: cache warm-up + request throughput"
                      " (" + circuit + ")");

  obs::Registry registry;
  serve::ServerOptions sopt;
  sopt.workers = clients + 1;
  sopt.registry = &registry;
  serve::Server server(sopt);
  server.bind_and_listen();

  const std::string load_req =
      R"({"id":"L","type":"load","circuit":")" + circuit + R"("})";
  const std::string mc_req =
      R"({"id":"M","type":"monte_carlo","circuit":")" + circuit +
      R"(","samples":)" + std::to_string(mc_samples) + R"(,"seed":42})";

  double cold_load_ms = 0.0;
  double warm_load_ms = 0.0;
  bool bitwise_identical = true;
  double fleet_seconds = 0.0;
  std::vector<double> latencies_ms;

  runtime::ThreadPool outer(2);
  outer.parallel_for_lanes(
      2,
      [&](std::size_t begin, std::size_t, std::size_t) {
        if (begin == 0) {
          server.run();
          return;
        }
        // The driver lane orchestrates every phase sequentially and is a
        // fresh nesting root, so the client fleet below really fans out.
        runtime::TaskRootScope root;

        // Phase 1: cold vs warm characterization, one connection.
        Client probe(server.port());
        bench::Stopwatch cold;
        const std::string cold_resp = probe.request(load_req);
        cold_load_ms = cold.seconds() * 1e3;
        if (cold_resp.find("\"ok\":true") == std::string::npos) {
          throw std::runtime_error("cold load failed: " + cold_resp);
        }
        std::vector<double> warm_ms;
        for (std::size_t i = 0; i < warm_loads; ++i) {
          bench::Stopwatch warm;
          const std::string warm_resp = probe.request(load_req);
          warm_ms.push_back(warm.seconds() * 1e3);
          bitwise_identical = bitwise_identical && warm_resp == cold_resp;
        }
        warm_load_ms = percentile(warm_ms, 0.5);

        // Phase 2: N concurrent connections stream monte_carlo requests
        // against the warm design.
        std::vector<std::vector<double>> per_lane(clients);
        std::vector<std::string> first_resp(clients);
        bench::Stopwatch fleet;
        runtime::ThreadPool fleet_pool(clients);
        fleet_pool.parallel_for_lanes(
            clients,
            [&](std::size_t b, std::size_t, std::size_t) {
              Client c(server.port());
              for (std::size_t r = 0; r < requests_per_client; ++r) {
                bench::Stopwatch sw;
                const std::string resp = c.request(mc_req);
                per_lane[b].push_back(sw.seconds() * 1e3);
                if (r == 0) {
                  first_resp[b] = resp;
                } else if (resp != first_resp[b]) {
                  first_resp[b] = "MISMATCH";
                }
              }
            },
            1);
        fleet_seconds = fleet.seconds();
        for (std::size_t c = 1; c < clients; ++c) {
          bitwise_identical =
              bitwise_identical && first_resp[c] == first_resp[0] &&
              first_resp[c] != "MISMATCH";
        }
        for (const auto& lane : per_lane) {
          latencies_ms.insert(latencies_ms.end(), lane.begin(), lane.end());
        }

        probe.request(R"({"id":"S","type":"shutdown"})");
      },
      1);

  const double total_requests =
      static_cast<double>(clients * requests_per_client);
  const double rps = total_requests / fleet_seconds;
  const double warm_speedup = cold_load_ms / warm_load_ms;
  const double p50 = percentile(latencies_ms, 0.5);
  const double p95 = percentile(latencies_ms, 0.95);

  std::printf("cold load        : %10.3f ms (characterization)\n",
              cold_load_ms);
  std::printf("warm load (p50)  : %10.3f ms (cache hit)\n", warm_load_ms);
  std::printf("warm speedup     : %10.1fx\n", warm_speedup);
  std::printf("fleet            : %zu clients x %zu monte_carlo(%zu)\n",
              clients, requests_per_client, mc_samples);
  std::printf("throughput       : %10.1f req/s\n", rps);
  std::printf("latency p50/p95  : %.3f / %.3f ms\n", p50, p95);
  std::printf("bitwise identical: %s\n", bitwise_identical ? "yes" : "NO");

  const auto report = bench::json_object(
      {{"bench", "serve"},
       {"quick", quick},
       {"config", bench::json_object({{"circuit", circuit},
                                      {"clients", clients},
                                      {"requests_per_client",
                                       requests_per_client},
                                      {"mc_samples", mc_samples},
                                      {"workers", sopt.workers}})},
       {"metrics", bench::json_object({{"cold_load_ms", cold_load_ms},
                                       {"warm_load_ms", warm_load_ms},
                                       {"warm_speedup", warm_speedup},
                                       {"requests_per_sec", rps},
                                       {"latency_p50_ms", p50},
                                       {"latency_p95_ms", p95}})},
       {"bitwise_identical", bitwise_identical}});
  if (!bench::write_json(out_path, report)) return 1;
  return bitwise_identical ? 0 : 1;
}
