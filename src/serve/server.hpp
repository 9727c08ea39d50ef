// Persistent TCP analysis server speaking lcsf-serve-v1 NDJSON
// (docs/serving.md): one JSON request per line in, one JSON response
// per line out, connections multiplexed over a runtime::ThreadPool.
//
// Lifecycle: construct, bind_and_listen() (resolves the ephemeral port
// when options.port == 0), then run() -- which blocks until a client
// sends a `shutdown` request or another thread calls request_stop().
// Each pool lane owns an accept-and-serve loop: it accepts one
// connection, serves its requests to EOF through
// serve::dispatch_request, and goes back to accepting, so up to
// `workers` connections are served concurrently. Analyses inside a
// request run on their own transient pools with the request's thread
// count (runtime::TaskRootScope re-roots the nesting).
//
// The server binds the IPv4 loopback interface only: this is a local
// analysis daemon, not an internet-facing service.
#pragma once

#include <atomic>
#include <cstddef>
#include <shared_mutex>

#include "obs/registry.hpp"
#include "serve/cache.hpp"

namespace lcsf::serve {

/// Longest unterminated request line a connection may buffer. A client
/// that sends more without a newline gets one classified invalid-input
/// error response and is disconnected, so it cannot grow server memory
/// without bound.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

struct ServerOptions {
  int port = 0;             ///< TCP port; 0 = kernel-assigned ephemeral
  std::size_t workers = 4;  ///< concurrent connection-handler lanes
  std::size_t cache_bytes = 256u << 20;  ///< DesignCache byte budget
  /// Server-wide metrics registry (serve.* counters, request latency,
  /// merged engine counters); null disables recording.
  obs::Registry* registry = nullptr;
};

class Server {
 public:
  explicit Server(ServerOptions opt);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Create, bind and listen on the socket. After this port() is the
  /// actual port. Throws sim::SimulationError on socket failures.
  void bind_and_listen();
  int port() const { return port_; }

  /// Serve until shutdown. Blocking; callable from inside a pool task
  /// (it re-roots its own worker pool).
  void run();

  /// Thread-safe stop: wakes every blocked accept and makes run()
  /// return after in-flight requests finish.
  void request_stop();

  DesignCache& cache() { return cache_; }

 private:
  void accept_loop(std::size_t lane);
  void serve_connection(int fd, std::size_t lane);

  ServerOptions opt_;
  DesignCache cache_;
  std::shared_mutex metrics_gate_;
  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;
  int port_ = 0;
};

}  // namespace lcsf::serve
