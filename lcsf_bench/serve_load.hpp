// Load generation against a live lcsf_serve child process: the seeded
// request mix, the server process, and a single-threaded poll() generator
// driving persistent NDJSON connections in closed or open loop.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace lcsf::benchsuite {

/// One design of the served working set.
struct Design {
  std::string circuit;
  std::size_t elements = 10;
};

/// Seeded request stream. Every block of 20 requests holds 14
/// monte_carlo, 3 gradients and 3 load requests in a seeded order; the
/// analyses cycle over seeded permutations of the working set, and every
/// load names a design outside it (a fresh element count), so it
/// characterizes cold. The composition is fixed and only the order and
/// the Monte-Carlo seeds depend on the seed, which keeps the cost of a
/// window of requests steady across seeds.
class RequestMix {
 public:
  RequestMix(std::uint64_t seed, std::vector<Design> designs,
             std::size_t mc_samples, std::size_t load_elements_base);

  /// Next request line (unique integer id); `type` receives its type.
  std::string next(std::string* type = nullptr);

  /// A `load` request line for `d`.
  static std::string load_line(std::size_t id, const Design& d);

 private:
  std::uint64_t draw();
  const Design& pick(std::vector<std::size_t>& order, std::size_t& pos);

  std::uint64_t state_;
  std::vector<Design> designs_;
  std::size_t mc_samples_;
  std::size_t load_elements_base_;
  std::size_t id_ = 1;
  std::vector<int> block_;  ///< request kinds of the current block
  std::size_t block_pos_ = 0;
  std::vector<std::size_t> mc_order_, ga_order_;
  std::size_t mc_pos_ = 0, ga_pos_ = 0, loads_ = 0;
};

/// An lcsf_serve child process on an ephemeral loopback port. The
/// destructor kills and reaps a server that was not shut down.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, std::size_t workers,
                std::size_t cache_mb);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// Send `shutdown` on a fresh connection and wait for the process to
  /// exit. Every other connection must be closed first: the server does
  /// not return while a client is connected. Throws unless it exits 0.
  void shutdown();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

/// A blocking NDJSON connection: send a line, read a line.
class Connection {
 public:
  explicit Connection(int port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  std::string request(const std::string& line);
  void send_line(const std::string& line);
  /// Read what the socket holds; true when a full response line is ready
  /// (returned through `response`).
  bool read_available(std::string& response);
  int fd() const { return fd_; }

 private:
  bool pop_line(std::string& response);
  int fd_ = -1;
  std::string buffer_;
};

/// One request/response exchange, times in seconds on now_s()'s clock.
struct Exchange {
  std::string line;
  std::string type;
  std::string response;
  double due = 0.0;     ///< when the request was due (open loop) or created
  double queued = 0.0;  ///< when the generator noticed it was due
  double done = 0.0;
};

/// Produces the next request line and sets its type.
using RequestSource = std::function<std::string(std::string* type)>;

/// Single-threaded poll() generator over `connections` persistent
/// connections, at most one request in flight on each.
class LoadGenerator {
 public:
  LoadGenerator(int port, std::size_t connections);

  /// Closed loop: each connection sends its next request as soon as its
  /// previous answer arrives, until `seconds` elapse; requests in flight
  /// at the end are awaited.
  std::vector<Exchange> closed_loop(const RequestSource& next,
                                    double seconds);

  /// Open loop: `count` requests due at t0 + i / rate, each sent on an
  /// idle connection once due (queued in the generator while every
  /// connection is busy).
  std::vector<Exchange> open_loop(const RequestSource& next, double rate,
                                  std::size_t count);

 private:
  std::vector<Exchange> drive(const RequestSource& next, bool open,
                              double rate, std::size_t count, double seconds);
  std::vector<std::unique_ptr<Connection>> conns_;
};

}  // namespace lcsf::benchsuite
