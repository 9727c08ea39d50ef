#include "serve/server.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "runtime/thread_pool.hpp"
#include "serve/protocol.hpp"
#include "sim/diagnostics.hpp"

namespace lcsf::serve {

namespace {

[[noreturn]] void throw_socket_error(const char* what) {
  throw sim::SimulationError(
      sim::FailureKind::kOther,
      std::string(what) + ": " + std::strerror(errno));
}

/// send() the whole buffer; MSG_NOSIGNAL turns a dead peer into an
/// error return instead of SIGPIPE. Returns false when the peer is
/// gone (the connection is then abandoned).
bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(ServerOptions opt)
    : opt_(opt), cache_(DesignCache::Config{opt.cache_bytes}) {}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Server::bind_and_listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_socket_error("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(opt_.port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw_socket_error("bind");
  }
  if (::listen(listen_fd_, 64) != 0) throw_socket_error("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &len) != 0) {
    throw_socket_error("getsockname");
  }
  port_ = ntohs(bound.sin_port);
}

void Server::run() {
  if (listen_fd_ < 0) bind_and_listen();
  // The caller may itself be a pool task (tests and the bench run the
  // server on a harness pool lane); re-root so our worker pool below
  // actually spawns threads instead of inlining.
  runtime::TaskRootScope root;
  const std::size_t workers = opt_.workers == 0 ? 1 : opt_.workers;
  runtime::ThreadPool pool(workers);
  // One blocking accept loop per chunk, grain 1: each pool thread
  // claims a chunk and serves connections until request_stop().
  pool.parallel_for_lanes(
      workers,
      [this](std::size_t begin, std::size_t end, std::size_t lane) {
        for (std::size_t k = begin; k < end; ++k) accept_loop(lane);
      },
      1);
}

void Server::request_stop() {
  stop_.store(true);
  // Wake every accept() blocked on the listening socket.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void Server::accept_loop(std::size_t lane) {
  while (!stop_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // request_stop() shut the listening socket down; any other
      // accept failure on a healthy socket is transient -- either way
      // re-check the stop flag.
      if (stop_.load()) break;
      continue;
    }
    serve_connection(fd, lane);
    ::close(fd);
  }
}

void Server::serve_connection(int fd, std::size_t lane) {
  ServeContext ctx;
  ctx.cache = &cache_;
  ctx.registry = opt_.registry;
  ctx.metrics_gate = &metrics_gate_;
  ctx.lane = lane;

  std::string buffer;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (n == 0) return;  // client closed
    buffer.append(chunk, static_cast<std::size_t>(n));

    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      const DispatchResult result = dispatch_request(line, ctx);
      if (!send_all(fd, result.response + "\n")) return;
      if (result.shutdown) {
        request_stop();
        return;
      }
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxRequestLineBytes) {
      (void)send_all(fd, error_line(sim::FailureKind::kInvalidInput,
                                    "request line exceeds " +
                                        std::to_string(kMaxRequestLineBytes) +
                                        " bytes without a newline") +
                             "\n");
      return;
    }
  }
}

}  // namespace lcsf::serve
