#include "serve_load.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <utility>

#include "ledger.hpp"

namespace lcsf::benchsuite {

// ---- RequestMix ----------------------------------------------------------

namespace {

constexpr int kMonteCarlo = 0;
constexpr int kGradients = 1;
constexpr int kLoad = 2;

std::string design_fields(const Design& d) {
  return "\"circuit\":\"" + d.circuit +
         "\",\"elements\":" + std::to_string(d.elements);
}

}  // namespace

RequestMix::RequestMix(std::uint64_t seed, std::vector<Design> designs,
                       std::size_t mc_samples, std::size_t load_elements_base)
    : state_(seed),
      designs_(std::move(designs)),
      mc_samples_(mc_samples),
      load_elements_base_(load_elements_base) {}

std::uint64_t RequestMix::draw() {
  // SplitMix64: a fixed, platform-independent stream per seed.
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const Design& RequestMix::pick(std::vector<std::size_t>& order,
                               std::size_t& pos) {
  if (pos == order.size()) {
    order.resize(designs_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[draw() % i]);
    }
    pos = 0;
  }
  return designs_[order[pos++]];
}

std::string RequestMix::next(std::string* type) {
  if (block_pos_ == block_.size()) {
    block_.assign(14, kMonteCarlo);
    block_.insert(block_.end(), 3, kGradients);
    block_.insert(block_.end(), 3, kLoad);
    for (std::size_t i = block_.size(); i > 1; --i) {
      std::swap(block_[i - 1], block_[draw() % i]);
    }
    block_pos_ = 0;
  }
  const int kind = block_[block_pos_++];
  const std::string id = "{\"id\":" + std::to_string(id_++);
  if (kind == kMonteCarlo) {
    if (type != nullptr) *type = "monte_carlo";
    const Design& d = pick(mc_order_, mc_pos_);
    return id + ",\"type\":\"monte_carlo\"," + design_fields(d) +
           ",\"samples\":" + std::to_string(mc_samples_) +
           ",\"threads\":1,\"seed\":" +
           std::to_string(draw() % 1000000000u + 1) + "}";
  }
  if (kind == kGradients) {
    if (type != nullptr) *type = "gradients";
    return id + ",\"type\":\"gradients\"," +
           design_fields(pick(ga_order_, ga_pos_)) + "}";
  }
  if (type != nullptr) *type = "load";
  // A design outside the working set: same circuits, a fresh element
  // count per load, so every load is a cold characterization.
  const Design fresh{designs_[loads_ % designs_.size()].circuit,
                     load_elements_base_ + loads_};
  ++loads_;
  return load_line(id_ - 1, fresh);
}

std::string RequestMix::load_line(std::size_t id, const Design& d) {
  return "{\"id\":" + std::to_string(id) + ",\"type\":\"load\"," +
         design_fields(d) + "}";
}

// ---- ServerProcess -------------------------------------------------------

ServerProcess::ServerProcess(const std::string& binary, std::size_t workers,
                             std::size_t cache_mb) {
  int pipe_fd[2];
  if (::pipe(pipe_fd) != 0) throw std::runtime_error("pipe() failed");
  const std::string w = std::to_string(workers);
  const std::string c = std::to_string(cache_mb);
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork() failed");
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    ::dup2(pipe_fd[1], STDOUT_FILENO);
    ::close(pipe_fd[0]);
    ::close(pipe_fd[1]);
    ::execl(binary.c_str(), binary.c_str(), "--workers", w.c_str(),
            "--cache-mb", c.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(pipe_fd[1]);
  stdout_fd_ = pipe_fd[0];

  // The server announces "lcsf_serve: listening on 127.0.0.1:<port>".
  std::string text;
  const double deadline = now_s() + 30.0;
  while (text.find('\n') == std::string::npos) {
    pollfd p{stdout_fd_, POLLIN, 0};
    const int left = static_cast<int>((deadline - now_s()) * 1e3);
    if (left <= 0 || ::poll(&p, 1, left) <= 0) {
      throw std::runtime_error("lcsf_serve did not announce its port");
    }
    char buf[256];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) throw std::runtime_error("lcsf_serve exited at start-up");
    text.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t colon = text.rfind(':');
  port_ = colon == std::string::npos ? 0 : std::atoi(text.c_str() + colon + 1);
  if (port_ <= 0) throw std::runtime_error("bad lcsf_serve banner: " + text);
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

void ServerProcess::shutdown() {
  {
    Connection c(port_);
    const std::string resp =
        c.request(R"({"id":"shutdown","type":"shutdown"})");
    if (resp.find("\"ok\":true") == std::string::npos) {
      throw std::runtime_error("shutdown refused: " + resp);
    }
  }
  int status = 0;
  const double deadline = now_s() + 30.0;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0) throw std::runtime_error("waitpid() failed");
    if (now_s() > deadline) throw std::runtime_error("lcsf_serve hung");
    ::usleep(2000);
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("lcsf_serve exited abnormally");
  }
}

// ---- Connection ----------------------------------------------------------

Connection::Connection(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    throw std::runtime_error("connect() failed");
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::send_line(const std::string& line) {
  const std::string out = line + "\n";
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send() failed");
    sent += static_cast<std::size_t>(n);
  }
}

bool Connection::pop_line(std::string& response) {
  const std::size_t nl = buffer_.find('\n');
  if (nl == std::string::npos) return false;
  response = buffer_.substr(0, nl);
  buffer_.erase(0, nl + 1);
  return true;
}

bool Connection::read_available(std::string& response) {
  char chunk[65536];
  const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
  if (n <= 0) throw std::runtime_error("connection closed by the server");
  buffer_.append(chunk, static_cast<std::size_t>(n));
  return pop_line(response);
}

std::string Connection::request(const std::string& line) {
  send_line(line);
  std::string response;
  while (!pop_line(response)) {
    if (read_available(response)) break;
  }
  return response;
}

// ---- LoadGenerator -------------------------------------------------------

LoadGenerator::LoadGenerator(int port, std::size_t connections) {
  for (std::size_t i = 0; i < connections; ++i) {
    conns_.push_back(std::make_unique<Connection>(port));
  }
}

std::vector<Exchange> LoadGenerator::closed_loop(const RequestSource& next,
                                                 double seconds) {
  return drive(next, false, 0.0, 0, seconds);
}

std::vector<Exchange> LoadGenerator::open_loop(const RequestSource& next,
                                               double rate,
                                               std::size_t count) {
  return drive(next, true, rate, count, 0.0);
}

std::vector<Exchange> LoadGenerator::drive(const RequestSource& next,
                                           bool open, double rate,
                                           std::size_t count,
                                           double seconds) {
  const std::size_t nc = conns_.size();
  std::vector<Exchange> done;
  std::vector<Exchange> inflight(nc);
  std::vector<bool> busy(nc, false);
  std::deque<Exchange> backlog;
  std::size_t scheduled = 0;
  const double t0 = now_s();
  const double t_end = t0 + seconds;

  for (;;) {
    const double now = now_s();
    if (open) {
      while (scheduled < count &&
             t0 + static_cast<double>(scheduled) / rate <= now) {
        Exchange x;
        x.due = t0 + static_cast<double>(scheduled) / rate;
        x.queued = now;
        x.line = next(&x.type);
        backlog.push_back(std::move(x));
        ++scheduled;
      }
    }
    for (std::size_t c = 0; c < nc; ++c) {
      if (busy[c]) continue;
      if (!open && now < t_end) {
        Exchange x;
        x.due = x.queued = now;
        x.line = next(&x.type);
        backlog.push_back(std::move(x));
      }
      if (backlog.empty()) break;
      inflight[c] = std::move(backlog.front());
      backlog.pop_front();
      conns_[c]->send_line(inflight[c].line);
      busy[c] = true;
    }
    const bool any_busy =
        std::any_of(busy.begin(), busy.end(), [](bool b) { return b; });
    const bool more = open ? scheduled < count || !backlog.empty()
                           : now_s() < t_end;
    if (!any_busy && !more) break;

    int timeout_ms = 100;
    if (open && scheduled < count) {
      const double next_due = t0 + static_cast<double>(scheduled) / rate;
      timeout_ms = std::max(
          0, static_cast<int>(std::ceil((next_due - now_s()) * 1e3)));
    } else if (!open && now_s() < t_end) {
      timeout_ms = std::max(
          0, static_cast<int>(std::ceil((t_end - now_s()) * 1e3)));
    }
    std::vector<pollfd> fds;
    std::vector<std::size_t> which;
    for (std::size_t c = 0; c < nc; ++c) {
      if (!busy[c]) continue;
      fds.push_back({conns_[c]->fd(), POLLIN, 0});
      which.push_back(c);
    }
    if (fds.empty()) {
      ::usleep(static_cast<useconds_t>(timeout_ms) * 1000u);
      continue;
    }
    const int r = ::poll(fds.data(), fds.size(), timeout_ms);
    if (r < 0 && errno != EINTR) throw std::runtime_error("poll() failed");
    for (std::size_t i = 0; r > 0 && i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const std::size_t c = which[i];
      std::string response;
      if (conns_[c]->read_available(response)) {
        inflight[c].done = now_s();
        inflight[c].response = std::move(response);
        done.push_back(std::move(inflight[c]));
        busy[c] = false;
      }
    }
  }
  return done;
}

}  // namespace lcsf::benchsuite
