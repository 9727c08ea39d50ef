// Shared helpers for the table/figure reproduction benches.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>

#include "serve/json.hpp"

namespace lcsf::bench {

/// Wall-clock stopwatch in seconds.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  void reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Benches honour LCSF_BENCH_QUICK=1 to shrink sample counts and circuit
/// sizes for smoke runs; the recorded outputs use the full settings.
inline bool quick_mode() {
  const char* env = std::getenv("LCSF_BENCH_QUICK");
  return env != nullptr && std::strcmp(env, "0") != 0;
}

inline void print_header(const std::string& title) {
  std::printf("==============================================================="
              "=\n%s\n"
              "==============================================================="
              "=\n",
              title.c_str());
}

/// One member value of a bench report: a count, a number, a flag, a
/// string or a nested object.
struct JsonField {
  JsonField(std::size_t n)
      : json(serve::Json::integer(static_cast<std::int64_t>(n))) {}
  JsonField(double x) : json(serve::Json::number(x)) {}
  JsonField(bool b) : json(serve::Json::boolean(b)) {}
  JsonField(const char* s) : json(serve::Json::string(s)) {}
  JsonField(const std::string& s) : json(serve::Json::string(s)) {}
  JsonField(serve::Json j) : json(std::move(j)) {}
  serve::Json json;
};

/// A JSON object holding `members` in order.
inline serve::Json json_object(
    std::initializer_list<std::pair<const char*, JsonField>> members) {
  serve::Json o = serve::Json::object();
  for (const auto& [key, field] : members) o.set(key, field.json);
  return o;
}

/// Write a BENCH_*.json report through serve::Json's deterministic codec
/// (members in insertion order, %.17g numbers) plus a newline. Returns
/// false, after a diagnostic, when `path` cannot be opened.
inline bool write_json(const std::string& path, const serve::Json& report) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "%s\n", report.dump().c_str());
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace lcsf::bench
