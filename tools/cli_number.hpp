// Strict numeric flag values for the CLI tools: the whole string must be
// consumed, unsigned values take no sign or leading space (so "-1" is an
// error, not a wrapped 2^64 - 1), and a value outside the flag's range,
// overflow included, is rejected. A failed parse returns
// std::nullopt; each tool answers it with a diagnostic, usage and exit
// status 1 instead of dying on an uncaught std::stoul exception.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

namespace lcsf::tools {

/// Decimal integer in [min, max]: digits only, no sign or whitespace.
inline std::optional<std::uint64_t> parse_unsigned(const std::string& text,
                                                   std::uint64_t min,
                                                   std::uint64_t max) {
  if (text.empty() ||
      !std::isdigit(static_cast<unsigned char>(text.front()))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE || v < min ||
      v > max) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(v);
}

/// Finite decimal floating-point value, whole string, no leading space.
inline std::optional<double> parse_double(const std::string& text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text.front()))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE ||
      !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

}  // namespace lcsf::tools
