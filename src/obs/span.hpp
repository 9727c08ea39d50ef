// Scoped trace spans: RAII phase/region timing on top of obs::Registry.
//
// A span MUST be a named stack object:
//
//   obs::ScopedSpan span("mor.stabilize");   // right
//   obs::ScopedSpan{"mor.stabilize"};        // WRONG: temporary dies
//                                            // immediately, records a
//                                            // zero-length span
//
// The lcsf_lint rule `obs-span-balance` rejects the temporary form.
#pragma once

#include <string_view>

#include "obs/registry.hpp"

namespace lcsf::obs {

/// Records one SpanEvent (and feeds the path's phase timer) covering the
/// object's lifetime. Inactive -- two loads and a branch -- when no
/// registry is installed on the constructing thread. Spans nest: the
/// recorded path is the '/'-join of every live span on this thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  LaneSink* sink_ = nullptr;  ///< null when inactive
  std::uint64_t start_ns_ = 0;
  std::size_t parent_path_len_ = 0;
};

}  // namespace lcsf::obs
