// Batch-width parsing and the failure-summary report of the statistical
// drivers (the drivers themselves live in runner.cpp).
#include "stats/analysis.hpp"

#include <cstdlib>

namespace lcsf::stats {

std::size_t parse_batch(const std::string& text, const char* what) {
  char* end = nullptr;
  const unsigned long v = std::strtoul(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() || v == 0 ||
      text.front() == '-' || text.front() == '+') {
    sim::throw_invalid_input(std::string(what) +
                             ": batch must be a positive integer, got `" +
                             text + "`");
  }
  return static_cast<std::size_t>(v);
}

std::string FailureSummary::table() const {
  if (!any()) return {};
  std::string out;
  for (std::size_t k = 0; k < sim::kNumFailureKinds; ++k) {
    if (counts[k] == 0) continue;
    const auto kind = static_cast<sim::FailureKind>(k);
    out += "  " + std::string(sim::failure_kind_name(kind)) + " : " +
           std::to_string(counts[k]);
    for (const SampleFailure& f : failures) {
      if (f.kind == kind) {
        out += "  (first sample " + std::to_string(f.index) + ": " +
               f.detail + ")";
        break;
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace lcsf::stats
