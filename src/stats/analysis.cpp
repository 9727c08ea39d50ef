// The one-sample adapter and the failure-summary report of the
// statistical drivers (the drivers themselves live in runner.cpp).
#include "stats/analysis.hpp"

#include <stdexcept>
#include <utility>

namespace lcsf::stats {

BatchPerformanceFn per_sample(PerformanceFn f) {
  return [f = std::move(f)](const std::vector<numeric::Vector>& w,
                            std::size_t, std::vector<BatchSlot>& out) {
    for (std::size_t b = 0; b < w.size(); ++b) {
      try {
        out[b].value = f(w[b]);
      } catch (const sim::SimulationError& e) {
        out[b].failed = true;
        out[b].diag = e.diagnostics();
      } catch (const std::runtime_error& e) {
        // A foreign engine that does not speak SimulationError: still a
        // simulation outcome, classified as kOther.
        out[b].failed = true;
        out[b].diag.kind = sim::FailureKind::kOther;
        out[b].diag.detail = e.what();
      }
    }
  };
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
