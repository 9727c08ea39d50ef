// Differential oracle: the framework (stage-by-stage TETA with propagated
// PWL waveforms) against the in-tree whole-path SPICE engine on seeded
// random paths, the paper's own validation method (Fig. 3, Table 4).
// Each case draws a short path from the whole cell library, a wire size,
// an input edge and a full variation sample inside the 3-sigma
// tolerance; both engines must succeed and agree within a fixed band.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "core/path.hpp"
#include "stats/random.hpp"

namespace lcsf::core {
namespace {

using numeric::Vector;

// 64 cases, case c drawn from its own counter-based stream: 1-4 stages
// of any library cell; 10, 40, 100 or 300 linear elements per stage; a
// 30-300 ps input edge of either polarity; per-stage dL and dVT and the
// global wire W and H uniform in +/-1 normalized units. Bounds: 10% delay
// and 20% slew per case, a mean delay error under 3%, and no failure in
// either engine.
TEST(Differential, FrameworkTracksSpiceOnRandomPaths) {
  constexpr std::size_t kCases = 64;
  constexpr std::size_t kElements[] = {10, 40, 100, 300};
  const auto& lib = timing::cell_library();
  PathVariationModel model;
  model.std_dl = 1.0;
  model.std_vt = 1.0;
  model.std_wire_w = 1.0;
  model.std_wire_h = 1.0;

  double worst_delay = 0.0, worst_slew = 0.0, sum_delay = 0.0;
  for (std::size_t c = 0; c < kCases; ++c) {
    stats::SplitMix64 draw = stats::sample_stream(20021, c);
    PathSpec spec;
    spec.tech = circuit::technology_180nm();
    const std::size_t stages = 1 + draw.below(4);
    for (std::size_t k = 0; k < stages; ++k) {
      spec.cells.push_back(draw.below(lib.size()));
    }
    spec.linear_elements_per_stage = kElements[draw.below(4)];
    const double slew = draw.uniform(30e-12, 300e-12);
    spec.input = {0.2e-9, slew, draw.below(2) == 0};
    spec.stage_window = 1.0e-9;
    spec.dt = 2e-12;
    const PathAnalyzer pa(spec);
    Vector w(model.sources_per_stage() * stages + model.global_sources());
    for (double& x : w) x = draw.uniform(-1.0, 1.0);
    const PathSample sample = pa.sample_from_sources(model, w);

    std::string label = "case " + std::to_string(c) + ":";
    for (const std::size_t cell : spec.cells) label += " " + lib[cell].name;
    label += ", " + std::to_string(spec.linear_elements_per_stage) +
             " elements, slew " + std::to_string(slew * 1e12) + " ps";
    PathDelayResult fw, sp;
    try {
      fw = pa.framework_delay(sample);
      sp = pa.spice_delay(sample);
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": " << e.what();
      continue;
    }
    const double delay_err = std::abs(fw.delay - sp.delay) / sp.delay;
    const double slew_err =
        std::abs(fw.output_slew - sp.output_slew) / sp.output_slew;
    EXPECT_LT(delay_err, 0.10) << label;
    EXPECT_LT(slew_err, 0.20) << label;
    worst_delay = std::max(worst_delay, delay_err);
    worst_slew = std::max(worst_slew, slew_err);
    sum_delay += delay_err;
  }
  const double mean_delay = sum_delay / static_cast<double>(kCases);
  EXPECT_LT(mean_delay, 0.03);
  std::printf(
      "differential oracle: %zu cases, worst delay error %.4f, worst slew "
      "error %.4f, mean delay error %.4f\n",
      kCases, worst_delay, worst_slew, mean_delay);
}

}  // namespace
}  // namespace lcsf::core
