// Differential oracle: the framework (stage-by-stage TETA with propagated
// PWL waveforms) against the in-tree whole-path SPICE engine on seeded
// random paths, the paper's own validation method (Fig. 3, Table 4).
// Each case draws a short path from the whole cell library, a wire size,
// an input edge and a full variation sample inside the 3-sigma
// tolerance; both engines must succeed and agree within a fixed band.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/graph_analyzer.hpp"
#include "core/path.hpp"
#include "obs/registry.hpp"
#include "stats/random.hpp"
#include "timing/sta.hpp"

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

// Golden bits: the pipeline's outputs on s27 as recorded from a build
// of the default x86-64 target (SSE2, no FMA contraction). Every other
// bitwise pin compares two paths within one build; this one compares
// against the recorded tree, so it checks a change that claims bitwise
// identity. A change that moves numerics on purpose re-records the
// literals and says so in CHANGES.md.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bits(const char* what, const std::vector<double>& got,
                 const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(bits(got[i]), bits(want[i]))
        << what << "[" << i << "]: got " << std::hexfloat << got[i]
        << ", recorded " << want[i];
  }
}

// An s27 path Monte Carlo (16 samples, batch 8, 2 threads), an s27 graph
// Monte Carlo (top-4 paths, 8 samples), the s27 Gradient Analysis and one
// framework/SPICE sample pair -- the only item that reaches SPICE's gm and
// gds -- plus the deterministic engine counters of all of them.
TEST(Differential, PipelineBitsMatchTheRecordedParent) {
#if !defined(__x86_64__) || defined(__FMA__)
  GTEST_SKIP() << "golden bits are recorded for x86-64 SSE2 without FMA";
#endif
  const auto nl = timing::generate_benchmark(timing::find_benchmark("s27"));
  PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;
  model.std_wire_w = 0.33;
  model.std_wire_h = 0.33;
  obs::Registry reg;
  stats::RunOptions opt;
  opt.seed = 3;
  opt.registry = &reg;

  const PathAnalyzer pa(PathSpec::from_benchmark(
      circuit::technology_180nm(), nl, timing::longest_path(nl), 10));
  opt.samples = 16;
  opt.exec.batch = 8;
  opt.exec.threads = 2;
  expect_bits("path MC", pa.monte_carlo(model, opt).values,
              {0x1.c465b128180ddp-33, 0x1.c0340ddf28899p-33,
               0x1.e43980752cb0bp-33, 0x1.b4949beb5dcd5p-33,
               0x1.b2ecec05e22f3p-33, 0x1.bcae989587971p-33,
               0x1.d509da2a16e47p-33, 0x1.c2e78d4f7fbffp-33,
               0x1.c187cabf9f6f9p-33, 0x1.afacdde426ad5p-33,
               0x1.bb4af9179008fp-33, 0x1.b040f155bf401p-33,
               0x1.d589ed22eca23p-33, 0x1.ce0cc2bed4377p-33,
               0x1.cc3f7538e060fp-33, 0x1.cc1e1474fc5e7p-33});

  GraphSpec gspec;
  gspec.tech = circuit::technology_180nm();
  gspec.netlist = nl;
  gspec.top_k = 4;
  gspec.linear_elements_per_stage = 10;
  const GraphAnalyzer graph(std::move(gspec));
  opt.samples = 8;
  expect_bits("graph MC", graph.monte_carlo(model, opt).values,
              {0x1.130d7ea4d7a2p-32, 0x1.20413880dcb8ap-32,
               0x1.1e8164212ac0ep-32, 0x1.159b9be1d456ap-32,
               0x1.22151e46143fap-32, 0x1.1cbb88990996cp-32,
               0x1.0a63b215367f8p-32, 0x1.1801dc56119f6p-32});

  {
    obs::ScopedContext ctx(&reg, 0);
    const PathAnalyzer::GaResult ga = pa.gradient_analysis(model);
    expect_bits("GA", {ga.nominal_delay, ga.stddev},
                {0x1.c39d1da26ca09p-33, 0x1.555a2f4513558p-38});
    numeric::Vector w(pa.sources(model).size());
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = i % 2 ? -0.4 : 0.7;
    const PathSample sample = pa.sample_from_sources(model, w);
    const PathDelayResult fw = pa.framework_delay(sample);
    const PathDelayResult sp = pa.spice_delay(sample);
    expect_bits("framework/SPICE",
                {fw.delay, fw.output_slew, sp.delay, sp.output_slew},
                {0x1.8c3c9beb4ba81p-33, 0x1.607860cc0bf63p-35,
                 0x1.7d46819ca649dp-33, 0x1.72ce1e3dd8f06p-35});
  }
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("teta.chord_iterations"), 151180u);
  EXPECT_EQ(snap.counters.at("teta.steps"), 58135u);
  EXPECT_EQ(snap.counters.at("spice.newton_iterations"), 6984u);
}

/// FNV-1a over the raw (little-endian) bytes of every entry of m.
std::uint64_t fnv1a(std::uint64_t h, const numeric::Matrix& m) {
  for (std::size_t k = 0; k < m.rows() * m.cols(); ++k) {
    const std::uint64_t b = bits(m.data()[k]);
    for (int shift = 0; shift < 64; shift += 8) {
      h = (h ^ ((b >> shift) & 0xffU)) * 0x100000001b3ULL;
    }
  }
  return h;
}

// Golden bits of the effective-load library, one hash per cell over the
// nominal and sensitivity (G, C, B) entries of its stage-load ROMs at
// 1, 4, 12, 30 and 99 segments (0 to 98 internal nodes, so PACT's
// symmetric eigensolve runs both its Jacobi and its QL path) and two
// receiver caps. Recorded like the pipeline bits above.
TEST(Differential, StageLoadRomBitsMatchTheRecordedParent) {
#if !defined(__x86_64__) || defined(__FMA__)
  GTEST_SKIP() << "golden bits are recorded for x86-64 SSE2 without FMA";
#endif
  const std::vector<std::uint64_t> recorded = {
      0xba3bce82e457cc58, 0xa01cef36a1deead9, 0x8ea74b70b16d58b1,
      0x48d7c2e3ff999ed1, 0xb7eeada7fa276445, 0x10191128de6a8e11,
      0xa8784eeb6f900db2, 0xe266fc3a7dd1cc36, 0x7e76ed50f5789e4d,
      0x7e76ed50f5789e4d};
  const circuit::Technology tech = circuit::technology_180nm();
  const auto& lib = timing::cell_library();
  ASSERT_EQ(lib.size(), recorded.size());
  for (std::size_t cell = 0; cell < lib.size(); ++cell) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::size_t segments : {1, 4, 12, 30, 99}) {
      for (const double cap : {input_pin_cap(lib[cell], tech), 20e-15}) {
        const mor::VariationalRom rom =
            characterize_stage_load(lib[cell], tech, segments, cap, 6);
        for (std::size_t d = 0; d <= rom.num_params(); ++d) {
          const mor::ReducedModel& m =
              d == 0 ? rom.nominal() : rom.sensitivity(d - 1);
          h = fnv1a(fnv1a(fnv1a(h, m.g), m.c), m.b);
        }
      }
    }
    EXPECT_EQ(h, recorded[cell])
        << lib[cell].name << ": got 0x" << std::hex << h;
  }
}

}  // namespace
}  // namespace lcsf::core
