// Integration tests for the framework facade: stage-by-stage path
// evaluation vs the whole-path SPICE baseline, and the MC/GA statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <set>
#include <utility>

#include "core/graph_analyzer.hpp"
#include "core/path.hpp"
#include "numeric/fp_compare.hpp"
#include "obs/registry.hpp"
#include "sim/diagnostics.hpp"
#include "timing/graph.hpp"
#include "timing/sta.hpp"

namespace lcsf::core {
namespace {

using numeric::Vector;

std::size_t cell_index(const std::string& name) {
  const auto& lib = timing::cell_library();
  for (std::size_t k = 0; k < lib.size(); ++k) {
    if (lib[k].name == name) return k;
  }
  throw std::logic_error("unknown cell");
}

PathSpec small_path_spec(std::size_t linear_elements = 10) {
  PathSpec spec;
  spec.tech = circuit::technology_180nm();
  spec.cells = {cell_index("INV"), cell_index("NAND2"), cell_index("NOR2")};
  spec.linear_elements_per_stage = linear_elements;
  spec.stage_window = 1.0e-9;
  spec.dt = 2e-12;
  return spec;
}

TEST(PathAnalyzer, RejectsEmptyPath) {
  PathSpec spec;
  spec.tech = circuit::technology_180nm();
  EXPECT_THROW(PathAnalyzer{spec}, std::invalid_argument);
}

TEST(PathAnalyzer, FrameworkTracksSpiceAtNominal) {
  PathAnalyzer pa(small_path_spec());
  PathSample nominal;
  nominal.device.resize(pa.num_stages());
  const auto fw = pa.framework_delay(nominal);
  const auto sp = pa.spice_delay(nominal);
  EXPECT_GT(fw.delay, 10e-12);
  // Stage-by-stage abstraction (pin-cap receiver model) vs full coupling:
  // a few percent is the expected agreement band.
  EXPECT_NEAR(fw.delay, sp.delay, 0.06 * sp.delay);
  EXPECT_GT(fw.output_slew, 0.0);
}

TEST(PathAnalyzer, VariationsShiftBothEnginesTheSameWay) {
  PathAnalyzer pa(small_path_spec());
  PathSample nominal;
  nominal.device.resize(pa.num_stages());
  PathSample slow = nominal;
  for (auto& d : slow.device) d.delta_vt = 0.05;
  PathSample fast = nominal;
  for (auto& d : fast.device) d.delta_l = 0.15 * 0.18e-6;

  const double fw0 = pa.framework_delay(nominal).delay;
  const double sp0 = pa.spice_delay(nominal).delay;
  const double fw_slow = pa.framework_delay(slow).delay;
  const double sp_slow = pa.spice_delay(slow).delay;
  const double fw_fast = pa.framework_delay(fast).delay;
  const double sp_fast = pa.spice_delay(fast).delay;

  EXPECT_GT(fw_slow, fw0);
  EXPECT_GT(sp_slow, sp0);
  EXPECT_LT(fw_fast, fw0);
  EXPECT_LT(sp_fast, sp0);
  // Delay *shifts* agree closely (common-mode model error cancels).
  EXPECT_NEAR(fw_slow - fw0, sp_slow - sp0, 0.25 * (sp_slow - sp0));
}

TEST(PathAnalyzer, WireVariationMatters) {
  PathAnalyzer pa(small_path_spec(100));
  PathSample nominal;
  nominal.device.resize(pa.num_stages());
  PathSample narrow = nominal;
  narrow.wire.width = -0.2;  // -20% width -> more R, less C
  const double d0 = pa.framework_delay(nominal).delay;
  const double d1 = pa.framework_delay(narrow).delay;
  EXPECT_NE(d0, d1);
}

TEST(PathAnalyzer, SampleFromSourcesLayout) {
  PathAnalyzer pa(small_path_spec());
  PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;
  model.std_wire_w = 0.33;
  const std::size_t nsrc = 2 * pa.num_stages() + 1;
  EXPECT_EQ(pa.sources(model).size(), nsrc);

  Vector w(nsrc, 0.0);
  w[0] = 1.0;   // dl of stage 0
  w[1] = -1.0;  // vt of stage 0
  w[nsrc - 1] = 0.5;
  PathSample s = pa.sample_from_sources(model, w);
  EXPECT_NEAR(s.device[0].delta_l, 0.10 * 0.18e-6, 1e-15);
  EXPECT_NEAR(s.device[0].delta_vt, -0.10 * 0.45, 1e-12);
  EXPECT_DOUBLE_EQ(s.device[1].delta_l, 0.0);
  EXPECT_NEAR(s.wire.width, 0.5 * 0.25, 1e-12);
  EXPECT_THROW(pa.sample_from_sources(model, Vector(2, 0.0)),
               std::invalid_argument);
}

TEST(PathAnalyzer, MonteCarloAndGradientAgree) {
  PathAnalyzer pa(small_path_spec());
  PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;

  stats::RunOptions opt;
  opt.samples = 60;
  opt.seed = 17;
  const auto mc = pa.monte_carlo(model, opt);
  const auto ga = pa.gradient_analysis(model);

  EXPECT_GT(mc.stats.stddev(), 0.0);
  EXPECT_GT(ga.stddev, 0.0);
  // Means agree within a couple sigma-of-the-mean.
  EXPECT_NEAR(ga.nominal_delay, mc.stats.mean(),
              3.0 * mc.stats.stddev() / std::sqrt(60.0) +
                  0.05 * mc.stats.mean());
  // GA sigma is a first-order estimate: same order of magnitude as MC
  // (the paper's Table 5 shows GA tracking MC within ~10-40%).
  EXPECT_GT(ga.stddev, 0.4 * mc.stats.stddev());
  EXPECT_LT(ga.stddev, 1.8 * mc.stats.stddev());
  // GA cost: 1 + #stages*(2 slews + 2 per local source) evaluations.
  EXPECT_LT(ga.simulations, 10 * pa.num_stages());
}

TEST(PathAnalyzer, CorrelatedMonteCarloUsesFewerFactors) {
  PathAnalyzer pa(small_path_spec());
  PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;
  stats::RunOptions opt;
  opt.samples = 30;
  opt.seed = 9;

  // Strong spatial correlation: PCA needs far fewer factors than raw
  // sources (the Sec. 4.1.1 dimensionality reduction).
  const auto corr = pa.monte_carlo_correlated(model, 0.95, opt);
  EXPECT_EQ(corr.total_sources, 2 * pa.num_stages());
  EXPECT_LT(corr.factors_used, corr.total_sources);
  EXPECT_GT(corr.mc.stats.stddev(), 0.0);

  // Perfectly-correlated stages push the delay spread up relative to
  // independent stages (variances add linearly instead of in quadrature).
  const auto indep = pa.monte_carlo(model, opt);
  EXPECT_GT(corr.mc.stats.stddev(), indep.stats.stddev());
  try {
    (void)pa.monte_carlo_correlated(PathVariationModel{}, 0.5, opt);
    FAIL() << "expected SimulationError(kInvalidInput)";
  } catch (const sim::SimulationError& e) {
    EXPECT_EQ(e.kind(), sim::FailureKind::kInvalidInput);
  }
}

TEST(PathAnalyzer, FromBenchmarkBuildsConsistentSpec) {
  const auto& bspec = timing::find_benchmark("s27");
  const auto nl = timing::generate_benchmark(bspec);
  const auto path = timing::longest_path(nl);
  PathSpec spec = PathSpec::from_benchmark(circuit::technology_180nm(), nl,
                                           path, 10);
  EXPECT_EQ(spec.cells.size(), 5u);
  spec.stage_window = 1.0e-9;
  PathAnalyzer pa(spec);
  PathSample nominal;
  nominal.device.resize(pa.num_stages());
  const auto fw = pa.framework_delay(nominal);
  EXPECT_GT(fw.delay, 0.0);
  // The element knob becomes (10 - 2) / 2 RC segments per stage wire.
  EXPECT_EQ(spec.linear_elements_per_stage, 10u);
  EXPECT_EQ(spec.wire_segments(), 4u);
}

TEST(PathAnalyzer, GradientAnalysisWithGlobalWireSources) {
  // Long wires so the wire geometry actually matters.
  PathAnalyzer pa(small_path_spec(200));
  PathVariationModel model;
  model.std_dl = 0.33;
  model.std_wire_w = 0.33;
  model.std_wire_h = 0.33;

  const auto ga = pa.gradient_analysis(model);
  const std::size_t nsrc = pa.num_stages() + 2;
  ASSERT_EQ(ga.gradient.size(), nsrc);
  // The global wire sources (last two entries) must carry nonzero
  // sensitivity on a wire-dominated path.
  EXPECT_NE(ga.gradient[nsrc - 2], 0.0);
  EXPECT_NE(ga.gradient[nsrc - 1], 0.0);

  // And GA sigma must track MC with the same mixed model.
  stats::RunOptions opt;
  opt.samples = 50;
  opt.seed = 77;
  const auto mc = pa.monte_carlo(model, opt);
  EXPECT_GT(ga.stddev, 0.3 * mc.stats.stddev());
  EXPECT_LT(ga.stddev, 2.0 * mc.stats.stddev());
  EXPECT_NEAR(ga.nominal_delay, mc.stats.mean(), 0.05 * mc.stats.mean());
}

TEST(PathAnalyzer, WorstCaseCornerExceedsNominalAndQuantile) {
  PathAnalyzer pa(small_path_spec());
  PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;
  const auto ga = pa.gradient_analysis(model);
  const auto corner = pa.worst_case_corner(model, ga, 3.0);
  EXPECT_GT(corner.delay, ga.nominal_delay);
  // The all-corners point is beyond the 3-sigma Gaussian quantile.
  EXPECT_GT(corner.delay, ga.nominal_delay + 3.0 * ga.stddev);
  // Corner vector has an entry per source, each at +/- 3 sigma.
  for (double w : corner.corner) {
    EXPECT_NEAR(std::abs(w), 3.0 * 0.33, 1e-12);
  }
}

TEST(PathAnalyzer, LinearElementKnob) {
  PathAnalyzer few(small_path_spec(10));
  PathAnalyzer many(small_path_spec(500));
  EXPECT_GT(small_path_spec(500).wire_segments(),
            10 * small_path_spec(10).wire_segments());
  // Longer wires -> longer delays.
  PathSample nominal;
  nominal.device.resize(3);
  EXPECT_GT(many.framework_delay(nominal).delay,
            few.framework_delay(nominal).delay);
}

// A path is a one-path graph walked in sample blocks: after a block no
// lane holds a memo entry or a net arrival.
TEST(PathAnalyzer, BlockWalkLeavesNoLaneState) {
  const PathAnalyzer pa(small_path_spec());
  PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;
  std::vector<PathSample> samples;
  for (std::size_t l = 0; l < 4; ++l) {
    const Vector w(pa.sources(model).size(), 0.2 * static_cast<double>(l));
    samples.push_back(pa.sample_from_sources(model, w));
  }
  BatchWorkspace bws;
  std::vector<GraphAnalyzer::SampleResult> res(samples.size());
  std::vector<stats::BatchSlot> out(samples.size());
  pa.graph().evaluate(samples, bws, res, out);
  for (std::size_t l = 0; l < samples.size(); ++l) {
    ASSERT_FALSE(out[l].failed) << "lane " << l;
    EXPECT_TRUE(bws.lane(l).stage_cache.empty()) << "lane " << l;
    EXPECT_TRUE(bws.lane(l).net_arrival.empty()) << "lane " << l;
    EXPECT_EQ(res[l].stages_simulated, pa.num_stages());
    EXPECT_TRUE(numeric::exact_eq(res[l].endpoints[0].delay,
                                  pa.framework_delay(samples[l]).delay));
  }
}

TEST(PathAnalyzer, MonteCarloRecordsNoGraphCounters) {
  const PathAnalyzer pa(small_path_spec());
  PathVariationModel model;
  model.std_vt = 0.33;
  stats::RunOptions opt;
  opt.samples = 5;  // one block of 4 and a one-sample remainder
  opt.exec.threads = 1;
  opt.exec.batch = 4;
  obs::Registry reg;
  {
    obs::ScopedContext ctx(&reg, 0);
    (void)pa.monte_carlo(model, opt);
  }
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("stats.mc.samples"), 5u);
  for (const auto& [name, value] : snap.counters) {
    EXPECT_NE(name.rfind("stats.graph.", 0), 0u) << name << " = " << value;
  }
}

// serve::DesignCache budgets with memory_bytes(): a graph analyzer must
// count its stage models, its netlist copy and its timing graph.
TEST(GraphAnalyzer, MemoryBytesCoverNetlistAndTimingGraph) {
  GraphSpec spec;
  spec.tech = circuit::technology_180nm();
  spec.netlist = timing::generate_benchmark(timing::find_benchmark("s1423"));
  spec.top_k = 16;
  const GraphAnalyzer ga(std::move(spec));
  std::size_t stage_bytes = 0;
  for (std::size_t slot = 0; slot < ga.subgraph_gates().size(); ++slot) {
    stage_bytes += ga.stage_model(slot).memory_bytes();
  }
  const timing::GateNetlist& nl = ga.spec().netlist;
  std::size_t netlist_bytes =
      nl.gates.capacity() * sizeof(timing::Gate) +
      (nl.primary_inputs.capacity() + nl.latch_outputs.capacity() +
       nl.latch_inputs.capacity()) *
          sizeof(std::size_t);
  for (const timing::Gate& g : nl.gates) {
    netlist_bytes += g.inputs.capacity() * sizeof(std::size_t);
  }
  const timing::TimingGraph& graph = ga.graph();
  const std::size_t graph_bytes =
      (graph.topo_order().capacity() + graph.net_driver().capacity() +
       graph.arrival().capacity()) *
      sizeof(std::size_t);
  EXPECT_GE(ga.memory_bytes(), stage_bytes + netlist_bytes + graph_bytes);

  // The path facade counts its one-path graph, chain netlist included.
  const PathAnalyzer pa(small_path_spec());
  EXPECT_GE(pa.memory_bytes(), pa.graph().memory_bytes());
  EXPECT_GE(pa.graph().memory_bytes(),
            pa.graph().spec().netlist.memory_bytes());
}

bool same_bits(const numeric::Matrix& a, const numeric::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

bool same_model(const mor::ReducedModel& a, const mor::ReducedModel& b) {
  return a.num_ports == b.num_ports && same_bits(a.g, b.g) &&
         same_bits(a.c, b.c) && same_bits(a.b, b.b);
}

// The analyzers characterize every block through one shared PACT memo;
// each stage ROM must still be bitwise the standalone, unmemoized one.
void expect_standalone_rom(const StageModel& st,
                           const circuit::Technology& tech,
                           std::size_t segments, std::size_t modes,
                           std::size_t slot) {
  const mor::VariationalRom ref = characterize_stage_load(
      *st.cell, tech, segments, st.receiver_cap, modes);
  ASSERT_EQ(st.load.num_params(), ref.num_params()) << "slot " << slot;
  EXPECT_TRUE(same_model(st.load.nominal(), ref.nominal())) << "slot " << slot;
  for (std::size_t i = 0; i < ref.num_params(); ++i) {
    EXPECT_TRUE(same_model(st.load.sensitivity(i), ref.sensitivity(i)))
        << "slot " << slot << " direction " << i;
  }
}

timing::GateNetlist s208() {
  return timing::generate_benchmark(timing::find_benchmark("s208"));
}

PathSpec s208_path_spec() {
  const timing::GateNetlist nl = s208();
  return PathSpec::from_benchmark(circuit::technology_180nm(), nl,
                                  timing::longest_path(nl), 100);
}

GraphSpec s208_graph_spec() {
  GraphSpec spec;
  spec.tech = circuit::technology_180nm();
  spec.netlist = s208();
  spec.top_k = 4;
  spec.linear_elements_per_stage = 100;
  return spec;
}

// 100 linear elements per stage -> (100 - 2) / 2 wire segments.
constexpr std::size_t kSegments = 49;

TEST(CharacterizationReuse, PathStageRomsMatchStandaloneCharacterization) {
  const PathAnalyzer pa(s208_path_spec());
  for (std::size_t k = 0; k < pa.num_stages(); ++k) {
    expect_standalone_rom(pa.stage_model(k), pa.spec().tech, kSegments,
                          pa.spec().rom_internal_modes, k);
  }
}

TEST(CharacterizationReuse, GraphStageRomsMatchStandaloneCharacterization) {
  const GraphAnalyzer ga(s208_graph_spec());
  for (std::size_t slot = 0; slot < ga.subgraph_gates().size(); ++slot) {
    expect_standalone_rom(ga.stage_model(slot), ga.spec().tech, kSegments,
                          ga.spec().rom_internal_modes, slot);
  }
}

// One wire geometry per analyzer: the nominal pencil and the four
// (W, H) +/- finite-difference pencils are the only distinct internal
// eigenproblems, whatever the number of (cell, load) blocks.
TEST(CharacterizationReuse, FiveEigensolvesPerSingleGeometryAnalyzer) {
  obs::Registry path_reg;
  std::optional<PathAnalyzer> pa;
  {
    obs::ScopedContext ctx(&path_reg, 0);
    pa.emplace(s208_path_spec());
  }
  std::set<std::pair<const timing::CellTemplate*, double>> blocks;
  for (std::size_t k = 0; k < pa->num_stages(); ++k) {
    blocks.emplace(pa->stage_model(k).cell, pa->stage_model(k).receiver_cap);
  }
  ASSERT_GT(blocks.size(), 1u);
  const obs::Snapshot ps = path_reg.snapshot();
  EXPECT_EQ(ps.counters.at("mor.pact.eigensolves"), 5u);
  EXPECT_EQ(ps.counters.at("mor.pact.memo_hits"), 5 * (blocks.size() - 1));

  obs::Registry graph_reg;
  std::optional<GraphAnalyzer> ga;
  {
    obs::ScopedContext ctx(&graph_reg, 0);
    ga.emplace(s208_graph_spec());
  }
  ASSERT_GT(ga->num_blocks(), 1u);
  const obs::Snapshot gs = graph_reg.snapshot();
  EXPECT_EQ(gs.counters.at("mor.pact.eigensolves"), 5u);
  EXPECT_EQ(gs.counters.at("mor.pact.memo_hits"),
            5 * (ga->num_blocks() - 1));
}

}  // namespace
}  // namespace lcsf::core
