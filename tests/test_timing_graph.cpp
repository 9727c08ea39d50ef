// Tests for the multi-path timing DAG (timing::TimingGraph), the SSTA
// algebra (timing/ssta.hpp), and the shared-stage graph engine
// (core::GraphAnalyzer) -- see docs/timing_graph.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/graph_analyzer.hpp"
#include "core/path.hpp"
#include "numeric/fp_compare.hpp"
#include "sim/diagnostics.hpp"
#include "stats/random.hpp"
#include "timing/graph.hpp"
#include "timing/ssta.hpp"
#include "timing/sta.hpp"

namespace {

using namespace lcsf;
using timing::Gate;
using timing::GateNetlist;
using timing::TimingGraph;
using timing::TimingPath;
namespace ssta = timing::ssta;

std::size_t cell_index(const std::string& name) {
  const auto& lib = timing::cell_library();
  for (std::size_t k = 0; k < lib.size(); ++k) {
    if (lib[k].name == name) return k;
  }
  ADD_FAILURE() << "no cell " << name;
  return 0;
}

/// PI0 -> G(INV) -> G(NAND2, side PI1) -> latch, stored in REVERSE
/// topological order to exercise the levelization.
GateNetlist unsorted_netlist() {
  GateNetlist nl;
  nl.name = "unsorted";
  nl.num_nets = 4;  // 0=PI0 1=PI1 2=INVout 3=NANDout
  nl.primary_inputs = {0, 1};
  nl.gates.push_back({cell_index("NAND2"), {2, 1}, 3});  // consumer first
  nl.gates.push_back({cell_index("INV"), {0}, 2});
  nl.latch_inputs = {3};
  return nl;
}

TEST(TimingGraph, LevelizesGatesStoredOutOfOrder) {
  const GateNetlist nl = unsorted_netlist();
  const TimingGraph g(nl);

  // Gate 1 (the INV) must be processed before gate 0 (the NAND2).
  ASSERT_EQ(g.topo_order().size(), 2u);
  EXPECT_EQ(g.topo_order()[0], 1u);
  EXPECT_EQ(g.topo_order()[1], 0u);

  EXPECT_EQ(g.arrival()[2], 1u);
  EXPECT_EQ(g.arrival()[3], 2u);
  EXPECT_EQ(g.net_driver()[3], 0u);
  EXPECT_EQ(g.net_driver()[0], TimingGraph::kNone);
}

TEST(TimingGraph, CycleThrowsClassifiedInvalidInput) {
  GateNetlist nl;
  nl.num_nets = 3;  // 0=PI, 1<->2 cycle
  nl.primary_inputs = {0};
  nl.gates.push_back({cell_index("NAND2"), {0, 2}, 1});
  nl.gates.push_back({cell_index("INV"), {1}, 2});
  nl.latch_inputs = {1};
  try {
    TimingGraph g(nl);
    FAIL() << "cycle not detected";
  } catch (const sim::SimulationError& e) {
    EXPECT_EQ(e.diagnostics().kind, sim::FailureKind::kInvalidInput);
  }
  EXPECT_THROW(timing::longest_path(nl), sim::SimulationError);
}

TEST(TimingGraph, MultiDriverAndOutOfRangeThrow) {
  GateNetlist two_drivers;
  two_drivers.num_nets = 2;
  two_drivers.primary_inputs = {0};
  two_drivers.gates.push_back({cell_index("INV"), {0}, 1});
  two_drivers.gates.push_back({cell_index("INV"), {0}, 1});
  two_drivers.latch_inputs = {1};
  EXPECT_THROW(TimingGraph{two_drivers}, sim::SimulationError);

  GateNetlist oob;
  oob.num_nets = 2;
  oob.primary_inputs = {0};
  oob.gates.push_back({cell_index("INV"), {5}, 1});
  oob.latch_inputs = {1};
  EXPECT_THROW(TimingGraph{oob}, sim::SimulationError);
}

/// Diamond with a shared prefix: PI0 -> G0(INV), whose output fans out
/// to a short branch (G1) and a long branch (G2 -> G3) that reconverge
/// in a NAND2 (G4) feeding the latch. The two pin-accurate paths share
/// G0 (identical arrival -> one stage memo hit per sample) and both
/// drive the merge gate G4 with different arrivals.
GateNetlist diamond_netlist() {
  GateNetlist nl;
  nl.name = "diamond";
  nl.num_nets = 6;  // 0=PI 1=common 2=short 3=long1 4=long2 5=merge
  nl.primary_inputs = {0};
  const std::size_t inv = cell_index("INV");
  const std::size_t nand2 = cell_index("NAND2");
  nl.gates.push_back({inv, {0}, 1});        // G0 shared prefix
  nl.gates.push_back({inv, {1}, 2});        // G1 short branch
  nl.gates.push_back({inv, {1}, 3});        // G2 long branch 1/2
  nl.gates.push_back({inv, {3}, 4});        // G3 long branch 2/2
  nl.gates.push_back({nand2, {2, 4}, 5});   // G4 merge
  nl.latch_inputs = {5};
  return nl;
}

TEST(TimingGraph, KMostCriticalPathsOrderedAndDeterministic) {
  const GateNetlist nl = diamond_netlist();
  const TimingGraph g(nl);
  const auto paths = g.k_most_critical_paths(8);
  ASSERT_EQ(paths.size(), 2u);  // only two distinct pin-accurate paths

  // Most critical first: the 4-stage branch through the long side, then
  // the 3-stage short side.
  EXPECT_EQ(paths[0].length(), 4u);
  EXPECT_EQ(paths[1].length(), 3u);
  EXPECT_EQ(paths[0].end_net, 5u);
  EXPECT_EQ(paths[0].gates, (std::vector<std::size_t>{0, 2, 3, 4}));
  EXPECT_EQ(paths[0].switching_pin[3], 1u);  // arrives on NAND pin 1
  EXPECT_EQ(paths[1].gates, (std::vector<std::size_t>{0, 1, 4}));

  // Deterministic: a second enumeration is identical.
  const auto again = g.k_most_critical_paths(8);
  ASSERT_EQ(again.size(), paths.size());
  for (std::size_t k = 0; k < paths.size(); ++k) {
    EXPECT_EQ(again[k].gates, paths[k].gates);
    EXPECT_EQ(again[k].switching_pin, paths[k].switching_pin);
  }

  // k truncates from the top.
  const auto top1 = g.k_most_critical_paths(1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].gates, paths[0].gates);
}

TEST(Ssta, SumAndVariance) {
  ssta::CanonicalForm a = ssta::CanonicalForm::constant(1.0, 2);
  a.sens = {0.3, 0.4};
  a.local = 0.5;
  ssta::CanonicalForm b = ssta::CanonicalForm::constant(2.0, 2);
  b.sens = {0.1, 0.0};
  b.local = 0.2;

  const auto s = ssta::sum(a, b);
  EXPECT_NEAR(s.mean, 3.0, 1e-15);
  EXPECT_NEAR(s.sens[0], 0.4, 1e-15);
  EXPECT_NEAR(s.sens[1], 0.4, 1e-15);
  EXPECT_NEAR(s.local * s.local, 0.25 + 0.04, 1e-15);
  EXPECT_NEAR(ssta::variance(s),
              0.4 * 0.4 + 0.4 * 0.4 + 0.25 + 0.04, 1e-15);
  EXPECT_NEAR(ssta::covariance(a, b), 0.3 * 0.1, 1e-15);
}

TEST(Ssta, ClarkMaxMatchesMonteCarlo) {
  // Two correlated forms over one shared source.
  ssta::CanonicalForm a = ssta::CanonicalForm::constant(1.0, 1);
  a.sens = {0.30};
  a.local = 0.10;
  ssta::CanonicalForm b = ssta::CanonicalForm::constant(1.15, 1);
  b.sens = {0.15};
  b.local = 0.25;
  const auto m = ssta::stat_max(a, b);

  const std::size_t n = 200000;
  double s1 = 0.0, s2 = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    stats::SplitMix64 draw = stats::sample_stream(99, k);
    const auto normal = [&] {
      return stats::inverse_normal_cdf(draw.uniform_open());
    };
    const double x = normal();
    const double va = a.mean + a.sens[0] * x + a.local * normal();
    const double vb = b.mean + b.sens[0] * x + b.local * normal();
    const double v = std::max(va, vb);
    s1 += v;
    s2 += v * v;
  }
  const double mc_mean = s1 / static_cast<double>(n);
  const double mc_var = s2 / static_cast<double>(n) - mc_mean * mc_mean;
  EXPECT_NEAR(m.mean, mc_mean, 3e-3);
  EXPECT_NEAR(ssta::variance(m), mc_var, 3e-3);

  // With no independent residual the two arguments are perfectly
  // correlated and max(A, A) == A exactly (theta degenerates to zero).
  ssta::CanonicalForm c = a;
  c.local = 0.0;
  const auto same = ssta::stat_max(c, c);
  EXPECT_NEAR(same.mean, c.mean, 1e-12);
  EXPECT_NEAR(ssta::variance(same), ssta::variance(c), 1e-12);
}

/// Straight 3-stage chain: INV -> NAND2 -> INV into a latch. One path,
/// no sharing -- the graph engine must reproduce PathAnalyzer bitwise.
GateNetlist chain_netlist() {
  GateNetlist nl;
  nl.name = "chain3";
  nl.num_nets = 5;  // 0=PI 1..3 stage outputs, 4=tie-high side pin
  nl.primary_inputs = {0, 4};
  nl.gates.push_back({cell_index("INV"), {0}, 1});
  nl.gates.push_back({cell_index("NAND2"), {1, 4}, 2});
  nl.gates.push_back({cell_index("INV"), {2}, 3});
  nl.latch_inputs = {3};
  return nl;
}

TEST(GraphAnalyzer, OnePathChainMatchesPathAnalyzerBitwise) {
  const GateNetlist nl = chain_netlist();

  core::GraphSpec gspec;
  gspec.tech = circuit::technology_180nm();
  gspec.netlist = nl;
  gspec.top_k = 1;  // carry only the longest path (the 3-stage chain)
  const core::GraphAnalyzer graph(std::move(gspec));
  ASSERT_EQ(graph.paths().size(), 1u);
  ASSERT_EQ(graph.subgraph_gates().size(), 3u);

  const TimingPath path = timing::longest_path(nl);
  core::PathSpec pspec = core::PathSpec::from_benchmark(
      circuit::technology_180nm(), nl, path, 10);
  const core::PathAnalyzer single(pspec);

  core::PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;
  model.std_wire_w = 0.33;
  model.std_wire_h = 0.33;
  // One source map: same sources, same physical samples.
  const auto graph_src = graph.sources(model);
  const auto single_src = single.sources(model);
  ASSERT_EQ(graph_src.size(), single_src.size());
  for (std::size_t i = 0; i < graph_src.size(); ++i) {
    EXPECT_TRUE(numeric::exact_eq(graph_src[i].sigma, single_src[i].sigma));
  }

  core::GraphAnalyzer::Workspace ws;
  auto stream = stats::sample_stream(11, 0, 0);
  for (std::size_t s = 0; s < 3; ++s) {
    numeric::Vector w(graph_src.size());
    for (double& x : w) {
      x = stats::to_normal(stream.uniform_open(), 0.0, 1.0 / 3.0);
    }
    const core::GraphSample gs = graph.sample_from_sources(model, w);
    const core::PathSample ps = single.sample_from_sources(model, w);
    ASSERT_EQ(gs.device.size(), ps.device.size());
    for (std::size_t k = 0; k < ps.device.size(); ++k) {
      EXPECT_TRUE(
          numeric::exact_eq(gs.device[k].delta_l, ps.device[k].delta_l));
      EXPECT_TRUE(
          numeric::exact_eq(gs.device[k].delta_vt, ps.device[k].delta_vt));
    }
    EXPECT_TRUE(numeric::exact_eq(gs.wire.width, ps.wire.width));
    EXPECT_TRUE(
        numeric::exact_eq(gs.wire.ild_thickness, ps.wire.ild_thickness));
    EXPECT_FALSE(numeric::exact_zero(ps.wire.width));
    EXPECT_FALSE(numeric::exact_zero(ps.wire.ild_thickness));

    const auto r = graph.evaluate(gs, ws);
    const auto ref = single.framework_delay(ps, ws);
    // Same stages, same sample, same engine: bitwise identical.
    EXPECT_TRUE(numeric::exact_eq(r.max_delay, ref.delay))
        << r.max_delay << " vs " << ref.delay;
    EXPECT_EQ(r.stages_simulated, 3u);
    EXPECT_EQ(r.stage_cache_hits, 0u);
    EXPECT_EQ(r.merges, 0u);

    const auto brute = graph.per_path_delays(
        graph.sample_from_sources(model, w), ws);
    ASSERT_EQ(brute.size(), 1u);
    EXPECT_TRUE(numeric::exact_eq(brute[0], r.max_delay));
  }
}

TEST(GraphAnalyzer, DiamondMergeMatchesBruteForcePerPathMax) {
  core::GraphSpec gspec;
  gspec.tech = circuit::technology_180nm();
  gspec.netlist = diamond_netlist();
  gspec.top_k = 4;
  const core::GraphAnalyzer graph(std::move(gspec));
  ASSERT_EQ(graph.paths().size(), 2u);

  core::PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;

  core::GraphAnalyzer::Workspace ws;
  auto stream = stats::sample_stream(13, 0, 0);
  for (std::size_t s = 0; s < 4; ++s) {
    numeric::Vector w(graph.sources(model).size());
    for (double& x : w) {
      x = stats::to_normal(stream.uniform_open(), 0.0, 1.0 / 3.0);
    }
    const auto sample = graph.sample_from_sources(model, w);
    const auto r = graph.evaluate(sample, ws);
    const auto brute = graph.per_path_delays(sample, ws);
    const double brute_max =
        *std::max_element(brute.begin(), brute.end());
    // The memoized statistical max must track the per-path max to within
    // the slew-coupling error at the merge (docs/timing_graph.md); on
    // this DAG the long branch dominates by a full gate delay, so the
    // disagreement is tiny.
    EXPECT_NEAR(r.max_delay, brute_max, 0.02 * brute_max);
    EXPECT_GT(r.stage_cache_hits, 0u);
    EXPECT_GT(r.merges, 0u);
  }
}

TEST(GraphAnalyzer, MonteCarloIsThreadCountInvariant) {
  core::GraphSpec gspec;
  gspec.tech = circuit::technology_180nm();
  gspec.netlist = diamond_netlist();
  gspec.top_k = 4;
  const core::GraphAnalyzer graph(std::move(gspec));

  core::PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;

  auto run = [&](std::size_t threads) {
    stats::RunOptions opt;
    opt.samples = 6;
    opt.seed = 21;
    opt.exec.threads = threads;
    return graph.monte_carlo(model, opt);
  };
  const auto t1 = run(1);
  const auto t2 = run(2);
  const auto t8 = run(8);
  ASSERT_EQ(t1.values.size(), 6u);
  for (std::size_t k = 0; k < t1.values.size(); ++k) {
    EXPECT_TRUE(numeric::exact_eq(t1.values[k], t2.values[k]));
    EXPECT_TRUE(numeric::exact_eq(t1.values[k], t8.values[k]));
  }
}

/// The walk on a block of samples (results into `res`) against one-lane
/// evaluate calls: bitwise equal values, endpoints and counts, and the
/// failing lane's diagnostics.
void expect_block_matches_one_lane(
    const core::GraphAnalyzer& graph,
    const std::vector<core::GraphSample>& samples, std::size_t failing,
    std::vector<core::GraphAnalyzer::SampleResult>& res) {
  core::BatchWorkspace bws;
  res.resize(samples.size());
  std::vector<stats::BatchSlot> out(samples.size());
  graph.evaluate(samples, bws, res, out);
  // Memo entries end at their gate's last visit and arrivals at the walk's
  // end, so no lane keeps state between walks.
  for (std::size_t l = 0; l < samples.size(); ++l) {
    EXPECT_TRUE(bws.lane(l).stage_cache.empty()) << "lane " << l;
    EXPECT_TRUE(bws.lane(l).net_arrival.empty()) << "lane " << l;
  }
  core::GraphAnalyzer::Workspace ws;
  for (std::size_t l = 0; l < samples.size(); ++l) {
    SCOPED_TRACE("lane " + std::to_string(l));
    if (l == failing) {
      try {
        (void)graph.evaluate(samples[l], ws);
        ADD_FAILURE() << "expected a failed stage";
      } catch (const sim::SimulationError& e) {
        ASSERT_TRUE(out[l].failed);
        EXPECT_EQ(out[l].diag.kind, e.diagnostics().kind);
        EXPECT_EQ(out[l].diag.message(), e.diagnostics().message());
        EXPECT_NE(e.diagnostics().detail.find("non-positive"),
                  std::string::npos)
            << e.diagnostics().detail;
      }
      continue;
    }
    const auto one = graph.evaluate(samples[l], ws);
    ASSERT_FALSE(out[l].failed) << out[l].diag.message();
    EXPECT_TRUE(numeric::exact_eq(res[l].max_delay, one.max_delay));
    ASSERT_EQ(res[l].endpoints.size(), one.endpoints.size());
    for (std::size_t e = 0; e < one.endpoints.size(); ++e) {
      EXPECT_EQ(res[l].endpoints[e].net, one.endpoints[e].net);
      EXPECT_TRUE(numeric::exact_eq(res[l].endpoints[e].delay,
                                    one.endpoints[e].delay));
      EXPECT_TRUE(numeric::exact_eq(res[l].endpoints[e].slew,
                                    one.endpoints[e].slew));
    }
    EXPECT_EQ(res[l].stages_simulated, one.stages_simulated);
    EXPECT_EQ(res[l].stage_cache_hits, one.stage_cache_hits);
    EXPECT_EQ(res[l].merges, one.merges);
  }
  EXPECT_TRUE(ws.stage_cache.empty());
  EXPECT_TRUE(ws.net_arrival.empty());
}

core::PathVariationModel device_and_wire_model() {
  core::PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;
  model.std_wire_w = 0.33;
  model.std_wire_h = 0.33;
  return model;
}

/// A device the stage circuit cannot hold: non-positive effective length.
void break_device(core::GraphSample& sample, std::size_t slot) {
  sample.device[slot].delta_l = 2.0 * circuit::technology_180nm().lmin;
}

TEST(GraphAnalyzer, BlockWalkMatchesOneLaneCallsOnS208) {
  core::GraphSpec gspec;
  gspec.tech = circuit::technology_180nm();
  gspec.netlist = timing::generate_benchmark(timing::find_benchmark("s208"));
  gspec.top_k = 8;
  const core::GraphAnalyzer graph(std::move(gspec));
  const core::PathVariationModel model = device_and_wire_model();

  std::vector<core::GraphSample> samples;
  auto stream = stats::sample_stream(17, 0, 0);
  for (std::size_t l = 0; l < 8; ++l) {
    numeric::Vector w(graph.sources(model).size());
    for (double& x : w) {
      x = stats::to_normal(stream.uniform_open(), 0.0, 1.0 / 3.0);
    }
    samples.push_back(graph.sample_from_sources(model, w));
  }
  // Lane 5 fails at the last path's last gate, deep into the walk.
  const std::size_t last_gate = graph.paths().back().gates.back();
  const auto& sub = graph.subgraph_gates();
  break_device(samples[5], static_cast<std::size_t>(
      std::lower_bound(sub.begin(), sub.end(), last_gate) - sub.begin()));

  std::vector<core::GraphAnalyzer::SampleResult> res;
  expect_block_matches_one_lane(graph, samples, 5, res);
  std::size_t hits = 0;
  std::size_t merges = 0;
  for (const auto& r : res) {
    hits += r.stage_cache_hits;
    merges += r.merges;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(merges, 0u);
}

/// Reconvergent branches of opposite inversion parity: G0 (INV) feeds a
/// two-INV branch A (G1, G2) and a one-INV branch B (G3), which
/// reconverge in a NAND2 (G4) at net 5, rising from A and falling from B.
/// Net 5 drives a long suffix (G5, G6) and a short one (G7). The three
/// most critical paths are A-long, B-long and A-short, so G7 is first
/// visited after both branches merged at net 5: every lane misses the
/// memo there, and its input rises where A wins the statistical max and
/// falls where B wins. Extra INV loads on net 4 slow branch B: with 1 all
/// lanes below rise, with 4 all fall.
GateNetlist reconvergent_netlist(std::size_t extra_loads) {
  GateNetlist nl;
  nl.name = "reconvergent";
  nl.num_nets = 9 + extra_loads;
  nl.primary_inputs = {0};
  const std::size_t inv = cell_index("INV");
  nl.gates.push_back({inv, {0}, 1});                     // G0
  nl.gates.push_back({inv, {1}, 2});                     // G1 branch A
  nl.gates.push_back({inv, {2}, 3});                     // G2 branch A
  nl.gates.push_back({inv, {1}, 4});                     // G3 branch B
  nl.gates.push_back({cell_index("NAND2"), {3, 4}, 5});  // G4 merge
  nl.gates.push_back({inv, {5}, 6});                     // G5 long
  nl.gates.push_back({inv, {6}, 7});                     // G6 long
  nl.gates.push_back({inv, {5}, 8});                     // G7 short
  for (std::size_t k = 0; k < extra_loads; ++k) {
    nl.gates.push_back({inv, {4}, 9 + k});
  }
  nl.latch_inputs = {7, 8};
  return nl;
}

TEST(GraphAnalyzer, BlockWalkGroupsMissesByInputDirection) {
  core::GraphSpec gspec;
  gspec.tech = circuit::technology_180nm();
  gspec.netlist = reconvergent_netlist(3);
  gspec.top_k = 3;
  const core::GraphAnalyzer graph(std::move(gspec));
  ASSERT_EQ(graph.paths().size(), 3u);
  EXPECT_EQ(graph.paths()[2].gates,
            (std::vector<std::size_t>{0, 1, 2, 4, 7}));
  const core::PathVariationModel model = device_and_wire_model();

  // Even lanes slow branch B and speed up branch A, odd lanes the
  // reverse; the stream adds a small jitter everywhere.
  std::vector<core::GraphSample> samples;
  auto stream = stats::sample_stream(23, 0, 0);
  for (std::size_t l = 0; l < 8; ++l) {
    numeric::Vector w(graph.sources(model).size());
    for (double& x : w) {
      x = stats::to_normal(stream.uniform_open(), 0.0, 0.1);
    }
    const double b_slow = l % 2 == 0 ? 1.0 : -1.0;
    w[2 * 3 + 1] = b_slow;   // vt of G3
    w[2 * 1 + 1] = -b_slow;  // vt of G1
    w[2 * 2 + 1] = -b_slow;  // vt of G2
    samples.push_back(graph.sample_from_sources(model, w));
  }
  break_device(samples[6], 5);  // lane 6 fails at G5, first path

  std::vector<core::GraphAnalyzer::SampleResult> res;
  expect_block_matches_one_lane(graph, samples, 6, res);
  // G7's input direction per lane, from one-lane walks (the last
  // position of the visit order): both directions occur.
  std::size_t rising = 0;
  std::size_t falling = 0;
  for (std::size_t l = 0; l < samples.size(); ++l) {
    if (l == 6) continue;
    core::BatchWorkspace bws;
    core::GraphAnalyzer::SampleResult r;
    stats::BatchSlot slot;
    std::vector<timing::RampParams> inputs;
    graph.evaluate({&samples[l], 1}, bws, {&r, 1}, {&slot, 1}, &inputs);
    ASSERT_FALSE(slot.failed);
    ASSERT_EQ(inputs.size(), 16u);
    ++(inputs.back().rising ? rising : falling);
  }
  EXPECT_GT(rising, 0u);
  EXPECT_GT(falling, 0u);
}

TEST(GraphAnalyzer, BlockModelsAndAnalyticEndpoints) {
  core::GraphSpec gspec;
  gspec.tech = circuit::technology_180nm();
  gspec.netlist = diamond_netlist();
  gspec.top_k = 4;
  const core::GraphAnalyzer graph(std::move(gspec));
  // Four INVs (G1 and G3 both drive one NAND2 pin, hence share a block)
  // plus the merge NAND: fewer blocks than subgraph gates proves
  // cross-instantiation reuse.
  EXPECT_EQ(graph.subgraph_gates().size(), 5u);
  EXPECT_LT(graph.num_blocks(), graph.subgraph_gates().size());

  core::PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;
  model.std_wire_w = 0.33;
  model.std_wire_h = 0.33;
  const auto blocks = graph.block_models(model);
  ASSERT_EQ(blocks.size(), graph.num_blocks());
  const auto finite_nonzero = [](double x) {
    return std::isfinite(x) && !numeric::exact_zero(x);
  };
  for (const auto& b : blocks) {
    EXPECT_GT(b.nominal_delay, 0.0);
    EXPECT_GT(b.nominal_slew, 0.0);
    // Finite, non-degenerate device sensitivities (dl and vt can have
    // opposite signs and nearly cancel on lightly loaded INVs).
    EXPECT_GT(std::abs(b.d_delay_dl) + std::abs(b.d_delay_vt), 0.0);
    EXPECT_TRUE(finite_nonzero(b.d_delay_wire_w)) << b.d_delay_wire_w;
    EXPECT_TRUE(finite_nonzero(b.d_delay_wire_h)) << b.d_delay_wire_h;
    EXPECT_TRUE(std::isfinite(b.d_delay_slew));
  }

  // The analytic composition must land near the per-sample engine at
  // nominal. The block models are characterized at the spec input slew
  // while the real chain sharpens the edge stage by stage, so this is a
  // first-order agreement, not an exact one (docs/timing_graph.md).
  core::GraphAnalyzer::Workspace ws;
  const numeric::Vector w0(graph.sources(model).size(), 0.0);
  const auto nominal =
      graph.evaluate(graph.sample_from_sources(model, w0), ws);
  const auto analytic = graph.analytic_endpoints(model);
  ASSERT_EQ(analytic.size(), 1u);
  EXPECT_EQ(analytic[0].net, 5u);
  EXPECT_NEAR(analytic[0].arrival.mean, nominal.max_delay,
              0.30 * nominal.max_delay);
  EXPECT_GT(ssta::variance(analytic[0].arrival), 0.0);
  // The global wire sources close the layout: [dl, vt] per gate, W, H.
  const std::size_t nsrc = graph.sources(model).size();
  ASSERT_EQ(nsrc, 2 * graph.subgraph_gates().size() + 2);
  ASSERT_EQ(analytic[0].arrival.sens.size(), nsrc);
  EXPECT_TRUE(finite_nonzero(analytic[0].arrival.sens[nsrc - 2]));
  EXPECT_TRUE(finite_nonzero(analytic[0].arrival.sens[nsrc - 1]));
}

TEST(Benchmarks, FillerChainsTerminateAtLatches) {
  // Regression (bugfix 3): every generated gate output must be consumed
  // by a gate input or a latch input -- no dangling filler chains.
  for (const auto& spec : timing::iscas89_suite()) {
    const GateNetlist nl = timing::generate_benchmark(spec);
    std::vector<bool> consumed(nl.num_nets, false);
    for (const Gate& g : nl.gates) {
      for (std::size_t in : g.inputs) consumed[in] = true;
    }
    for (std::size_t n : nl.latch_inputs) consumed[n] = true;
    for (const Gate& g : nl.gates) {
      EXPECT_TRUE(consumed[g.output])
          << spec.name << ": dangling output net " << g.output;
    }
  }
}

}  // namespace
