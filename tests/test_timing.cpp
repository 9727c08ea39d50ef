// Tests for waveform measurement, the cell library, STA and the benchmark
// generator.
#include <gtest/gtest.h>

#include <set>

#include "circuit/technology.hpp"
#include "spice/transient.hpp"
#include "timing/cells.hpp"
#include "timing/graph.hpp"
#include "timing/sta.hpp"
#include "timing/waveform.hpp"

namespace lcsf::timing {
namespace {

using circuit::kGround;
using circuit::SourceWaveform;
using circuit::Technology;
using circuit::technology_180nm;

TEST(Waveform, RampRoundTrip) {
  RampParams p{1e-9, 200e-12, true};
  auto src = p.to_source(1.8);
  // Sample and re-measure.
  Samples w;
  for (int k = 0; k <= 400; ++k) {
    const double t = k * 5e-12;
    w.emplace_back(t, src.value(t));
  }
  RampParams q = measure_ramp(w, 1.8, true);
  EXPECT_NEAR(q.m, p.m, 1e-12);
  EXPECT_NEAR(q.s, p.s, 2e-12);
  EXPECT_TRUE(q.rising);
}

TEST(Waveform, FallingMeasurement) {
  RampParams p{0.5e-9, 100e-12, false};
  auto src = p.to_source(1.8);
  Samples w;
  for (int k = 0; k <= 300; ++k) {
    const double t = k * 5e-12;
    w.emplace_back(t, src.value(t));
  }
  RampParams q = measure_ramp(w, 1.8, false);
  EXPECT_NEAR(q.m, p.m, 1e-12);
  EXPECT_NEAR(q.s, p.s, 2e-12);
  EXPECT_FALSE(q.rising);
}

TEST(Waveform, CrossingAndFailureModes) {
  Samples flat{{0.0, 0.0}, {1e-9, 0.0}};
  EXPECT_FALSE(crossing_time(flat, 0.9, true).has_value());
  EXPECT_THROW(measure_ramp(flat, 1.8, true), std::runtime_error);
}

TEST(Waveform, ExactThresholdSampleIsACrossing) {
  // Regression: a sample landing exactly on the threshold used to be
  // skipped by the strict predicates, making measure_ramp throw.
  Samples w{{0.0, 0.0}, {1.0, 0.5}, {2.0, 1.0}};
  const auto t = crossing_time(w, 0.5, true);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 1.0, 0.0);
  // Same waveform, threshold hit exactly by the *last* sample.
  const auto t2 = crossing_time(w, 1.0, true);
  ASSERT_TRUE(t2.has_value());
  EXPECT_NEAR(*t2, 2.0, 0.0);
}

TEST(Waveform, StartAtThresholdRegistersImmediately) {
  // Regression: a waveform starting exactly at the level never used to
  // register a crossing at all.
  Samples rising{{2.0, 0.5}, {3.0, 1.0}};
  const auto tr = crossing_time(rising, 0.5, true);
  ASSERT_TRUE(tr.has_value());
  EXPECT_NEAR(*tr, 2.0, 0.0);
  Samples falling{{1.0, 0.5}, {2.0, 0.0}};
  const auto tf = crossing_time(falling, 0.5, false);
  ASSERT_TRUE(tf.has_value());
  EXPECT_NEAR(*tf, 1.0, 0.0);
  // A segment pinned flat at the level crosses at its start.
  Samples pinned{{0.0, 0.5}, {1.0, 0.5}, {2.0, 1.0}};
  const auto tp = crossing_time(pinned, 0.5, true);
  ASSERT_TRUE(tp.has_value());
  EXPECT_NEAR(*tp, 0.0, 0.0);
}

TEST(Waveform, NegativeCrossingTimesAreNotSentinels) {
  // Pre-zero ramp starts produce legitimately negative crossing times;
  // the retired -1.0 sentinel used to collide with them.
  Samples w{{-2.0, 0.0}, {-1.0, 1.0}};
  const auto t = crossing_time(w, 0.5, true);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, -1.5, 1e-12);
  // Direction still matters: this waveform never falls through 0.5.
  EXPECT_FALSE(crossing_time(w, 0.5, false).has_value());
}

TEST(Cells, LibraryShape) {
  const auto& lib = cell_library();
  ASSERT_EQ(lib.size(), 10u);
  std::set<std::string> names;
  for (const auto& c : lib) {
    names.insert(c.name);
    EXPECT_GE(c.num_inputs, 1u);
    EXPECT_EQ(c.side_values.size(), c.num_inputs);
    EXPECT_FALSE(c.transistors.empty());
    ASSERT_TRUE(c.eval);
  }
  EXPECT_EQ(names.size(), 10u);
  EXPECT_NO_THROW(find_cell("AOI21"));
  EXPECT_THROW(find_cell("NAND4"), std::invalid_argument);
}

TEST(Cells, LogicFunctions) {
  auto ev = [](const std::string& name, std::vector<bool> in) {
    return find_cell(name).eval(in);
  };
  EXPECT_TRUE(ev("INV", {false}));
  EXPECT_FALSE(ev("NAND2", {true, true}));
  EXPECT_TRUE(ev("NAND2", {false, true}));
  EXPECT_FALSE(ev("NOR2", {true, false}));
  EXPECT_TRUE(ev("NOR3", {false, false, false}));
  EXPECT_FALSE(ev("AOI21", {true, true, false}));
  EXPECT_TRUE(ev("AOI21", {true, false, false}));
  EXPECT_FALSE(ev("OAI21", {true, false, true}));
  EXPECT_TRUE(ev("XOR2", {true, false}));
  EXPECT_FALSE(ev("XOR2", {true, true}));
  EXPECT_TRUE(ev("XNOR2", {true, true}));
}

TEST(Cells, SensitizationIsConsistent) {
  // With side inputs at their sensitizing values, toggling input 0 must
  // toggle the output, in the direction implied by `inverting`.
  for (const auto& c : cell_library()) {
    std::vector<bool> lo(c.side_values);
    std::vector<bool> hi(c.side_values);
    lo[0] = false;
    hi[0] = true;
    const bool out_lo = c.eval(lo);
    const bool out_hi = c.eval(hi);
    EXPECT_NE(out_lo, out_hi) << c.name << " not sensitized by input 0";
    EXPECT_EQ(out_hi, !c.inverting) << c.name << " inverting flag wrong";
  }
}

// Property: every cell, instantiated at transistor level with sensitizing
// side inputs, produces the correct static output levels in SPICE for
// input 0 low and high.
class CellDcProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CellDcProperty, TransistorLevelMatchesLogic) {
  const Technology tech = technology_180nm();
  const CellTemplate& cell = cell_library()[GetParam()];
  for (bool in_high : {false, true}) {
    circuit::Netlist nl;
    const auto vdd = nl.add_node("vdd");
    const auto out = nl.add_node("out");
    nl.add_vsource(vdd, kGround, SourceWaveform::dc(tech.vdd));
    std::vector<circuit::NodeId> ins;
    std::vector<bool> logic_in;
    for (std::size_t k = 0; k < cell.num_inputs; ++k) {
      const bool val = (k == 0) ? in_high : cell.side_values[k];
      logic_in.push_back(val);
      const auto n = nl.add_node("in" + std::to_string(k));
      nl.add_vsource(n, kGround,
                     SourceWaveform::dc(val ? tech.vdd : 0.0));
      ins.push_back(n);
    }
    instantiate_cell(cell, tech, nl, out, ins, vdd);
    nl.add_capacitor(out, kGround, 5e-15);
    nl.freeze_device_capacitances();
    spice::TransientSimulator sim(nl);
    const auto v = sim.dc_operating_point();
    const bool expect_high = cell.eval(logic_in);
    EXPECT_NEAR(v[static_cast<std::size_t>(out)],
                expect_high ? tech.vdd : 0.0, 5e-3)
        << cell.name << " in0=" << in_high;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCells, CellDcProperty,
                         ::testing::Range(std::size_t{0}, std::size_t{10}));

TEST(Sta, ArrivalAndLongestPathOnHandBuiltCircuit) {
  // PI0 -> G0(INV) -> G1(NAND2 with side PI1) -> latch; plus a short side
  // gate G2 from PI1 to another latch input.
  GateNetlist nl;
  nl.name = "hand";
  nl.num_nets = 5;  // 0=PI0 1=PI1 2=G0out 3=G1out 4=G2out
  nl.primary_inputs = {0, 1};
  const auto& lib = cell_library();
  std::size_t inv = 0, nand2 = 0;
  for (std::size_t k = 0; k < lib.size(); ++k) {
    if (lib[k].name == "INV") inv = k;
    if (lib[k].name == "NAND2") nand2 = k;
  }
  nl.gates.push_back({inv, {0}, 2});
  nl.gates.push_back({nand2, {2, 1}, 3});
  nl.gates.push_back({inv, {1}, 4});
  nl.latch_inputs = {3, 4};

  const auto arrival = TimingGraph(nl).arrival();
  EXPECT_EQ(arrival[2], 1u);
  EXPECT_EQ(arrival[3], 2u);
  EXPECT_EQ(arrival[4], 1u);

  TimingPath p = longest_path(nl);
  EXPECT_EQ(p.length(), 2u);
  EXPECT_EQ(p.start_net, 0u);
  EXPECT_EQ(p.end_net, 3u);
  EXPECT_EQ(p.switching_pin[0], 0u);
  EXPECT_EQ(p.switching_pin[1], 0u);
}

TEST(Sta, SuiteHasPublishedStageCounts) {
  for (const auto& spec : iscas89_suite()) {
    GateNetlist nl = generate_benchmark(spec);
    EXPECT_EQ(nl.gates.size(), spec.total_gates) << spec.name;
    TimingPath p = longest_path(nl);
    EXPECT_EQ(p.length(), spec.longest_path_stages) << spec.name;
    // Path gates must be connected head to tail.
    for (std::size_t k = 1; k < p.gates.size(); ++k) {
      const Gate& g = nl.gates[p.gates[k]];
      EXPECT_EQ(g.inputs[p.switching_pin[k]],
                nl.gates[p.gates[k - 1]].output);
    }
  }
}

TEST(Sta, GenerationIsDeterministic) {
  const auto& spec = find_benchmark("s208");
  GateNetlist a = generate_benchmark(spec);
  GateNetlist b = generate_benchmark(spec);
  ASSERT_EQ(a.gates.size(), b.gates.size());
  for (std::size_t k = 0; k < a.gates.size(); ++k) {
    EXPECT_EQ(a.gates[k].cell, b.gates[k].cell);
    EXPECT_EQ(a.gates[k].inputs, b.gates[k].inputs);
  }
  EXPECT_THROW(find_benchmark("s99999"), std::invalid_argument);
}

TEST(Sta, NetlistIsTopologicallyOrdered) {
  GateNetlist nl = generate_benchmark(find_benchmark("s444"));
  std::vector<bool> defined(nl.num_nets, false);
  for (std::size_t n : nl.primary_inputs) defined[n] = true;
  for (std::size_t n : nl.latch_outputs) defined[n] = true;
  for (const Gate& g : nl.gates) {
    for (std::size_t in : g.inputs) EXPECT_TRUE(defined[in]);
    defined[g.output] = true;
  }
}

}  // namespace
}  // namespace lcsf::timing
