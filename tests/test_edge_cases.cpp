// Edge-case and failure-path coverage across modules.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/netlist.hpp"
#include "circuit/technology.hpp"
#include "numeric/complex_matrix.hpp"
#include "numeric/lu.hpp"
#include "numeric/eigen_real.hpp"
#include "numeric/eigen_sym.hpp"
#include "sim/diagnostics.hpp"
#include "spice/transient.hpp"
#include "stats/descriptive.hpp"
#include "timing/graph.hpp"
#include "timing/sta.hpp"
#include "timing/waveform.hpp"

namespace lcsf {
namespace {

using circuit::kGround;
using circuit::Netlist;
using circuit::SourceWaveform;
using numeric::Matrix;
using numeric::Vector;

TEST(EigenRealEdge, TinySizes) {
  auto e1 = numeric::eigen_real(Matrix{{3.5}});
  ASSERT_EQ(e1.values.size(), 1u);
  EXPECT_DOUBLE_EQ(e1.values[0].real(), 3.5);
  auto v = e1.vector(0);
  EXPECT_DOUBLE_EQ(v[0].real(), 1.0);

  auto e2 = numeric::eigen_real(Matrix{{2.0, 0.0}, {0.0, -1.0}});
  std::vector<double> re{e2.values[0].real(), e2.values[1].real()};
  std::sort(re.begin(), re.end());
  EXPECT_NEAR(re[0], -1.0, 1e-12);
  EXPECT_NEAR(re[1], 2.0, 1e-12);

  auto e0 = numeric::eigen_real(Matrix(0, 0));
  EXPECT_TRUE(e0.values.empty());
  EXPECT_THROW(numeric::eigen_real(Matrix(2, 3)), std::invalid_argument);
}

TEST(EigenRealEdge, RepeatedEigenvalues) {
  // Diagonalizable with repeated eigenvalue 2.
  Matrix a{{2, 0, 0}, {0, 2, 0}, {0, 0, 5}};
  auto e = numeric::eigen_real(a);
  int twos = 0;
  for (auto& v : e.values) {
    if (std::abs(v.real() - 2.0) < 1e-10) ++twos;
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
  EXPECT_EQ(twos, 2);
}

TEST(EigenSymEdge, ZeroAndIdentity) {
  auto ez = numeric::eigen_symmetric(Matrix(3, 3));
  for (double v : ez.values) EXPECT_DOUBLE_EQ(v, 0.0);
  auto ei = numeric::eigen_symmetric(Matrix::identity(4));
  for (double v : ei.values) EXPECT_NEAR(v, 1.0, 1e-14);
}

TEST(ComplexLuEdge, SingularAndSolve) {
  numeric::ComplexMatrix a(2, 2);
  a(0, 0) = numeric::Complex{1.0, 1.0};
  a(0, 1) = numeric::Complex{2.0, 0.0};
  a(1, 0) = numeric::Complex{0.0, -1.0};
  a(1, 1) = numeric::Complex{1.0, 0.5};
  numeric::ComplexLu lu(a);
  numeric::CVector b{{1.0, 0.0}, {0.0, 1.0}};
  auto x = lu.solve(b);
  for (std::size_t i = 0; i < 2; ++i) {
    const numeric::Complex check = a(i, 0) * x[0] + a(i, 1) * x[1];
    EXPECT_NEAR(std::abs(check - b[i]), 0.0, 1e-12);
  }
  numeric::ComplexMatrix sing(2, 2);
  sing(0, 0) = 1.0;
  sing(0, 1) = 2.0;
  sing(1, 0) = 2.0;
  sing(1, 1) = 4.0;
  EXPECT_THROW(numeric::ComplexLu{sing}, std::runtime_error);
}

TEST(SpiceEdge, StoreWaveformsOffAndBlowupDetection) {
  Netlist nl;
  const auto a = nl.add_node();
  nl.add_vsource(a, kGround, SourceWaveform::dc(1.0));
  const auto b = nl.add_node();
  nl.add_resistor(a, b, 100.0);
  nl.add_capacitor(b, kGround, 1e-12);
  spice::TransientSimulator sim(nl);
  spice::TransientOptions opt;
  opt.tstop = 0.1e-9;
  opt.dt = 1e-12;
  opt.store_waveforms = false;
  const auto res = sim.run(opt);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.node_voltages.empty());
  EXPECT_THROW(res.final_voltage(b), std::runtime_error);
}

TEST(SpiceEdge, MacromodelValidation) {
  Netlist nl;
  const auto a = nl.add_node();
  nl.add_resistor(a, kGround, 100.0);
  spice::TransientSimulator sim(nl);
  spice::MacromodelStamp bad;
  bad.ports = {a};
  bad.g = Matrix(2, 3);  // non-square
  bad.c = Matrix(2, 3);
  EXPECT_THROW(sim.add_macromodel(bad), lcsf::sim::SimulationError);
}

TEST(StaEdge, UnreachableAndMissingEndpoints) {
  timing::GateNetlist nl;
  nl.name = "edge";
  nl.num_nets = 3;
  nl.primary_inputs = {0};
  // A gate whose input net 2 is never driven: output unreachable.
  std::size_t inv = 0;
  for (std::size_t k = 0; k < timing::cell_library().size(); ++k) {
    if (timing::cell_library()[k].name == "INV") inv = k;
  }
  nl.gates.push_back({inv, {2}, 1});
  const auto arrival = timing::TimingGraph(nl).arrival();
  EXPECT_EQ(arrival[0], 0u);
  EXPECT_EQ(arrival[1], std::numeric_limits<std::size_t>::max());

  EXPECT_THROW(timing::longest_path(nl), std::invalid_argument);
  nl.latch_inputs = {1};  // only an unreachable endpoint
  EXPECT_THROW(timing::longest_path(nl), std::runtime_error);
}

TEST(WaveformEdge, NonMonotoneCrossings) {
  // Glitchy waveform: crossing_time returns the FIRST crossing.
  timing::Samples w{{0.0, 0.0}, {1.0, 1.0}, {2.0, 0.4}, {3.0, 1.0}};
  EXPECT_NEAR(timing::crossing_time(w, 0.5, true).value(), 0.5, 1e-12);
  // Falling crossing of the dip.
  EXPECT_NEAR(timing::crossing_time(w, 0.5, false).value(),
              1.0 + 0.5 / 0.6, 1e-9);
}

TEST(HistogramEdge, SingleValueData) {
  // All-equal data: padding keeps the range valid.
  const auto h = stats::Histogram::from_data({1.0, 1.0, 1.0}, 4);
  EXPECT_EQ(h.total(), 3u);
  std::size_t filled = 0;
  for (std::size_t k = 0; k < h.bins(); ++k) {
    filled += h.bin_count(k) > 0 ? 1 : 0;
  }
  EXPECT_EQ(filled, 1u);
}

TEST(TechnologyEdge, SixHundredNanometerDevices) {
  const auto t = circuit::technology_600nm();
  auto n = t.make_nmos(1, 2, 0, 10.0);
  EXPECT_NEAR(n.w, 6e-6, 1e-12);
  auto op = circuit::mosfet_eval(n, 5.0, 5.0, 0.0);
  EXPECT_GT(op.ids, 1e-4);
  EXPECT_GT(circuit::mosfet_idsat(n, 5.0), op.ids * 0.5);
}

TEST(NetlistEdge, NodeNameLookups) {
  Netlist nl;
  const auto a = nl.add_node("alpha");
  EXPECT_EQ(nl.node_name(a), "alpha");
  EXPECT_EQ(nl.node_name(kGround), "gnd");
  EXPECT_THROW(nl.node_name(99), std::out_of_range);
}

}  // namespace
}  // namespace lcsf
