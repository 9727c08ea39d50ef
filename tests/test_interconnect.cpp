// Tests for Sakurai parasitics, coupled-line builders, and the Example 1
// circuit.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "circuit/technology.hpp"
#include "interconnect/coupled_lines.hpp"
#include "interconnect/example1.hpp"
#include "interconnect/sakurai.hpp"
#include "numeric/cholesky.hpp"
#include "numeric/eigen_sym.hpp"

namespace lcsf::interconnect {
namespace {

using circuit::technology_180nm;
using circuit::WireGeometry;

TEST(Sakurai, PhysicallyReasonableValues) {
  WireGeometry g = technology_180nm().wire;
  UnitLengthParasitics p = sakurai_parasitics(g);
  // Minimum-width 0.18um metal: R ~ 100-300 ohm/mm, C ~ 100-300 fF/mm.
  EXPECT_GT(p.resistance, 1e4);   // > 10 ohm/mm
  EXPECT_LT(p.resistance, 1e7);
  EXPECT_GT(p.ground_capacitance, 1e-12);  // > 1 fF/mm
  EXPECT_LT(p.ground_capacitance, 1e-9);
  EXPECT_GT(p.coupling_capacitance, 0.0);
  EXPECT_THROW(sakurai_parasitics(WireGeometry{0, 1, 1, 1, 1, 1}),
               std::invalid_argument);
}

TEST(Sakurai, MonotonicityProperties) {
  WireGeometry g = technology_180nm().wire;
  UnitLengthParasitics base = sakurai_parasitics(g);

  WireGeometry wider = g;
  wider.width *= 1.2;
  UnitLengthParasitics w = sakurai_parasitics(wider);
  EXPECT_LT(w.resistance, base.resistance);          // wider -> less R
  EXPECT_GT(w.ground_capacitance, base.ground_capacitance);

  WireGeometry farther = g;
  farther.spacing *= 1.5;
  UnitLengthParasitics s = sakurai_parasitics(farther);
  EXPECT_LT(s.coupling_capacitance, base.coupling_capacitance);

  WireGeometry thicker = g;
  thicker.thickness *= 1.3;
  UnitLengthParasitics t = sakurai_parasitics(thicker);
  EXPECT_LT(t.resistance, base.resistance);
  EXPECT_GT(t.coupling_capacitance, base.coupling_capacitance);
}

TEST(Sakurai, VariationApplication) {
  WireGeometry g = technology_180nm().wire;
  WireVariation v;
  v.width = 0.1;
  v.resistivity = -0.05;
  WireGeometry gv = apply_variation(g, v);
  EXPECT_NEAR(gv.width, g.width * 1.1, 1e-18);
  EXPECT_NEAR(gv.resistivity, g.resistivity * 0.95, 1e-18);
  EXPECT_DOUBLE_EQ(gv.thickness, g.thickness);
}

TEST(CoupledLines, TopologyCounts) {
  CoupledLineSpec spec;
  spec.num_lines = 4;
  spec.length = 10e-6;
  spec.segment_length = 1e-6;
  spec.geometry = technology_180nm().wire;
  CoupledLineBundle b = build_coupled_lines(spec);
  EXPECT_EQ(b.segments, 10u);
  EXPECT_EQ(b.near_ends.size(), 4u);
  EXPECT_EQ(b.far_ends.size(), 4u);
  // 4 lines x 11 nodes.
  EXPECT_EQ(b.netlist.node_count(), 1u + 44u);
  // R: 4 x 10. Ground C: 4 x 11. Coupling: 3 gaps x 11 columns.
  EXPECT_EQ(b.netlist.resistors().size(), 40u);
  EXPECT_EQ(b.netlist.capacitors().size(), 44u + 33u);
  EXPECT_EQ(b.ports().size(), 8u);
}

TEST(CoupledLines, TotalCapacitanceMatchesFormulas) {
  CoupledLineSpec spec;
  spec.num_lines = 2;
  spec.length = 20e-6;
  spec.segment_length = 1e-6;
  spec.geometry = technology_180nm().wire;
  UnitLengthParasitics pul = sakurai_parasitics(spec.geometry);
  CoupledLineBundle b = build_coupled_lines(spec);

  double total_ground = 0.0;
  double total_coupling = 0.0;
  double total_r = 0.0;
  for (const auto& c : b.netlist.capacitors()) {
    if (c.a == circuit::kGround || c.b == circuit::kGround) {
      total_ground += c.farads;
    } else {
      total_coupling += c.farads;
    }
  }
  for (const auto& r : b.netlist.resistors()) total_r += r.ohms;
  EXPECT_NEAR(total_ground, 2 * pul.ground_capacitance * spec.length, 1e-20);
  EXPECT_NEAR(total_coupling, pul.coupling_capacitance * spec.length, 1e-20);
  EXPECT_NEAR(total_r, 2 * pul.resistance * spec.length, 1e-9);
}

TEST(CoupledLines, PortedPencilPermutation) {
  CoupledLineSpec spec;
  spec.num_lines = 2;
  spec.length = 3e-6;
  spec.segment_length = 1e-6;
  spec.geometry = technology_180nm().wire;
  CoupledLineBundle b = build_coupled_lines(spec);
  auto ports = b.ports();
  PortedPencil p = build_ported_pencil(b.netlist, ports);
  EXPECT_EQ(p.num_ports, 4u);
  EXPECT_EQ(p.g.rows(), b.netlist.node_count() - 1);
  // First rows map to the requested ports in order.
  for (std::size_t k = 0; k < ports.size(); ++k) {
    EXPECT_EQ(p.row_to_node[k], ports[k]);
  }
  // Permuted pencil must stay symmetric with SPD-ish G (grounded through
  // resistors? no dc path from all nodes -> G is PSD; add small shift).
  EXPECT_TRUE(numeric::is_symmetric(p.g, 1e-12));
  EXPECT_TRUE(numeric::is_symmetric(p.c, 1e-12));
  EXPECT_THROW(build_ported_pencil(b.netlist, {ports[0], ports[0]}),
               std::invalid_argument);
  EXPECT_THROW(build_ported_pencil(b.netlist, {circuit::kGround}),
               std::invalid_argument);
}

// The pencil's entries, stamped straight into ports-first rows: port b
// takes row 0, so node a's entries land in row 1.
TEST(Mna, NodePencilSymmetryAndRejection) {
  circuit::Netlist nl;
  const circuit::NodeId a = nl.add_node();
  const circuit::NodeId b = nl.add_node();
  nl.add_resistor(a, b, 10.0);
  nl.add_capacitor(a, circuit::kGround, 2e-12);
  nl.add_capacitor(a, b, 1e-12);
  const PortedPencil p = build_ported_pencil(nl, {b});
  EXPECT_EQ(p.g.rows(), 2u);
  EXPECT_EQ(p.row_to_node, (std::vector<circuit::NodeId>{b, a}));
  EXPECT_DOUBLE_EQ(p.g(1, 1), 0.1);
  EXPECT_DOUBLE_EQ(p.g(1, 0), -0.1);
  EXPECT_DOUBLE_EQ(p.g(0, 1), -0.1);
  EXPECT_DOUBLE_EQ(p.c(1, 1), 3e-12);
  EXPECT_DOUBLE_EQ(p.c(1, 0), -1e-12);
  EXPECT_DOUBLE_EQ(p.c(0, 0), 1e-12);

  nl.add_vsource(a, circuit::kGround, circuit::SourceWaveform::dc(1.0));
  EXPECT_THROW(build_ported_pencil(nl, {b}), std::invalid_argument);
}

TEST(Inductor, NodePencilRejectsInductors) {
  circuit::Netlist nl;
  const auto a = nl.add_node();
  nl.add_inductor(a, circuit::kGround, 1e-9);
  EXPECT_THROW(build_ported_pencil(nl, {a}), std::invalid_argument);
  EXPECT_THROW(nl.add_inductor(a, a, 1e-9), std::invalid_argument);
  EXPECT_THROW(nl.add_inductor(a, circuit::kGround, -1e-9),
               std::invalid_argument);
}

TEST(Example1, TableTwoAnchors) {
  Example1Values v0 = example1_values(0.0);
  EXPECT_DOUBLE_EQ(v0.r1, 10.0);
  EXPECT_DOUBLE_EQ(v0.r2, 2.0);
  EXPECT_DOUBLE_EQ(v0.r3, 30.0);
  EXPECT_DOUBLE_EQ(v0.c1, 2e-12);
  EXPECT_DOUBLE_EQ(v0.cc3, 2e-12);

  Example1Values v1 = example1_values(0.1);
  EXPECT_DOUBLE_EQ(v1.r1, 15.0);
  EXPECT_DOUBLE_EQ(v1.r3, 40.0);
  EXPECT_DOUBLE_EQ(v1.c1, 3e-12);
  EXPECT_DOUBLE_EQ(v1.c2, 2e-12);
  EXPECT_DOUBLE_EQ(v1.cc1, 3e-12);

  // Linearity in p.
  Example1Values vm = example1_values(0.05);
  EXPECT_DOUBLE_EQ(vm.r1, 12.5);
  EXPECT_DOUBLE_EQ(vm.c3, 2.5e-12);
}

TEST(Example1, CircuitStructure) {
  Example1Circuit c = example1_circuit(0.0);
  EXPECT_EQ(c.netlist.node_count(), 9u);  // gnd + 2 ports + 6 internal
  EXPECT_EQ(c.netlist.resistors().size(), 7u);  // 6 line R + shunt
  EXPECT_EQ(c.netlist.capacitors().size(), 9u);
}

TEST(Example1, PencilFamilyIsContinuous) {
  auto family = example1_pencil_family();
  PortedPencil p0 = family(0.0);
  PortedPencil p1 = family(0.05);
  EXPECT_EQ(p0.g.rows(), 8u);
  EXPECT_EQ(p0.num_ports, 1u);
  // Perturbation changes the matrices smoothly (no reordering).
  EXPECT_LT(numeric::relative_difference(p0.g, p1.g), 0.5);
  EXPECT_GT(numeric::relative_difference(p0.g, p1.g), 1e-6);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(p0.row_to_node[i], p1.row_to_node[i]);
  }
}

TEST(Example1, PencilIsPassivePencil) {
  // The *exact* pencil at any p is an RC network: G, C symmetric PSD.
  auto family = example1_pencil_family();
  for (double p : {0.0, 0.05, 0.1}) {
    PortedPencil pen = family(p);
    auto eg = numeric::eigen_symmetric(pen.g);
    auto ec = numeric::eigen_symmetric(pen.c);
    for (double v : eg.values) EXPECT_GE(v, -1e-9);
    for (double v : ec.values) EXPECT_GE(v, -1e-25);
  }
}

}  // namespace
}  // namespace lcsf::interconnect
