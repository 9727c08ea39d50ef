// Additional cross-cutting coverage: device symmetry sweeps, the DC
// gmin-stepping rescue, simultaneous-switching stages vs SPICE, and
// numeric odds and ends.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>

#include "circuit/technology.hpp"
#include "interconnect/coupled_lines.hpp"
#include "mor/pact.hpp"
#include "mor/poleres.hpp"
#include "mor/variational.hpp"
#include "numeric/lu.hpp"
#include "numeric/orthonormal.hpp"
#include "spice/transient.hpp"
#include "teta/stage.hpp"
#include "timing/cells.hpp"
#include "timing/waveform.hpp"

namespace lcsf {
namespace {

using circuit::kGround;
using circuit::Netlist;
using circuit::SourceWaveform;
using circuit::Technology;
using circuit::technology_180nm;
using numeric::Matrix;
using numeric::Vector;

// Level-1 device symmetry: i(vg; vd, vs) == -i(vg; vs, vd) exactly, for
// both polarities, across a bias sweep.
class MosfetSymmetry : public ::testing::TestWithParam<int> {};

TEST_P(MosfetSymmetry, DrainSourceExchangeNegatesCurrent) {
  const Technology t = technology_180nm();
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_real_distribution<double> u(-0.2, 2.0);
  for (auto type : {circuit::MosType::kNmos, circuit::MosType::kPmos}) {
    circuit::Mosfet m = type == circuit::MosType::kNmos
                            ? t.make_nmos(1, 2, 3)
                            : t.make_pmos(1, 2, 3);
    for (int k = 0; k < 50; ++k) {
      const double vg = u(rng), vd = u(rng), vs = u(rng);
      const double fwd = circuit::mosfet_eval(m, vg, vd, vs).ids;
      const double rev = circuit::mosfet_eval(m, vg, vs, vd).ids;
      EXPECT_NEAR(fwd, -rev, 1e-12 + 1e-9 * std::abs(fwd))
          << to_string(type) << " " << vg << " " << vd << " " << vs;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MosfetSymmetry, ::testing::Values(1, 2, 3));

// The gmin-stepping homotopy rescues DC on pass-transistor-heavy chains
// that defeat plain Newton from a zero start.
TEST(SpiceDc, XnorChainConverges) {
  const Technology t = technology_180nm();
  Netlist nl;
  const auto vdd = nl.add_node("vdd");
  nl.add_vsource(vdd, kGround, SourceWaveform::dc(t.vdd));
  const auto in = nl.add_node("in");
  nl.add_vsource(in, kGround, SourceWaveform::dc(0.0));
  circuit::NodeId prev = in;
  const auto& xnor = timing::find_cell("XNOR2");
  for (int k = 0; k < 6; ++k) {
    const auto out = nl.add_node("x" + std::to_string(k));
    timing::instantiate_cell(xnor, t, nl, out, {prev, kGround}, vdd);
    prev = out;
  }
  nl.freeze_device_capacitances();
  spice::TransientSimulator sim(nl);
  const auto v = sim.dc_operating_point();
  // XNOR with b = 0 inverts: alternating rail values down the chain.
  double expect = t.vdd;  // !0 = 1
  for (int k = 0; k < 6; ++k) {
    EXPECT_NEAR(v[static_cast<std::size_t>(nl.node("x" + std::to_string(k)))],
                expect, 5e-2)
        << k;
    expect = t.vdd - expect;
  }
}

// Simultaneous switching of coupled drivers: the framework must track
// SPICE when two stages switch together in opposite directions.
TEST(StageEngine, SimultaneousOpposingSwitchingMatchesSpice) {
  const Technology t = technology_180nm();
  const auto up = SourceWaveform::ramp(t.vdd, 0.0, 100e-12, 80e-12);
  const auto down = SourceWaveform::ramp(0.0, t.vdd, 120e-12, 60e-12);
  const double dt = 2e-12, tstop = 1.2e-9;

  interconnect::CoupledLineSpec spec;
  spec.num_lines = 2;
  spec.length = 120e-6;
  spec.segment_length = 1e-6;
  spec.geometry = t.wire;
  auto bundle = interconnect::build_coupled_lines(spec);
  for (auto far : bundle.far_ends) {
    bundle.netlist.add_capacitor(far, kGround, 5e-15);
  }

  teta::StageCircuit stage;
  std::vector<std::size_t> near(2);
  for (auto& p : near) p = stage.add_port();
  for (int k = 0; k < 2; ++k) stage.add_port();
  const std::size_t vdd = stage.add_rail(t.vdd);
  const std::size_t gnd = stage.add_rail(0.0);
  for (int l = 0; l < 2; ++l) {
    const std::size_t in = stage.add_input(l == 0 ? up : down);
    stage.add_mosfet(t.make_nmos(static_cast<int>(near[l]),
                                 static_cast<int>(in),
                                 static_cast<int>(gnd), 6.0));
    stage.add_mosfet(t.make_pmos(static_cast<int>(near[l]),
                                 static_cast<int>(in),
                                 static_cast<int>(vdd), 12.0));
  }
  stage.freeze_device_capacitances();

  auto pencil = interconnect::build_ported_pencil(bundle.netlist,
                                                  bundle.ports());
  Vector gout(4, 0.0);
  const auto chords = stage.port_chord_conductances(t.vdd);
  gout[0] = chords[0];
  gout[1] = chords[1];
  pencil = mor::with_port_conductance(std::move(pencil), gout);
  const auto z = mor::stabilize(mor::extract_pole_residue(
      mor::pact_reduce(pencil, mor::PactOptions{8}).model));

  teta::TetaOptions topt;
  topt.tstop = tstop;
  topt.dt = dt;
  topt.vdd = t.vdd;
  const auto tres = teta::simulate_stage(stage, z, topt);
  ASSERT_TRUE(tres.converged) << tres.failure();

  Netlist nl = bundle.netlist;
  const auto nvdd = nl.add_node("vdd");
  nl.add_vsource(nvdd, kGround, SourceWaveform::dc(t.vdd));
  for (int l = 0; l < 2; ++l) {
    const auto in = nl.add_node("in" + std::to_string(l));
    nl.add_vsource(in, kGround, l == 0 ? up : down);
    nl.add_mosfet(t.make_nmos(bundle.near_ends[static_cast<std::size_t>(l)],
                              in, kGround, 6.0));
    nl.add_mosfet(t.make_pmos(bundle.near_ends[static_cast<std::size_t>(l)],
                              in, nvdd, 12.0));
  }
  nl.freeze_device_capacitances();
  spice::TransientSimulator sim(nl);
  spice::TransientOptions sopt;
  sopt.tstop = tstop;
  sopt.dt = dt;
  const auto sres = sim.run(sopt);
  ASSERT_TRUE(sres.converged) << sres.failure();

  for (int l = 0; l < 2; ++l) {
    const auto sw = sres.waveform(bundle.far_ends[static_cast<std::size_t>(l)]);
    const auto tw = tres.waveform(static_cast<std::size_t>(2 + l));
    double err = 0.0;
    for (std::size_t k = 0; k < tw.size(); ++k) {
      err = std::max(err, std::abs(sw[k].second - tw[k].second));
    }
    EXPECT_LT(err, 0.06) << "far end of line " << l;
  }
}

TEST(NumericMore, LuRcondFlagsNearSingular) {
  // LU flags only an exactly singular matrix (a zero pivot column); a
  // 1e-14 pivot factors, and its solve carries the 1e14 amplification.
  Matrix bad = Matrix::identity(4);
  bad(3, 3) = 1e-14;
  const Vector x =
      numeric::LuFactorization(bad).solve(Vector{0.0, 0.0, 0.0, 1.0});
  EXPECT_NEAR(x[3] * 1e-14, 1.0, 1e-12);
  Matrix singular = Matrix::identity(4);
  singular(3, 3) = 0.0;
  EXPECT_THROW(numeric::LuFactorization{singular}, std::runtime_error);
}

TEST(NumericMore, OrthonormalizeEmptyAndSingleColumn) {
  auto res = numeric::orthonormalize(Matrix(5, 0));
  EXPECT_EQ(res.rank, 0u);
  Matrix one(4, 1);
  one(2, 0) = 3.0;
  auto r1 = numeric::orthonormalize(one);
  EXPECT_EQ(r1.rank, 1u);
  EXPECT_NEAR(r1.q(2, 0), 1.0, 1e-14);
}

TEST(SourceWaveformMore, PiecewiseLinearityProperty) {
  auto w = SourceWaveform::pwl({{0.0, 1.0}, {1.0, 3.0}, {2.5, -1.0}});
  // Midpoint of any sampled pair inside one segment is the average.
  for (double t0 : {0.1, 0.4, 1.2, 2.0}) {
    const double t1 = t0 + 0.2;
    const double mid = w.value(0.5 * (t0 + t1));
    EXPECT_NEAR(mid, 0.5 * (w.value(t0) + w.value(t1)), 1e-12);
  }
}

}  // namespace
}  // namespace lcsf
