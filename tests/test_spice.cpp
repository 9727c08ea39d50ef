// Tests for the SPICE-substitute transient simulator.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "circuit/netlist.hpp"
#include "circuit/technology.hpp"
#include "sim/diagnostics.hpp"
#include "spice/transient.hpp"

namespace lcsf::spice {
namespace {

using circuit::kGround;
using circuit::Netlist;
using circuit::NodeId;
using circuit::SourceWaveform;
using circuit::Technology;
using circuit::technology_180nm;

// Build a standard CMOS inverter driving a load cap.
struct InverterFixture {
  Netlist nl;
  NodeId in, out, vdd;

  explicit InverterFixture(const Technology& t, double cload = 10e-15,
                           double wn = 4.0, double wp = 8.0) {
    in = nl.add_node("in");
    out = nl.add_node("out");
    vdd = nl.add_node("vdd");
    nl.add_vsource(vdd, kGround, SourceWaveform::dc(t.vdd));
    nl.add_mosfet(t.make_nmos(out, in, kGround, wn));
    nl.add_mosfet(t.make_pmos(out, in, vdd, wp));
    nl.add_capacitor(out, kGround, cload);
    nl.freeze_device_capacitances();
  }
};

TEST(Transient, RcStepMatchesAnalytic) {
  // R = 1k, C = 1p, step input: v_out(t) = V (1 - exp(-t/RC)).
  Netlist nl;
  NodeId src = nl.add_node("src");
  NodeId out = nl.add_node("out");
  nl.add_vsource(src, kGround, SourceWaveform::ramp(0.0, 1.0, 0.0, 1e-15));
  nl.add_resistor(src, out, 1000.0);
  nl.add_capacitor(out, kGround, 1e-12);

  TransientSimulator sim(nl);
  TransientOptions opt;
  opt.tstop = 5e-9;
  opt.dt = 5e-12;
  TransientResult res = sim.run(opt);
  ASSERT_TRUE(res.converged) << res.failure();

  // Trapezoidal integration sees the step as a ramp across the first
  // timestep, so the response lags the ideal step response by dt/2.
  const double tau = 1e-9;
  for (const auto& [t, v] : res.waveform(out)) {
    if (t < 2 * opt.dt) continue;
    const double expect = 1.0 - std::exp(-(t - 0.5 * opt.dt) / tau);
    EXPECT_NEAR(v, expect, 2e-4) << "t = " << t;
  }
}

TEST(Transient, CoupledCapsChargeShare) {
  // Two caps in series from a step through R: final voltages split by the
  // capacitive divider; dc final value of the middle node is V (C2 floats).
  Netlist nl;
  NodeId src = nl.add_node();
  NodeId a = nl.add_node();
  NodeId b = nl.add_node();
  nl.add_vsource(src, kGround, SourceWaveform::ramp(0.0, 1.0, 0.0, 1e-12));
  nl.add_resistor(src, a, 100.0);
  nl.add_capacitor(a, b, 2e-12);
  nl.add_resistor(b, kGround, 1e6);  // weak dc path
  nl.add_capacitor(b, kGround, 1e-12);

  TransientSimulator sim(nl);
  TransientOptions opt;
  opt.tstop = 3e-9;
  opt.dt = 1e-12;
  TransientResult res = sim.run(opt);
  ASSERT_TRUE(res.converged) << res.failure();
  // Early charge sharing: v_b jumps toward V*C1/(C1+C2) = 2/3.
  double vb_peak = 0.0;
  for (const auto& [t, v] : res.waveform(b)) vb_peak = std::max(vb_peak, v);
  EXPECT_NEAR(vb_peak, 2.0 / 3.0, 0.05);
}

TEST(Dc, InverterRails) {
  Technology t = technology_180nm();
  {
    InverterFixture f(t);
    f.nl.add_vsource(f.in, kGround, SourceWaveform::dc(0.0));
    TransientSimulator sim(f.nl);
    auto v = sim.dc_operating_point();
    EXPECT_NEAR(v[static_cast<std::size_t>(f.out)], t.vdd, 1e-3);
  }
  {
    InverterFixture f(t);
    f.nl.add_vsource(f.in, kGround, SourceWaveform::dc(t.vdd));
    TransientSimulator sim(f.nl);
    auto v = sim.dc_operating_point();
    EXPECT_NEAR(v[static_cast<std::size_t>(f.out)], 0.0, 1e-3);
  }
}

// The MNA solution of two linear netlists at the DC operating point;
// they solve exactly once the gmin floor is off.
TEST(Mna, VoltageDividerDc) {
  // v1 --R1-- v2 --R2-- gnd with 1V source at v1: v2 = R2/(R1+R2).
  Netlist nl;
  NodeId v1 = nl.add_node("v1");
  NodeId v2 = nl.add_node("v2");
  nl.add_resistor(v1, v2, 1000.0);
  nl.add_resistor(v2, kGround, 3000.0);
  nl.add_vsource(v1, kGround, SourceWaveform::dc(1.0));
  TransientSimulator sim(nl);
  TransientOptions opt;
  opt.gmin = 0.0;
  const auto v = sim.dc_operating_point(opt);
  EXPECT_NEAR(v[static_cast<std::size_t>(v1)], 1.0, 1e-12);
  EXPECT_NEAR(v[static_cast<std::size_t>(v2)], 0.75, 1e-12);
}

TEST(Mna, CurrentSourceRhs) {
  Netlist nl;
  NodeId a = nl.add_node();
  nl.add_resistor(a, kGround, 50.0);
  nl.add_isource(kGround, a, SourceWaveform::dc(1e-3));
  TransientSimulator sim(nl);
  TransientOptions opt;
  opt.gmin = 0.0;
  const auto v = sim.dc_operating_point(opt);
  EXPECT_NEAR(v[static_cast<std::size_t>(a)], 50.0 * 1e-3, 1e-12);
}

TEST(Dc, InverterMidpointIsMetastablePoint) {
  // With input at the switching threshold the output sits between rails.
  Technology t = technology_180nm();
  InverterFixture f(t, 10e-15, 4.0, 4.0 * t.nmos.kp / t.pmos.kp);
  f.nl.add_vsource(f.in, kGround, SourceWaveform::dc(0.5 * t.vdd));
  TransientSimulator sim(f.nl);
  auto v = sim.dc_operating_point();
  const double vout = v[static_cast<std::size_t>(f.out)];
  EXPECT_GT(vout, 0.2 * t.vdd);
  EXPECT_LT(vout, 0.8 * t.vdd);
}

TEST(Transient, InverterSwitches) {
  Technology t = technology_180nm();
  InverterFixture f(t, 20e-15);
  f.nl.add_vsource(f.in, kGround,
                   SourceWaveform::ramp(0.0, t.vdd, 50e-12, 50e-12));
  TransientSimulator sim(f.nl);
  TransientOptions opt;
  opt.tstop = 2e-9;
  opt.dt = 1e-12;
  TransientResult res = sim.run(opt);
  ASSERT_TRUE(res.converged) << res.failure();
  // Output starts high, ends low.
  auto w = res.waveform(f.out);
  EXPECT_NEAR(w.front().second, t.vdd, 1e-2);
  EXPECT_NEAR(w.back().second, 0.0, 1e-2);
  // Falling edge is monotone-ish and crosses vdd/2 after the input does.
  double t_cross_out = -1.0;
  for (std::size_t k = 1; k < w.size(); ++k) {
    if (w[k - 1].second >= 0.5 * t.vdd && w[k].second < 0.5 * t.vdd) {
      t_cross_out = w[k].first;
      break;
    }
  }
  ASSERT_GT(t_cross_out, 0.0);
  EXPECT_GT(t_cross_out, 75e-12);  // input 50% point
}

TEST(Transient, InverterChainPropagates) {
  Technology t = technology_180nm();
  Netlist nl;
  NodeId vdd = nl.add_node("vdd");
  nl.add_vsource(vdd, kGround, SourceWaveform::dc(t.vdd));
  NodeId in = nl.add_node("in");
  nl.add_vsource(in, kGround,
                 SourceWaveform::ramp(0.0, t.vdd, 20e-12, 40e-12));
  NodeId prev = in;
  std::vector<NodeId> outs;
  for (int k = 0; k < 3; ++k) {
    NodeId out = nl.add_node("o" + std::to_string(k));
    nl.add_mosfet(t.make_nmos(out, prev, kGround, 4.0));
    nl.add_mosfet(t.make_pmos(out, prev, vdd, 8.0));
    nl.add_capacitor(out, kGround, 5e-15);
    outs.push_back(out);
    prev = out;
  }
  nl.freeze_device_capacitances();

  TransientSimulator sim(nl);
  TransientOptions opt;
  opt.tstop = 2e-9;
  opt.dt = 1e-12;
  TransientResult res = sim.run(opt);
  ASSERT_TRUE(res.converged) << res.failure();
  // After three inversions of a rising input: o0 low, o1 high, o2 low.
  EXPECT_NEAR(res.final_voltage(outs[0]), 0.0, 1e-2);
  EXPECT_NEAR(res.final_voltage(outs[1]), t.vdd, 1e-2);
  EXPECT_NEAR(res.final_voltage(outs[2]), 0.0, 1e-2);
}

TEST(Transient, StableMacromodelMatchesDirectRc) {
  // Stamp a 1-port macromodel equivalent to R->C low-pass driven through a
  // resistor and compare with the directly-stamped equivalent.
  Netlist nl;
  NodeId src = nl.add_node();
  NodeId port = nl.add_node();
  nl.add_vsource(src, kGround, SourceWaveform::ramp(0.0, 1.0, 0.0, 1e-12));
  nl.add_resistor(src, port, 500.0);

  // Macromodel: port--R=500--internal, C=1p at internal.
  MacromodelStamp mm;
  mm.ports = {port};
  mm.g = numeric::Matrix{{1.0 / 500.0, -1.0 / 500.0},
                         {-1.0 / 500.0, 1.0 / 500.0}};
  mm.c = numeric::Matrix{{0.0, 0.0}, {0.0, 1e-12}};

  TransientSimulator sim(nl);
  sim.add_macromodel(mm);
  TransientOptions opt;
  opt.tstop = 4e-9;
  opt.dt = 2e-12;
  TransientResult res = sim.run(opt);
  ASSERT_TRUE(res.converged) << res.failure();

  // Reference: same circuit stamped natively.
  Netlist ref;
  NodeId rsrc = ref.add_node();
  NodeId rport = ref.add_node();
  NodeId rint = ref.add_node();
  ref.add_vsource(rsrc, kGround, SourceWaveform::ramp(0.0, 1.0, 0.0, 1e-12));
  ref.add_resistor(rsrc, rport, 500.0);
  ref.add_resistor(rport, rint, 500.0);
  ref.add_capacitor(rint, kGround, 1e-12);
  TransientSimulator rsim(ref);
  TransientResult rres = rsim.run(opt);
  ASSERT_TRUE(rres.converged);

  auto w = res.waveform(port);
  auto wr = rres.waveform(rport);
  ASSERT_EQ(w.size(), wr.size());
  for (std::size_t k = 0; k < w.size(); ++k) {
    EXPECT_NEAR(w[k].second, wr[k].second, 1e-9);
  }
}

TEST(Transient, UnstableMacromodelDiverges) {
  // A macromodel with a right-half-plane pole: i = G v with G < 0 on an
  // internal state fed by the port. Equivalent to a negative-R,C tank.
  Netlist nl;
  NodeId src = nl.add_node();
  NodeId port = nl.add_node();
  nl.add_vsource(src, kGround, SourceWaveform::ramp(0.0, 1.0, 0.0, 1e-12));
  nl.add_resistor(src, port, 100.0);

  MacromodelStamp mm;
  mm.ports = {port};
  // Internal node with negative conductance to ground and a cap: pole at
  // +|g|/c in the right half plane.
  mm.g = numeric::Matrix{{1e-3, -1e-3}, {-1e-3, -0.5e-3}};
  mm.c = numeric::Matrix{{0.0, 0.0}, {0.0, 1e-13}};

  TransientSimulator sim(nl);
  sim.add_macromodel(mm);
  TransientOptions opt;
  opt.tstop = 10e-9;
  opt.dt = 2e-12;
  TransientResult res = sim.run(opt);
  EXPECT_FALSE(res.converged);
  EXPECT_TRUE(res.diag.failed());
  // An unstable macromodel must classify as divergence, not misuse.
  EXPECT_TRUE(res.diag.kind == sim::FailureKind::kBlowUp ||
              res.diag.kind == sim::FailureKind::kNewtonNonConvergence)
      << res.failure();
  EXPECT_GT(res.diag.failure_time, 0.0);
}

TEST(Transient, RejectsFloatingVoltageSources) {
  Netlist nl;
  NodeId a = nl.add_node();
  NodeId b = nl.add_node();
  nl.add_resistor(b, kGround, 100.0);
  nl.add_vsource(a, b, SourceWaveform::dc(1.0));
  EXPECT_THROW(TransientSimulator{nl}, sim::SimulationError);
}

TEST(Transient, NewtonIterationsAreCounted) {
  Technology t = technology_180nm();
  InverterFixture f(t);
  f.nl.add_vsource(f.in, kGround,
                   SourceWaveform::ramp(0.0, t.vdd, 10e-12, 50e-12));
  TransientSimulator sim(f.nl);
  TransientOptions opt;
  opt.tstop = 0.5e-9;
  opt.dt = 1e-12;
  TransientResult res = sim.run(opt);
  ASSERT_TRUE(res.converged);
  EXPECT_GT(res.total_newton_iterations, 500);  // >= 1 per step
}

// A node outside the stored node vector is a classified error, not an
// out-of-bounds read.
TEST(Transient, StoredNodeIndexIsChecked) {
  Technology t = technology_180nm();
  InverterFixture f(t);
  f.nl.add_vsource(f.in, kGround,
                   SourceWaveform::ramp(0.0, t.vdd, 50e-12, 50e-12));
  TransientSimulator sim(f.nl);
  TransientOptions opt;
  opt.tstop = 0.2e-9;
  opt.dt = 2e-12;
  const TransientResult res = sim.run(opt);
  ASSERT_TRUE(res.converged) << res.failure();

  const std::size_t last = f.nl.node_count() - 1;
  const auto w = res.waveform(static_cast<NodeId>(last));
  ASSERT_EQ(w.size(), res.time.size());
  for (std::size_t k = 0; k < w.size(); ++k) {
    EXPECT_EQ(w[k].first, res.time[k]);
    EXPECT_EQ(w[k].second, res.node_voltages[k][last]);
  }
  EXPECT_EQ(res.final_voltage(static_cast<NodeId>(last)),
            res.node_voltages.back()[last]);

  const auto invalid_input = [](const auto& read) {
    try {
      read();
    } catch (const sim::SimulationError& e) {
      return e.kind() == sim::FailureKind::kInvalidInput;
    }
    return false;
  };
  for (const NodeId n : {static_cast<NodeId>(last + 1), NodeId{-1}}) {
    EXPECT_TRUE(invalid_input([&] { (void)res.waveform(n); })) << n;
    EXPECT_TRUE(invalid_input([&] { (void)res.final_voltage(n); })) << n;
  }
}

// A NaN source value must fail the transient at the step it reaches:
// the Newton step's dmax has to carry the NaN (std::max(m, NaN) == m) to
// newton_loop's non-finite check.
TEST(Transient, NanSourceValueFails) {
  Technology t = technology_180nm();
  InverterFixture f(t);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  f.nl.add_vsource(f.in, kGround,
                   SourceWaveform::pwl({{0.0, 0.0},
                                        {50e-12, 0.0},
                                        {100e-12, nan},
                                        {200e-12, t.vdd}}));
  TransientSimulator sim(f.nl);
  TransientOptions opt;
  opt.tstop = 0.3e-9;
  opt.dt = 1e-12;
  const TransientResult res = sim.run(opt);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.diag.kind, sim::FailureKind::kNewtonNonConvergence)
      << res.failure();
  EXPECT_NEAR(res.diag.failure_time, 50e-12, 1.5e-12);
  for (const auto& [time, v] : res.waveform(f.out)) {
    EXPECT_TRUE(std::isfinite(v)) << "t = " << time;
  }
}

}  // namespace
}  // namespace lcsf::spice
