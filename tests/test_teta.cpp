// Tests for the recursive convolver and the Successive-Chords stage engine.
// The key validations compare TETA against the conventional SPICE-
// substitute on identical stages.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/technology.hpp"
#include "interconnect/coupled_lines.hpp"
#include "mor/pact.hpp"
#include "mor/poleres.hpp"
#include "mor/variational.hpp"
#include "sim/diagnostics.hpp"
#include "spice/transient.hpp"
#include "teta/batch.hpp"
#include "teta/convolution.hpp"
#include "teta/stage.hpp"

namespace lcsf::teta {
namespace {

using circuit::kGround;
using circuit::SourceWaveform;
using circuit::Technology;
using circuit::technology_180nm;
using numeric::Complex;
using numeric::Matrix;
using numeric::Vector;

// One-port single-pole model: Z(s) = r/(s-p), i.e. a parallel RC with
// R = -r/p and C = 1/r.
mor::PoleResidueModel single_pole(double r, double p) {
  Matrix direct(1, 1);
  numeric::ComplexMatrix res(1, 1);
  res(0, 0) = r;
  return mor::PoleResidueModel(1, direct, {Complex{p, 0.0}}, {res});
}

TEST(Convolver, StepResponseMatchesAnalytic) {
  const double r = 1e12;  // 1/C with C = 1 pF
  const double p = -1e9;  // R = 1k
  mor::PoleResidueModel z = single_pole(r, p);
  const double dt = 10e-12;
  RecursiveConvolver conv(z, dt);

  // Current step 1 mA applied from t=0 (current ramps up over first step,
  // linear inside steps thereafter -- exact recursion, so compare against
  // the analytic response to the trapezoid-shaped current).
  const double i0 = 1e-3;
  double t = 0.0;
  for (int k = 1; k <= 1200; ++k) {
    t = k * dt;
    const Vector inow{i0};  // constant after first step
    // v = H i + hist
    Vector hist = conv.history();
    const double v = conv.step_impedance()(0, 0) * inow[0] + hist[0];
    conv.advance(inow);

    // Analytic: current ramps 0->i0 over [0, dt], then constant.
    // v(t) = r * int_0^t e^{p(t-tau)} i(tau) dtau.
    auto vexact = [&](double tt) {
      const double h = dt;
      if (tt <= h) {
        const double b = i0 / h;
        return r * b * (std::exp(p * tt) - 1.0 - p * tt) / (p * p) * 1.0;
      }
      // Ramp contribution shifted + constant tail.
      const double b = i0 / h;
      const double ramp_at_h = b * (std::exp(p * h) - 1.0 - p * h) / (p * p);
      const double decay = std::exp(p * (tt - h));
      // State after ramp propagates; constant current from h to tt:
      const double steady = i0 * (std::exp(p * (tt - h)) - 1.0) / p;
      return r * (ramp_at_h * decay + steady);
    };
    EXPECT_NEAR(v, vexact(t), 2e-4 * std::abs(vexact(t)) + 1e-9)
        << "t = " << t;
  }
  // Final value after 12 time constants: v -> Z(0) * i0 = (-r/p) i0 = 1 V.
  Vector hist = conv.history();
  const double v = conv.step_impedance()(0, 0) * i0 + hist[0];
  EXPECT_NEAR(v, 1.0, 1e-4);
}

TEST(Convolver, DcInitializationHoldsSteadyState) {
  mor::PoleResidueModel z = single_pole(5e11, -2e9);
  RecursiveConvolver conv(z, 5e-12);
  const double i0 = 2e-3;
  conv.initialize_dc(Vector{i0});
  const double vdc = conv.dc_impedance()(0, 0) * i0;
  for (int k = 0; k < 50; ++k) {
    Vector hist = conv.history();
    const double v = conv.step_impedance()(0, 0) * i0 + hist[0];
    EXPECT_NEAR(v, vdc, 1e-9 * std::abs(vdc));
    conv.advance(Vector{i0});
  }
}

TEST(Convolver, RejectsUnstableModel) {
  mor::PoleResidueModel z = single_pole(1e12, +1e9);
  EXPECT_THROW(RecursiveConvolver(z, 1e-12), sim::SimulationError);
}

TEST(Convolver, ComplexPairGivesRealRingingResponse) {
  // Conjugate pole pair -> damped oscillation, strictly real output.
  Matrix direct(1, 1);
  numeric::ComplexMatrix r1(1, 1), r2(1, 1);
  r1(0, 0) = Complex{5e11, 1e11};
  r2(0, 0) = Complex{5e11, -1e11};
  mor::PoleResidueModel z(1, direct,
                          {Complex{-1e9, 5e9}, Complex{-1e9, -5e9}},
                          {r1, r2});
  RecursiveConvolver conv(z, 10e-12);
  double vmin = 1e9, vmax = -1e9;
  for (int k = 0; k < 400; ++k) {
    Vector hist = conv.history();
    const double v = conv.step_impedance()(0, 0) * 1e-3 + hist[0];
    vmin = std::min(vmin, v);
    vmax = std::max(vmax, v);
    conv.advance(Vector{1e-3});
  }
  EXPECT_GT(vmax, 0.0);
  EXPECT_LT(vmin, vmax);  // oscillatory settle
  EXPECT_TRUE(std::isfinite(vmin));
}

TEST(CompressPwl, KeepsCornersDropsCollinear) {
  std::vector<std::pair<double, double>> samples;
  for (int k = 0; k <= 100; ++k) {
    const double t = k * 1e-12;
    samples.emplace_back(t, t < 50e-12 ? 0.0 : (t - 50e-12) * 1e10);
  }
  auto compact = compress_pwl(samples, 1e-6);
  EXPECT_LT(compact.size(), 6u);
  // Interpolating the compact form reproduces every sample.
  auto wave = circuit::SourceWaveform::pwl(compact);
  for (const auto& [t, v] : samples) {
    EXPECT_NEAR(wave.value(t), v, 2e-6);
  }
}

TEST(StageCircuit, ChordConductances) {
  Technology t = technology_180nm();
  StageCircuit s;
  const std::size_t out = s.add_port();
  const std::size_t in = s.add_input(SourceWaveform::dc(0.0));
  const std::size_t vdd = s.add_rail(t.vdd);
  const std::size_t gnd = s.add_rail(0.0);
  s.add_mosfet(t.make_nmos(static_cast<int>(out), static_cast<int>(in),
                           static_cast<int>(gnd), 4.0));
  s.add_mosfet(t.make_pmos(static_cast<int>(out), static_cast<int>(in),
                           static_cast<int>(vdd), 8.0));
  Vector g = s.port_chord_conductances(t.vdd);
  ASSERT_EQ(g.size(), 1u);
  const double gn =
      t.nmos.kp * 4.0 * (t.vdd - t.nmos.vt0);
  const double gp =
      t.pmos.kp * 8.0 * (t.vdd - t.pmos.vt0);
  EXPECT_NEAR(g[0], gn + gp, 1e-12);

  // Chords are variation-independent by construction.
  StageCircuit s2;
  const std::size_t out2 = s2.add_port();
  const std::size_t in2 = s2.add_input(SourceWaveform::dc(0.0));
  const std::size_t gnd2 = s2.add_rail(0.0);
  circuit::Mosfet m = t.make_nmos(static_cast<int>(out2),
                                  static_cast<int>(in2),
                                  static_cast<int>(gnd2), 4.0);
  m.delta_vt = 0.1;
  m.delta_l = 0.01e-6;
  s2.add_mosfet(m);
  EXPECT_NEAR(s2.port_chord_conductances(t.vdd)[0], gn, 1e-12);
}

// Build the same inverter + RC-pi load twice: as a SPICE netlist and as a
// TETA stage with an exact (untruncated) pole/residue load.
struct InverterVsSpice {
  Technology tech = technology_180nm();
  double rload = 500.0, cload1 = 20e-15, cload2 = 30e-15;
  double wn = 6.0, wp = 12.0;
  SourceWaveform input =
      SourceWaveform::ramp(0.0, 1.8, 50e-12, 80e-12);

  spice::TransientResult run_spice(double tstop, double dt) const {
    circuit::Netlist nl;
    const auto in = nl.add_node("in");
    const auto out = nl.add_node("out");
    const auto far = nl.add_node("far");
    const auto vdd = nl.add_node("vdd");
    nl.add_vsource(vdd, kGround, SourceWaveform::dc(tech.vdd));
    nl.add_vsource(in, kGround, input);
    nl.add_mosfet(tech.make_nmos(out, in, kGround, wn));
    nl.add_mosfet(tech.make_pmos(out, in, vdd, wp));
    nl.add_capacitor(out, kGround, cload1);
    nl.add_resistor(out, far, rload);
    nl.add_capacitor(far, kGround, cload2);
    nl.freeze_device_capacitances();
    spice::TransientSimulator sim(nl);
    spice::TransientOptions opt;
    opt.tstop = tstop;
    opt.dt = dt;
    return sim.run(opt);
  }

  TetaResult run_teta(double tstop, double dt) const {
    // Load: ports {out, far}; R/C elements only. The driver's own device
    // caps stay in the stage.
    circuit::Netlist load;
    const auto out = load.add_node("out");
    const auto far = load.add_node("far");
    load.add_capacitor(out, kGround, cload1);
    load.add_resistor(out, far, rload);
    load.add_capacitor(far, kGround, cload2);

    StageCircuit stage;
    const std::size_t p_out = stage.add_port();
    (void)stage.add_port();  // far port, observed only
    const std::size_t in = stage.add_input(input);
    const std::size_t vdd = stage.add_rail(tech.vdd);
    const std::size_t gnd = stage.add_rail(0.0);
    stage.add_mosfet(tech.make_nmos(static_cast<int>(p_out),
                                    static_cast<int>(in),
                                    static_cast<int>(gnd), wn));
    stage.add_mosfet(tech.make_pmos(static_cast<int>(p_out),
                                    static_cast<int>(in),
                                    static_cast<int>(vdd), wp));
    stage.freeze_device_capacitances();

    auto pencil = interconnect::build_ported_pencil(load, {out, far});
    pencil = mor::with_port_conductance(
        std::move(pencil), stage.port_chord_conductances(tech.vdd));
    // Exact (full-order) reduction -> pole/residue.
    mor::PactOptions popt;
    popt.internal_modes = pencil.g.rows();
    auto rom = mor::pact_reduce(pencil, popt).model;
    auto z = mor::extract_pole_residue(rom);

    TetaOptions topt;
    topt.tstop = tstop;
    topt.dt = dt;
    topt.vdd = tech.vdd;
    return simulate_stage(stage, z, topt);
  }
};

TEST(StageEngine, InverterMatchesSpice) {
  InverterVsSpice fix;
  const double tstop = 1.2e-9;
  const double dt = 1e-12;
  auto sres = fix.run_spice(tstop, dt);
  ASSERT_TRUE(sres.converged) << sres.failure();
  auto tres = fix.run_teta(tstop, dt);
  ASSERT_TRUE(tres.converged) << tres.failure();

  // Compare the driven port and the far node over TETA's samples. TETA
  // stops once the stage has settled and its last sample holds from
  // there on, so SPICE's remaining tail is compared against it too.
  auto sw_out = sres.waveform(2);  // "out" was second added node
  auto sw_far = sres.waveform(3);
  const auto tw_out = tres.waveform(0);
  const auto tw_far = tres.waveform(1);
  const std::size_t nt = tres.time.size();
  ASSERT_LT(nt, sw_out.size()) << "the settled stage stops early";
  double max_err_out = 0.0, max_err_far = 0.0;
  for (std::size_t k = 0; k < sw_out.size(); ++k) {
    const std::size_t kt = std::min(k, nt - 1);
    max_err_out = std::max(max_err_out,
                           std::abs(sw_out[k].second - tw_out[kt].second));
    max_err_far = std::max(max_err_far,
                           std::abs(sw_far[k].second - tw_far[kt].second));
  }
  // Same device model, same timestep, both second-order integrators.
  EXPECT_LT(max_err_out, 0.02) << "driven port diverges from SPICE";
  EXPECT_LT(max_err_far, 0.02) << "far port diverges from SPICE";
}

// Port voltages are stored step-major, so a port past the stage's count
// would read the next step's samples: waveform() rejects it instead.
TEST(StageEngine, WaveformRejectsAPortPastTheStoredCount) {
  const TetaResult res = InverterVsSpice{}.run_teta(0.5e-9, 1e-12);
  ASSERT_TRUE(res.converged) << res.failure();
  const std::size_t np = 2;  // out, far
  ASSERT_EQ(res.port_voltages.size(), np * res.time.size());
  const auto far = res.waveform(np - 1);
  ASSERT_EQ(far.size(), res.time.size());
  for (std::size_t k = 0; k < far.size(); ++k) {
    EXPECT_EQ(far[k].first, res.time[k]);
    EXPECT_EQ(far[k].second, res.port_voltages[k * np + np - 1]);
  }
  try {
    (void)res.waveform(np);
    ADD_FAILURE() << "port " << np << " accepted";
  } catch (const sim::SimulationError& e) {
    EXPECT_EQ(e.kind(), sim::FailureKind::kInvalidInput);
  }
}

TEST(StageEngine, NandStackWithInternalNodeMatchesSpice) {
  Technology t = technology_180nm();
  const SourceWaveform a_in =
      SourceWaveform::ramp(0.0, t.vdd, 50e-12, 80e-12);
  const double cload = 25e-15;
  const double tstop = 1.2e-9, dt = 1e-12;

  // SPICE reference: NAND2 with input B tied high, A switching.
  circuit::Netlist nl;
  const auto in_a = nl.add_node("a");
  const auto out = nl.add_node("out");
  const auto mid = nl.add_node("mid");
  const auto vdd = nl.add_node("vdd");
  nl.add_vsource(vdd, kGround, SourceWaveform::dc(t.vdd));
  nl.add_vsource(in_a, kGround, a_in);
  nl.add_mosfet(t.make_nmos(out, in_a, mid, 8.0));
  nl.add_mosfet(t.make_nmos(mid, vdd, kGround, 8.0));  // B = 1
  nl.add_mosfet(t.make_pmos(out, in_a, vdd, 8.0));
  nl.add_mosfet(t.make_pmos(out, vdd, vdd, 8.0));  // B = 1: off
  nl.add_capacitor(out, kGround, cload);
  nl.freeze_device_capacitances();
  spice::TransientSimulator sim(nl);
  spice::TransientOptions sopt;
  sopt.tstop = tstop;
  sopt.dt = dt;
  auto sres = sim.run(sopt);
  ASSERT_TRUE(sres.converged) << sres.failure();

  // TETA stage with the series stack's mid node as an internal node.
  StageCircuit stage;
  const std::size_t p_out = stage.add_port();
  const std::size_t s_a = stage.add_input(a_in);
  const std::size_t s_vdd = stage.add_rail(t.vdd);
  const std::size_t s_gnd = stage.add_rail(0.0);
  const std::size_t s_mid = stage.add_internal();
  stage.add_mosfet(t.make_nmos(static_cast<int>(p_out),
                               static_cast<int>(s_a),
                               static_cast<int>(s_mid), 8.0));
  stage.add_mosfet(t.make_nmos(static_cast<int>(s_mid),
                               static_cast<int>(s_vdd),
                               static_cast<int>(s_gnd), 8.0));
  stage.add_mosfet(t.make_pmos(static_cast<int>(p_out),
                               static_cast<int>(s_a),
                               static_cast<int>(s_vdd), 8.0));
  stage.add_mosfet(t.make_pmos(static_cast<int>(p_out),
                               static_cast<int>(s_vdd),
                               static_cast<int>(s_vdd), 8.0));
  stage.freeze_device_capacitances();

  circuit::Netlist load;
  const auto lout = load.add_node("out");
  load.add_capacitor(lout, kGround, cload);
  auto pencil = interconnect::build_ported_pencil(load, {lout});
  pencil = mor::with_port_conductance(
      std::move(pencil), stage.port_chord_conductances(t.vdd));
  auto rom = mor::pact_reduce(pencil, mor::PactOptions{4}).model;
  auto z = mor::extract_pole_residue(rom);

  TetaOptions topt;
  topt.tstop = tstop;
  topt.dt = dt;
  topt.vdd = t.vdd;
  auto tres = simulate_stage(stage, z, topt);
  ASSERT_TRUE(tres.converged) << tres.failure();

  auto sw = sres.waveform(out);
  const auto tw = tres.waveform(0);
  double max_err = 0.0;
  for (std::size_t k = 0; k < tw.size(); ++k) {
    max_err = std::max(max_err, std::abs(sw[k].second - tw[k].second));
  }
  EXPECT_LT(max_err, 0.03);
}

TEST(StageEngine, ReportsIterationBudgetExhaustion) {
  InverterVsSpice fix;
  // Force failure with an absurdly small iteration budget.
  circuit::Netlist load;
  const auto out = load.add_node("out");
  load.add_capacitor(out, kGround, fix.cload1);
  load.add_resistor(out, kGround, 1e5);
  StageCircuit stage;
  const std::size_t p_out = stage.add_port();
  const std::size_t in = stage.add_input(fix.input);
  const std::size_t vdd = stage.add_rail(fix.tech.vdd);
  const std::size_t gnd = stage.add_rail(0.0);
  stage.add_mosfet(fix.tech.make_nmos(static_cast<int>(p_out),
                                      static_cast<int>(in),
                                      static_cast<int>(gnd), 6.0));
  stage.add_mosfet(fix.tech.make_pmos(static_cast<int>(p_out),
                                      static_cast<int>(in),
                                      static_cast<int>(vdd), 12.0));
  auto pencil = interconnect::build_ported_pencil(load, {out});
  pencil = mor::with_port_conductance(
      std::move(pencil), stage.port_chord_conductances(fix.tech.vdd));
  auto z = mor::extract_pole_residue(
      mor::pact_reduce(pencil, mor::PactOptions{2}).model);
  TetaOptions topt;
  topt.tstop = 0.2e-9;
  topt.dt = 1e-12;
  topt.vdd = fix.tech.vdd;
  topt.max_sc_iters = 1;
  auto res = simulate_stage(stage, z, topt);
  EXPECT_FALSE(res.converged);
  EXPECT_TRUE(res.diag.failed());
  // With a one-iteration budget the DC solve exhausts it first; either
  // classification is an iteration-budget failure, never kOther.
  EXPECT_TRUE(res.diag.kind == sim::FailureKind::kDcFailure ||
              res.diag.kind == sim::FailureKind::kNewtonNonConvergence)
      << res.failure();
}

// An inverter driving an RC load through a reduced one-port model, with
// the input and the NMOS threshold shift free: the NaN-iterate cases below
// run it alone and as lanes of a lockstep block.
struct NanInverter {
  Technology tech = technology_180nm();
  StageCircuit stage;
  mor::PoleResidueModel load;

  explicit NanInverter(const SourceWaveform& input, double nmos_dvt = 0.0) {
    const std::size_t p_out = stage.add_port();
    const std::size_t in = stage.add_input(input);
    const std::size_t vdd = stage.add_rail(tech.vdd);
    const std::size_t gnd = stage.add_rail(0.0);
    circuit::Mosfet n = tech.make_nmos(static_cast<int>(p_out),
                                       static_cast<int>(in),
                                       static_cast<int>(gnd), 6.0);
    n.delta_vt = nmos_dvt;
    stage.add_mosfet(n);
    stage.add_mosfet(tech.make_pmos(static_cast<int>(p_out),
                                    static_cast<int>(in),
                                    static_cast<int>(vdd), 12.0));
    stage.freeze_device_capacitances();
    circuit::Netlist rc;
    const auto out = rc.add_node("out");
    rc.add_capacitor(out, kGround, 20e-15);
    rc.add_resistor(out, kGround, 1e5);
    auto pencil = interconnect::build_ported_pencil(rc, {out});
    pencil = mor::with_port_conductance(
        std::move(pencil), stage.port_chord_conductances(tech.vdd));
    load = mor::extract_pole_residue(
        mor::pact_reduce(pencil, mor::PactOptions{2}).model);
  }

  TetaOptions options() const {
    TetaOptions topt;
    topt.tstop = 0.5e-9;
    topt.dt = 1e-12;
    topt.vdd = tech.vdd;
    return topt;
  }
};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// std::max(m, NaN) == m, so neither the chord iteration's dmax nor the
// blow-up check's max sees a NaN: a NaN iterate must still fail as a
// blow-up at the step it appears, with only finite samples stored.
TEST(StageEngine, NanInputFailsAsBlowUp) {
  // The input turns NaN past 50 ps: value(t) interpolates toward NaN.
  const NanInverter fix(SourceWaveform::pwl(
      {{0.0, 0.0}, {50e-12, 0.0}, {100e-12, kNaN}, {200e-12, 1.8}}));
  const TetaResult res = simulate_stage(fix.stage, fix.load, fix.options());
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.diag.kind, sim::FailureKind::kBlowUp) << res.failure();
  EXPECT_NEAR(res.diag.failure_time, 50e-12, 1.5e-12);
  ASSERT_FALSE(res.time.empty());
  EXPECT_LT(res.time.back(), res.diag.failure_time);
  ASSERT_EQ(res.port_voltages.size(), res.time.size());  // one port
  for (const double v : res.port_voltages) EXPECT_TRUE(std::isfinite(v));
}

// A NaN device parameter reaches the DC Newton, whose dmax cannot see it
// either: the operating point fails instead of starting a NaN transient.
TEST(StageEngine, NanDeviceFailsAtDc) {
  const NanInverter fix(SourceWaveform::ramp(0.0, 1.8, 50e-12, 80e-12),
                        kNaN);
  const TetaResult res = simulate_stage(fix.stage, fix.load, fix.options());
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.diag.kind, sim::FailureKind::kDcFailure) << res.failure();
}

// A NaN or infinite stage capacitor stops at the adder, before it can
// reach the transient matrix.
TEST(StageCircuit, RejectsNonFiniteCapacitance) {
  StageCircuit s;
  const std::size_t a = s.add_port();
  const std::size_t g = s.add_rail(0.0);
  for (const double c : {kNaN, std::numeric_limits<double>::infinity(),
                         -1e-15}) {
    try {
      s.add_capacitor(a, g, c);
      ADD_FAILURE() << "accepted " << c;
    } catch (const sim::SimulationError& e) {
      EXPECT_EQ(e.kind(), sim::FailureKind::kInvalidInput) << c;
    }
  }
  EXPECT_TRUE(s.capacitors().empty());
  s.add_capacitor(a, g, 0.0);
  EXPECT_EQ(s.capacitors().size(), 1u);
}

// In a K = 3 block the NaN lane leaves at its failure step with the same
// result as a one-lane run, and its neighbours stay bitwise unchanged.
TEST(StageEngine, NanLaneLeavesItsBlockAlone) {
  const SourceWaveform ramp = SourceWaveform::ramp(0.0, 1.8, 50e-12, 80e-12);
  const std::vector<NanInverter> fixes = {
      NanInverter(ramp, 0.02),
      NanInverter(SourceWaveform::pwl(
          {{0.0, 0.0}, {50e-12, 0.0}, {100e-12, kNaN}, {200e-12, 1.8}})),
      NanInverter(ramp, -0.02)};
  const TetaOptions topt = fixes[0].options();
  std::vector<TetaWorkspace> ws(fixes.size());
  std::vector<TetaResult> block(fixes.size());
  std::vector<BatchLane> lanes;
  for (std::size_t l = 0; l < fixes.size(); ++l) {
    lanes.push_back({&fixes[l].stage, &fixes[l].load, &ws[l], &block[l]});
  }
  BatchTetaWorkspace bws;
  simulate_stage_batch(lanes, topt, bws);
  for (std::size_t l = 0; l < fixes.size(); ++l) {
    const TetaResult one = simulate_stage(fixes[l].stage, fixes[l].load, topt);
    EXPECT_EQ(block[l].converged, l != 1) << "lane " << l;
    EXPECT_EQ(block[l].diag.kind, one.diag.kind) << "lane " << l;
    EXPECT_EQ(block[l].total_sc_iterations, one.total_sc_iterations);
    ASSERT_EQ(block[l].time, one.time) << "lane " << l;
    ASSERT_EQ(block[l].port_voltages, one.port_voltages) << "lane " << l;
  }
  EXPECT_EQ(block[1].diag.kind, sim::FailureKind::kBlowUp);
}

}  // namespace
}  // namespace lcsf::teta
