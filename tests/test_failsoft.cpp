// Fail-soft behaviour: failure classification in both engines, bounded
// dt-halving recovery, and per-sample skip/record semantics in the
// statistical drivers (docs/robustness.md).
#include <gtest/gtest.h>

#include <stdexcept>

#include "circuit/netlist.hpp"
#include "circuit/technology.hpp"
#include "mor/poleres.hpp"
#include "numeric/complex_matrix.hpp"
#include "numeric/fp_compare.hpp"
#include "sim/diagnostics.hpp"
#include "spice/transient.hpp"
#include "stats/analysis.hpp"
#include "stats/runner.hpp"
#include "stats/yield.hpp"
#include "teta/stage.hpp"

namespace lcsf {
namespace {

using circuit::kGround;
using circuit::Netlist;
using circuit::NodeId;
using circuit::SourceWaveform;
using circuit::Technology;
using circuit::technology_180nm;
using numeric::Vector;

// ---------------------------------------------------------------------
// SimDiagnostics basics.

TEST(Diagnostics, MessageFormatsKindTimeAndRetries) {
  sim::SimDiagnostics d;
  EXPECT_FALSE(d.failed());
  EXPECT_EQ(d.message(), "converged");

  d.kind = sim::FailureKind::kBlowUp;
  d.detail = "|v| exceeded 1e4";
  d.failure_time = 1e-9;
  d.retries_used = 2;
  EXPECT_TRUE(d.failed());
  const std::string msg = d.message();
  EXPECT_NE(msg.find("blow-up"), std::string::npos) << msg;
  EXPECT_NE(msg.find("|v| exceeded"), std::string::npos) << msg;
  EXPECT_NE(msg.find("2 retries"), std::string::npos) << msg;
  // Six significant digits, never fixed-point zeros.
  EXPECT_NE(msg.find("at t = 1e-09 s"), std::string::npos) << msg;
  d.failure_time = 2.5e-10;
  EXPECT_EQ(d.message(),
            "blow-up at t = 2.5e-10 s: |v| exceeded 1e4 (after 2 retries)");
}

TEST(Diagnostics, SimulationErrorCarriesDiagnostics) {
  sim::SimDiagnostics d;
  d.kind = sim::FailureKind::kNewtonNonConvergence;
  d.detail = "iteration limit";
  try {
    throw sim::SimulationError(d);
  } catch (const sim::SimulationError& e) {
    EXPECT_EQ(e.kind(), sim::FailureKind::kNewtonNonConvergence);
    EXPECT_EQ(e.diagnostics().detail, "iteration limit");
  }
}

// ---------------------------------------------------------------------
// SPICE engine classification.

// Linear circuit with an unstable macromodel: Newton has nothing to fail
// on (the system is linear), so the exponential growth must be caught by
// the blow-up guard and classified as such.
spice::TransientResult run_unstable_linear(const spice::TransientOptions&
                                               opt) {
  Netlist nl;
  const NodeId src = nl.add_node("src");
  const NodeId port = nl.add_node("port");
  nl.add_vsource(src, kGround, SourceWaveform::ramp(0.0, 1.0, 0.0, 1e-12));
  nl.add_resistor(src, port, 100.0);
  spice::MacromodelStamp mm;
  mm.ports = {port};
  mm.g = numeric::Matrix{{1e-3, -1e-3}, {-1e-3, -0.5e-3}};
  mm.c = numeric::Matrix{{0.0, 0.0}, {0.0, 1e-13}};
  spice::TransientSimulator sim(nl);
  sim.add_macromodel(mm);
  return sim.run(opt);
}

TEST(FailSoft, SpiceClassifiesBlowUp) {
  spice::TransientOptions opt;
  opt.tstop = 10e-9;
  opt.dt = 2e-12;
  // Keep the threshold below the point where the per-step voltage change
  // outruns the damped Newton budget, so the blow-up guard fires first.
  opt.vblowup = 100.0;
  const auto res = run_unstable_linear(opt);
  ASSERT_FALSE(res.converged);
  EXPECT_EQ(res.diag.kind, sim::FailureKind::kBlowUp) << res.failure();
  EXPECT_GT(res.diag.failure_time, 0.0);
  EXPECT_GE(res.diag.max_abs_v, opt.vblowup);
  EXPECT_EQ(res.diag.retries_used, 0);
}

TEST(FailSoft, SpiceBlowUpRetriesAreBoundedAndCounted) {
  // dt halving cannot save a genuinely unstable model: the budget must be
  // spent, counted, and the classification preserved.
  spice::TransientOptions opt;
  opt.tstop = 10e-9;
  opt.dt = 2e-12;
  opt.vblowup = 100.0;
  opt.recovery.max_dt_retries = 3;
  const auto res = run_unstable_linear(opt);
  ASSERT_FALSE(res.converged);
  EXPECT_EQ(res.diag.kind, sim::FailureKind::kBlowUp) << res.failure();
  EXPECT_GT(res.diag.retries_used, 0);
}

TEST(FailSoft, SpiceClassifiesDcFailure) {
  // A one-iteration Newton budget cannot solve the inverter DC point.
  Technology t = technology_180nm();
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  const NodeId vdd = nl.add_node("vdd");
  nl.add_vsource(vdd, kGround, SourceWaveform::dc(t.vdd));
  nl.add_vsource(in, kGround, SourceWaveform::dc(0.5 * t.vdd));
  nl.add_mosfet(t.make_nmos(out, in, kGround, 4.0));
  nl.add_mosfet(t.make_pmos(out, in, vdd, 8.0));
  nl.add_capacitor(out, kGround, 10e-15);
  nl.freeze_device_capacitances();

  spice::TransientSimulator sim(nl);
  spice::TransientOptions opt;
  opt.tstop = 0.1e-9;
  opt.dt = 1e-12;
  opt.max_newton = 1;
  const auto res = sim.run(opt);
  ASSERT_FALSE(res.converged);
  EXPECT_EQ(res.diag.kind, sim::FailureKind::kDcFailure) << res.failure();
}

TEST(FailSoft, SpiceDtHalvingRecoversTightIterationBudget) {
  // RC step response with a hard damping clamp: the damped Newton needs
  // about (dv per step / damping) iterations, so the first coarse step
  // exceeds the budget while halved sub-steps fit. DC is trivial (source
  // starts at 0), isolating the transient retry path. The same deck must
  // fail without the retry budget and converge with it.
  Netlist nl;
  const NodeId src = nl.add_node("src");
  const NodeId out = nl.add_node("out");
  nl.add_vsource(src, kGround,
                 SourceWaveform::ramp(0.0, 1.8, 0.0, 100e-12));
  nl.add_resistor(src, out, 1000.0);
  nl.add_capacitor(out, kGround, 0.05e-12);

  spice::TransientOptions opt;
  opt.tstop = 0.4e-9;
  opt.dt = 100e-12;
  opt.max_newton = 8;
  opt.damping = 0.1;                  // max 0.1 V per Newton iteration
  opt.recovery.damping_factor = 1.0;  // isolate the dt effect

  spice::TransientSimulator sim(nl);
  const auto plain = sim.run(opt);
  ASSERT_FALSE(plain.converged) << "fixture no longer stresses Newton";
  EXPECT_EQ(plain.diag.kind, sim::FailureKind::kNewtonNonConvergence)
      << plain.failure();
  EXPECT_GT(plain.diag.failure_time, 0.0);
  EXPECT_GT(plain.diag.iterations, 0);

  opt.recovery.max_dt_retries = 3;
  spice::TransientSimulator rsim(nl);
  const auto recovered = rsim.run(opt);
  ASSERT_TRUE(recovered.converged) << recovered.failure();
  EXPECT_EQ(recovered.diag.kind, sim::FailureKind::kNone);
  EXPECT_GT(recovered.diag.retries_used, 0);
  // Recovery keeps the stored time axis at the top-level dt: sub-steps
  // stay internal to the retried interval.
  EXPECT_EQ(recovered.time.size(),
            static_cast<std::size_t>(opt.tstop / opt.dt) + 1);
  EXPECT_NEAR(recovered.final_voltage(out), 1.8, 0.05);
}

TEST(FailSoft, WaveformWithoutStorageThrowsInsteadOfReadingOob) {
  Netlist nl;
  const NodeId src = nl.add_node("src");
  const NodeId out = nl.add_node("out");
  nl.add_vsource(src, kGround, SourceWaveform::ramp(0.0, 1.0, 0.0, 1e-12));
  nl.add_resistor(src, out, 1000.0);
  nl.add_capacitor(out, kGround, 1e-12);

  spice::TransientSimulator sim(nl);
  spice::TransientOptions opt;
  opt.tstop = 1e-9;
  opt.dt = 10e-12;
  opt.store_waveforms = false;
  const auto res = sim.run(opt);
  ASSERT_TRUE(res.converged) << res.failure();
  EXPECT_FALSE(res.time.empty());
  EXPECT_TRUE(res.node_voltages.empty());
  EXPECT_THROW((void)res.waveform(out), std::runtime_error);
}

// ---------------------------------------------------------------------
// TETA engine classification.

teta::StageCircuit make_inverter_stage(const Technology& t) {
  teta::StageCircuit st;
  const std::size_t out = st.add_port();
  const std::size_t in = st.add_input(
      SourceWaveform::ramp(0.0, t.vdd, 20e-12, 40e-12));
  const std::size_t vdd = st.add_rail(t.vdd);
  const std::size_t gnd = st.add_rail(0.0);
  st.add_mosfet(t.make_nmos(static_cast<int>(out), static_cast<int>(in),
                            static_cast<int>(gnd), 4.0));
  st.add_mosfet(t.make_pmos(static_cast<int>(out), static_cast<int>(in),
                            static_cast<int>(vdd), 8.0));
  st.freeze_device_capacitances();
  return st;
}

mor::PoleResidueModel one_port_load(double pole_re) {
  numeric::ComplexMatrix r(1, 1);
  r(0, 0) = numeric::Complex(1e9, 0.0);  // residue scale ~ 1/C
  return mor::PoleResidueModel(1, numeric::Matrix{{0.0}},
                               {numeric::Complex(pole_re, 0.0)}, {r});
}

TEST(FailSoft, TetaRejectsUnstableLoadWhenAsked) {
  Technology t = technology_180nm();
  const auto stage = make_inverter_stage(t);
  const auto load = one_port_load(+2e9);  // right-half-plane pole
  ASSERT_GT(load.count_unstable(), 0u);

  teta::TetaOptions opt;
  opt.tstop = 0.5e-9;
  opt.dt = 1e-12;
  opt.vdd = t.vdd;
  const auto res = teta::simulate_stage(stage, load, opt);
  ASSERT_FALSE(res.converged);
  EXPECT_EQ(res.diag.kind, sim::FailureKind::kUnstableMacromodel)
      << res.failure();
  // Rejected up front: no transient was attempted.
  EXPECT_TRUE(res.time.empty());
}

TEST(FailSoft, TetaClassifiesUnstableLoadInsteadOfThrowing) {
  // A mildly unstable load must come back as a classified diagnostic
  // too, never as the convolver's invalid_argument.
  Technology t = technology_180nm();
  const auto stage = make_inverter_stage(t);
  const auto load = one_port_load(+2e7);  // mildly unstable

  teta::TetaOptions opt;
  opt.tstop = 0.2e-9;
  opt.dt = 1e-12;
  opt.vdd = t.vdd;
  const auto res = teta::simulate_stage(stage, load, opt);
  ASSERT_FALSE(res.converged);
  EXPECT_EQ(res.diag.kind, sim::FailureKind::kUnstableMacromodel)
      << res.failure();
  EXPECT_NE(res.diag.detail.find("stabilize"), std::string::npos)
      << res.diag.detail;
}

TEST(FailSoft, TetaRetryBudgetIsSpentAndCounted) {
  // A one-iteration SC budget fails at any dt; the whole-run retry loop
  // must spend its budget, count it, and keep the classification.
  Technology t = technology_180nm();
  const auto stage = make_inverter_stage(t);
  const auto load = one_port_load(-1e9);  // stable load

  teta::TetaOptions opt;
  opt.tstop = 0.2e-9;
  opt.dt = 1e-12;
  opt.vdd = t.vdd;
  opt.max_sc_iters = 1;
  opt.recovery.max_dt_retries = 2;
  const auto res = teta::simulate_stage(stage, load, opt);
  ASSERT_FALSE(res.converged);
  EXPECT_TRUE(res.diag.kind == sim::FailureKind::kDcFailure ||
              res.diag.kind == sim::FailureKind::kNewtonNonConvergence)
      << res.failure();
  EXPECT_EQ(res.diag.retries_used, 2);
}

// ---------------------------------------------------------------------
// Monte-Carlo fail-soft.

// Deterministic performance function that fails for a subset of samples:
// classified SimulationError when w[0] > 0.8, foreign runtime_error when
// w[0] < -1.2, otherwise returns w[0].
double flaky_metric(const Vector& w) {
  if (w[0] > 0.8) {
    sim::SimDiagnostics d;
    d.kind = sim::FailureKind::kBlowUp;
    d.detail = "synthetic blow-up";
    d.failure_time = 1e-10;
    throw sim::SimulationError(d);
  }
  if (w[0] < -1.2) throw std::runtime_error("foreign engine error");
  return w[0];
}

TEST(FailSoft, MonteCarloAbortPolicyRethrows) {
  stats::RunOptions opt;
  opt.samples = 200;
  opt.seed = 7;
  opt.exec.threads = 1;
  EXPECT_THROW(stats::Runner(opt).run_monte_carlo(
                   stats::per_sample(flaky_metric), {{}}),
               sim::SimulationError);
}

TEST(FailSoft, MonteCarloSkipPolicyComputesSurvivorStats) {
  stats::RunOptions opt;
  opt.samples = 200;
  opt.seed = 7;
  opt.exec.threads = 1;
  opt.exec.on_failure = stats::FailurePolicy::kSkip;
  const auto res = stats::Runner(opt).run_monte_carlo(
      stats::per_sample(flaky_metric), {{}});

  EXPECT_EQ(res.failures.attempted, 200u);
  EXPECT_TRUE(res.failures.any());
  EXPECT_EQ(res.failures.survived, res.values.size());
  EXPECT_EQ(res.values.size() + res.failures.failed(), 200u);
  EXPECT_EQ(res.values.size(), res.samples.size());
  EXPECT_EQ(res.stats.count(), res.values.size());
  // Both failure routes classified.
  EXPECT_GT(res.failures.count(sim::FailureKind::kBlowUp), 0u);
  EXPECT_GT(res.failures.count(sim::FailureKind::kOther), 0u);
  // Survivor values obey the failure predicate.
  for (double v : res.values) {
    EXPECT_LE(v, 0.8);
    EXPECT_GE(v, -1.2);
  }
  // Failures ordered by sample index, each with a detail.
  for (std::size_t k = 1; k < res.failures.failures.size(); ++k) {
    EXPECT_LT(res.failures.failures[k - 1].index,
              res.failures.failures[k].index);
  }
  EXPECT_FALSE(res.failures.table().empty());
}

TEST(FailSoft, MonteCarloFailureSummaryIsThreadCountInvariant) {
  stats::RunOptions base;
  base.samples = 100;
  base.seed = 42;
  base.exec.on_failure = stats::FailurePolicy::kSkip;

  auto run = [&](std::size_t threads) {
    auto o = base;
    o.exec.threads = threads;
    return stats::Runner(o).run_monte_carlo(stats::per_sample(flaky_metric),
                                            {{}});
  };
  const auto serial = run(1);
  ASSERT_TRUE(serial.failures.any()) << "fixture stopped injecting failures";
  for (std::size_t threads : {2u, 8u}) {
    const auto par = run(threads);
    ASSERT_EQ(par.values.size(), serial.values.size());
    for (std::size_t k = 0; k < serial.values.size(); ++k) {
      EXPECT_EQ(par.values[k], serial.values[k]) << "sample " << k;
    }
    EXPECT_EQ(par.stats.mean(), serial.stats.mean());
    EXPECT_EQ(par.failures.attempted, serial.failures.attempted);
    EXPECT_EQ(par.failures.survived, serial.failures.survived);
    EXPECT_EQ(par.failures.counts, serial.failures.counts);
    ASSERT_EQ(par.failures.failures.size(), serial.failures.failures.size());
    for (std::size_t k = 0; k < serial.failures.failures.size(); ++k) {
      EXPECT_EQ(par.failures.failures[k].index,
                serial.failures.failures[k].index);
      EXPECT_EQ(par.failures.failures[k].kind,
                serial.failures.failures[k].kind);
      EXPECT_EQ(par.failures.failures[k].detail,
                serial.failures.failures[k].detail);
    }
    EXPECT_EQ(par.failures.table(), serial.failures.table());
  }
}

TEST(FailSoft, MonteCarloSkipStillPropagatesLogicErrors) {
  // Misuse is not a simulation outcome: logic_error must escape kSkip.
  stats::RunOptions opt;
  opt.samples = 4;
  opt.exec.threads = 1;
  opt.exec.on_failure = stats::FailurePolicy::kSkip;
  const stats::PerformanceFn misuse = [](const Vector&) -> double {
    throw std::logic_error("bad call");
  };
  EXPECT_THROW(stats::Runner(opt).run_monte_carlo(stats::per_sample(misuse),
                                                  {{}}),
               std::logic_error);
}

TEST(FailSoft, YieldOfFullyFailedRunIsZeroNotAThrow) {
  stats::RunOptions opt;
  opt.samples = 16;
  opt.exec.threads = 1;
  opt.exec.on_failure = stats::FailurePolicy::kSkip;
  const stats::PerformanceFn dead = [](const Vector&) -> double {
    sim::SimDiagnostics d;
    d.kind = sim::FailureKind::kNewtonNonConvergence;
    throw sim::SimulationError(d);
  };
  const stats::McYieldEstimate est(
      stats::Runner(opt).run_monte_carlo(stats::per_sample(dead), {{}}),
      1e-9);
  EXPECT_EQ(est.yield, 0.0);
  EXPECT_EQ(est.std_error, 0.0);
  EXPECT_EQ(est.samples().failures.failed(), 16u);
}

// ---------------------------------------------------------------------
// Gradient-analysis fail-soft.

TEST(FailSoft, GradientAnalysisSkipsFailedProbes) {
  // f = 2 w0 + 3 w1, but any probe touching w1 dies.
  const stats::PerformanceFn f = [](const Vector& w) -> double {
    if (!numeric::exact_zero(w[1])) {
      sim::SimDiagnostics d;
      d.kind = sim::FailureKind::kBlowUp;
      d.detail = "probe died";
      throw sim::SimulationError(d);
    }
    return 2.0 * w[0] + 3.0 * w[1];
  };
  std::vector<stats::VariationSource> sources(2);
  stats::RunOptions opt;
  opt.exec.threads = 1;
  opt.exec.on_failure = stats::FailurePolicy::kSkip;
  const auto res =
      stats::Runner(opt).run_gradients(stats::per_sample(f), sources);
  EXPECT_NEAR(res.gradient[0], 2.0, 1e-9);
  EXPECT_EQ(res.gradient[1], 0.0);  // dead probe excluded
  EXPECT_NEAR(res.stddev, 2.0, 1e-9);  // RSS over surviving sources only
  EXPECT_EQ(res.failures.failed(), 1u);
  EXPECT_EQ(res.failures.failures[0].index, 1u);
  EXPECT_EQ(res.failures.failures[0].kind, sim::FailureKind::kBlowUp);
}

TEST(FailSoft, GradientAnalysisFailedNominalAlwaysRethrows) {
  const stats::PerformanceFn dead = [](const Vector&) -> double {
    sim::SimDiagnostics d;
    d.kind = sim::FailureKind::kDcFailure;
    throw sim::SimulationError(d);
  };
  stats::RunOptions opt;
  opt.exec.threads = 1;
  opt.exec.on_failure = stats::FailurePolicy::kSkip;
  EXPECT_THROW(stats::Runner(opt).run_gradients(stats::per_sample(dead), {{}}),
               sim::SimulationError);
}

}  // namespace
}  // namespace lcsf
