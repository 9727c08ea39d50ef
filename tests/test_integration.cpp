// Cross-module integration tests: the framework pipeline (variational ROM
// -> stability filter -> TETA) against the SPICE baseline on every library
// cell, plus end-to-end determinism and failure-path coverage.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "circuit/technology.hpp"
#include "core/path.hpp"
#include "interconnect/coupled_lines.hpp"
#include "mor/pact.hpp"
#include "mor/poleres.hpp"
#include "mor/variational.hpp"
#include "sim/diagnostics.hpp"
#include "spice/transient.hpp"
#include "stats/random.hpp"
#include "teta/convolution.hpp"
#include "teta/stage.hpp"
#include "timing/cells.hpp"
#include "timing/waveform.hpp"

namespace lcsf {
namespace {

using circuit::kGround;
using circuit::SourceWaveform;
using circuit::Technology;
using circuit::technology_180nm;
using numeric::Vector;

// Every library cell drives a 50 um wire; the framework stage delay must
// track the full SPICE simulation.
class CellStageAccuracy : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CellStageAccuracy, FrameworkTracksSpice) {
  const Technology tech = technology_180nm();
  const auto& cell = timing::cell_library()[GetParam()];
  const bool out_rising = !cell.inverting;  // rising input flips
  const auto input = SourceWaveform::ramp(0.0, tech.vdd, 100e-12, 80e-12);
  const double dt = 2e-12;
  const double tstop = 1.5e-9;

  // Wire + receiver cap.
  interconnect::CoupledLineSpec wire;
  wire.num_lines = 1;
  wire.length = 50e-6;
  wire.segment_length = 1e-6;
  wire.geometry = tech.wire;
  auto bundle = interconnect::build_coupled_lines(wire);
  bundle.netlist.add_capacitor(bundle.far_ends[0], kGround, 4e-15);

  // --- framework -----------------------------------------------------
  teta::StageCircuit stage;
  const std::size_t out = stage.add_port();
  (void)stage.add_port();
  const std::size_t in = stage.add_input(input);
  const std::size_t vdd = stage.add_rail(tech.vdd);
  const std::size_t gnd = stage.add_rail(0.0);
  timing::instantiate_cell(cell, tech, stage, out, in, vdd, gnd);
  stage.freeze_device_capacitances();

  auto pencil = interconnect::build_ported_pencil(
      bundle.netlist, {bundle.near_ends[0], bundle.far_ends[0]});
  pencil = mor::with_port_conductance(
      std::move(pencil), stage.port_chord_conductances(tech.vdd));
  const auto z = mor::stabilize(mor::extract_pole_residue(
      mor::pact_reduce(pencil, mor::PactOptions{6}).model));

  teta::TetaOptions topt;
  topt.tstop = tstop;
  topt.dt = dt;
  topt.vdd = tech.vdd;
  const auto tres = teta::simulate_stage(stage, z, topt);
  ASSERT_TRUE(tres.converged) << cell.name << ": " << tres.failure();
  const auto fw =
      timing::measure_ramp(tres.waveform(1), tech.vdd, out_rising);

  // --- SPICE baseline --------------------------------------------------
  circuit::Netlist nl = bundle.netlist;
  const auto nvdd = nl.add_node("vdd");
  nl.add_vsource(nvdd, kGround, SourceWaveform::dc(tech.vdd));
  std::vector<circuit::NodeId> ins(cell.num_inputs);
  const auto nin = nl.add_node("in");
  nl.add_vsource(nin, kGround, input);
  ins[0] = nin;
  for (std::size_t pin = 1; pin < cell.num_inputs; ++pin) {
    ins[pin] = cell.side_values[pin] ? nvdd : kGround;
  }
  timing::instantiate_cell(cell, tech, nl, bundle.near_ends[0], ins, nvdd);
  nl.freeze_device_capacitances();
  spice::TransientSimulator sim(nl);
  spice::TransientOptions sopt;
  sopt.tstop = tstop;
  sopt.dt = dt;
  const auto sres = sim.run(sopt);
  ASSERT_TRUE(sres.converged) << cell.name << ": " << sres.failure();
  const auto sp = timing::measure_ramp(sres.waveform(bundle.far_ends[0]),
                                       tech.vdd, out_rising);

  // The ROM is 6th order and the engines share device models: arrivals
  // within a few ps, slews within ~10%.
  EXPECT_NEAR(fw.m, sp.m, 0.03 * sp.m + 2e-12) << cell.name;
  EXPECT_NEAR(fw.s, sp.s, 0.12 * sp.s + 2e-12) << cell.name;
}

INSTANTIATE_TEST_SUITE_P(AllCells, CellStageAccuracy,
                         ::testing::Range(std::size_t{0}, std::size_t{10}));

// Property: the recursive convolver reproduces brute-force numerical
// convolution for random stable pole sets under a random PWL current.
class ConvolverProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ConvolverProperty, MatchesDirectConvolution) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> u(0.2, 3.0);

  // 2 real poles + 1 complex pair, random residues.
  std::vector<numeric::Complex> poles{
      {-1e9 * u(rng), 0.0},
      {-5e9 * u(rng), 0.0},
      {-1e9 * u(rng), 8e9 * u(rng)}};
  poles.push_back(std::conj(poles[2]));
  std::vector<numeric::ComplexMatrix> residues;
  for (std::size_t k = 0; k < poles.size(); ++k) {
    numeric::ComplexMatrix r(1, 1);
    if (k < 2) {
      r(0, 0) = 1e12 * u(rng);
    } else if (k == 2) {
      r(0, 0) = numeric::Complex{5e11 * u(rng), 3e11 * u(rng)};
    } else {
      r(0, 0) = std::conj(residues[2](0, 0));
    }
    residues.push_back(r);
  }
  mor::PoleResidueModel z(1, numeric::Matrix(1, 1), poles, residues);

  const double dt = 5e-12;
  teta::RecursiveConvolver conv(z, dt);

  // Random PWL current, changing every step.
  std::uniform_real_distribution<double> iu(-1e-3, 1e-3);
  std::vector<double> current{0.0};
  const int steps = 150;
  for (int s = 0; s < steps; ++s) current.push_back(iu(rng));

  for (int s = 1; s <= steps; ++s) {
    const Vector inow{current[static_cast<std::size_t>(s)]};
    const double v =
        conv.step_impedance()(0, 0) * inow[0] + conv.history()[0];
    conv.advance(inow);

    // Direct evaluation: v(t) = sum_k Re[r_k X_k(t)] with X_k the exact
    // piecewise integral of e^{p(t-tau)} i(tau).
    numeric::Complex vref{0.0, 0.0};
    for (std::size_t k = 0; k < poles.size(); ++k) {
      const numeric::Complex p = poles[k];
      numeric::Complex x{0.0, 0.0};
      for (int seg = 0; seg < s; ++seg) {
        const double a = current[static_cast<std::size_t>(seg)];
        const double b =
            (current[static_cast<std::size_t>(seg + 1)] - a) / dt;
        // Contribution of segment [seg dt, (seg+1) dt] observed at s dt.
        const double tl = (s - seg - 1) * dt;  // time from segment end
        const numeric::Complex e1 = std::exp(p * dt);
        const numeric::Complex seg_int =
            a * (e1 - 1.0) / p + b * (e1 - 1.0 - p * dt) / (p * p);
        x += std::exp(p * tl) * seg_int;
      }
      vref += residues[k](0, 0) * x;
    }
    ASSERT_NEAR(v, vref.real(), 1e-6 * std::max(1.0, std::abs(vref.real())))
        << "step " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvolverProperty,
                         ::testing::Values(11u, 12u, 13u, 14u));

// Property: compress_pwl never violates its tolerance on random waveforms.
class CompressProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(CompressProperty, ToleranceRespected) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<std::pair<double, double>> samples;
  double v = 0.0;
  for (int k = 0; k <= 500; ++k) {
    v += 0.05 * u(rng);
    samples.emplace_back(k * 1e-12, v);
  }
  const double tol = 0.02;
  auto compact = teta::compress_pwl(samples, tol);
  EXPECT_LT(compact.size(), samples.size());
  auto wave = SourceWaveform::pwl(compact);
  for (const auto& [t, vv] : samples) {
    EXPECT_LE(std::abs(wave.value(t) - vv), tol * 1.0001);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressProperty,
                         ::testing::Values(21u, 22u, 23u));

TEST(Determinism, MonteCarloPathIsSeedStable) {
  core::PathSpec spec;
  spec.tech = technology_180nm();
  const auto& lib = timing::cell_library();
  for (std::size_t k = 0; k < lib.size(); ++k) {
    if (lib[k].name == "INV" || lib[k].name == "NAND2") {
      spec.cells.push_back(k);
    }
  }
  spec.stage_window = 1e-9;
  core::PathAnalyzer pa(spec);
  core::PathVariationModel model;
  model.std_dl = 0.33;
  stats::RunOptions opt;
  opt.samples = 10;
  opt.seed = 5;
  const auto a = pa.monte_carlo(model, opt);
  const auto b = pa.monte_carlo(model, opt);
  EXPECT_EQ(a.values, b.values);
}

TEST(FailureInjection, StagePortMismatchThrows) {
  const Technology tech = technology_180nm();
  teta::StageCircuit stage;
  (void)stage.add_port();
  // One-port stage vs two-port load.
  circuit::Netlist load;
  const auto a = load.add_node();
  const auto b = load.add_node();
  load.add_resistor(a, b, 100.0);
  load.add_capacitor(b, kGround, 1e-15);
  auto pencil = interconnect::build_ported_pencil(load, {a, b});
  pencil = mor::with_port_conductance(std::move(pencil),
                                      Vector{1e-3, 0.0});
  const auto z = mor::extract_pole_residue(
      mor::pact_reduce(pencil, mor::PactOptions{1}).model);
  teta::TetaOptions opt;
  EXPECT_THROW(teta::simulate_stage(stage, z, opt), sim::SimulationError);
}

TEST(FailureInjection, VariationalRomRejectsInconsistentLibrary) {
  mor::ReducedModel nominal;
  nominal.g = numeric::Matrix::identity(3);
  nominal.c = numeric::Matrix::identity(3);
  nominal.b = numeric::Matrix(3, 1);
  nominal.num_ports = 1;
  mor::ReducedModel bad = nominal;
  bad.g = numeric::Matrix::identity(4);
  bad.c = numeric::Matrix::identity(4);
  bad.b = numeric::Matrix(4, 1);
  EXPECT_THROW(mor::VariationalRom(nominal, {bad}), std::invalid_argument);
  mor::VariationalRom rom(nominal, {nominal});
  EXPECT_THROW(rom.evaluate(Vector{1.0, 2.0}), std::invalid_argument);
}

TEST(FailureInjection, ExampleTwoReceiverlessMeasurementFails) {
  // A waveform that never crosses the thresholds must throw, and the
  // retry machinery must surface the error rather than hang.
  const Technology tech = technology_180nm();
  core::PathSpec spec;
  spec.tech = tech;
  spec.cells = {0};  // INV
  spec.stage_window = 1e-12;  // absurdly small window
  spec.dt = 1e-12;
  core::PathAnalyzer pa(spec);
  core::PathSample s;
  s.device.resize(1);
  EXPECT_THROW(pa.framework_delay(s), std::runtime_error);
}

}  // namespace
}  // namespace lcsf
