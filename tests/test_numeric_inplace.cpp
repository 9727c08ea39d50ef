// Bitwise-equivalence tests for the PR 4 in-place/workspace kernels: every
// pooled variant must reproduce its allocating counterpart bit for bit
// (the invariant the zero-allocation Monte-Carlo hot path rests on), and
// the workspace-pooled statistical drivers must stay thread-count
// invariant.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <random>

#include "circuit/technology.hpp"
#include "core/path.hpp"
#include "interconnect/coupled_lines.hpp"
#include "mor/pact.hpp"
#include "mor/poleres.hpp"
#include "mor/variational.hpp"
#include "numeric/complex_matrix.hpp"
#include "numeric/eigen_real.hpp"
#include "numeric/fp_compare.hpp"
#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "numeric/sparse.hpp"
#include "spice/transient.hpp"
#include "stats/analysis.hpp"
#include "teta/convolution.hpp"
#include "teta/stage.hpp"
#include "timing/cells.hpp"

namespace lcsf {
namespace {

using numeric::ComplexMatrix;
using numeric::CVector;
using numeric::Matrix;
using numeric::Vector;
using numeric::exact_eq;

Matrix random_matrix(std::size_t n, std::size_t m, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Matrix a(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) a(i, j) = u(rng);
  }
  return a;
}

Matrix random_spd(std::size_t n, unsigned seed) {
  Matrix a = random_matrix(n, n, seed);
  Matrix s = a.transposed() * a;
  for (std::size_t i = 0; i < n; ++i) s(i, i) += static_cast<double>(n);
  return s;
}

Vector random_vector(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = u(rng);
  return v;
}

void expect_bitwise(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_TRUE(exact_eq(a(i, j), b(i, j))) << "(" << i << "," << j << ")";
    }
  }
}

void expect_bitwise(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(exact_eq(a[i], b[i])) << "[" << i << "]";
  }
}

void expect_bitwise(const ComplexMatrix& a, const ComplexMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_TRUE(exact_eq(a(i, j).real(), b(i, j).real()) &&
                  exact_eq(a(i, j).imag(), b(i, j).imag()))
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(InPlace, MatrixAxpyMatchesOperatorPath) {
  const Matrix x = random_matrix(7, 5, 11);
  const Matrix y0 = random_matrix(7, 5, 12);
  const double a = 0.37;

  Matrix via_ops = y0;
  via_ops += x * a;

  Matrix via_axpy = y0;
  via_axpy.axpy(a, x);
  expect_bitwise(via_axpy, via_ops);
}

TEST(InPlace, VectorAxpyMatchesElementwise) {
  const Vector x = random_vector(9, 21);
  const Vector y0 = random_vector(9, 22);
  const double a = -1.75;

  Vector expected = y0;
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] += a * x[i];

  Vector y = y0;
  numeric::axpy(a, x, y);
  expect_bitwise(y, expected);
}

TEST(InPlace, GemmIntoMatchesOperatorProduct) {
  const Matrix a = random_matrix(6, 4, 31);
  const Matrix b = random_matrix(4, 5, 32);
  const Matrix expected = a * b;

  Matrix c = random_matrix(2, 9, 33);  // wrong shape + garbage: must reset
  numeric::gemm_into(a, b, c);
  expect_bitwise(c, expected);

  // Reuse with another product of the same shape (the pooled pattern).
  const Matrix a2 = random_matrix(6, 4, 34);
  numeric::gemm_into(a2, b, c);
  expect_bitwise(c, a2 * b);
}

TEST(InPlace, MulIntoMatchesOperatorProduct) {
  const Matrix a = random_matrix(6, 6, 41);
  const Vector x = random_vector(6, 42);
  Vector y = random_vector(3, 43);  // wrong size: must resize
  numeric::mul_into(a, x, y);
  expect_bitwise(y, a * x);
}

TEST(InPlace, DenseLuRefactorMatchesFreshFactorization) {
  const Matrix a = random_spd(8, 51);
  const Vector b = random_vector(8, 52);

  const numeric::LuFactorization fresh(a);
  numeric::LuFactorization pooled;
  pooled.refactor(a);
  Vector x;
  pooled.solve_into(b, x);
  expect_bitwise(x, fresh.solve(b));

  // Same-shape refactor reusing pivot/storage.
  const Matrix a2 = random_spd(8, 53);
  pooled.refactor(a2);
  pooled.solve_into(b, x);
  expect_bitwise(x, numeric::LuFactorization(a2).solve(b));

  // Matrix right-hand side via the column-scratch overload.
  const Matrix rhs = random_matrix(8, 3, 54);
  Matrix xm;
  Vector col_b, col_x;
  pooled.solve_into(rhs, xm, col_b, col_x);
  expect_bitwise(xm, numeric::LuFactorization(a2).solve(rhs));
}

numeric::SparseMatrix banded(std::size_t n, double diag, double off) {
  numeric::SparseMatrix a(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.add(i, i, diag);
    if (i + 1 < n) {
      a.add(i, i + 1, off);
      a.add(i + 1, i, off);
    }
    if (i + 3 < n) {
      a.add(i, i + 3, 0.5 * off);
      a.add(i + 3, i, 0.5 * off);
    }
  }
  return a;
}

TEST(InPlace, SparseLuRefactorValueChangeMatchesFresh) {
  const std::size_t n = 40;
  const auto a1 = banded(n, 4.0, -1.0);
  const auto a2 = banded(n, 5.0, -1.25);  // same pattern, new values
  const Vector b = random_vector(n, 61);

  numeric::SparseLu lu(a1);
  lu.refactor(a2);  // numeric fast path against the frozen pattern
  Vector x;
  lu.solve_into(b, x);
  expect_bitwise(x, numeric::SparseLu(a2).solve(b));
}

TEST(InPlace, SparseLuRefactorPatternSubsetMatchesFresh) {
  const std::size_t n = 30;
  const auto full = banded(n, 4.0, -1.0);
  // Subset pattern: the long-range band vanishes (structural zeros in the
  // frozen pattern participate as explicit zeros; every nonzero of the
  // solution must still match the from-scratch factorization bitwise).
  const auto subset = banded(n, 4.0 + 1e-3, 0.0);
  numeric::SparseMatrix sparse_subset(n);
  for (std::size_t i = 0; i < n; ++i) {
    sparse_subset.add(i, i, 4.0 + 1e-3);
    if (i + 1 < n) {
      sparse_subset.add(i, i + 1, -0.5);
      sparse_subset.add(i + 1, i, -0.5);
    }
  }
  const Vector b = random_vector(n, 62);

  numeric::SparseLu lu(full);
  lu.refactor(sparse_subset);
  Vector x;
  lu.solve_into(b, x);
  const Vector expected = numeric::SparseLu(sparse_subset).solve(b);
  ASSERT_EQ(x.size(), expected.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(exact_eq(x[i], expected[i]) ||
                (numeric::exact_zero(x[i]) && numeric::exact_zero(expected[i])))
        << i;
  }
}

TEST(InPlace, SparseLuRefactorMismatchFallsBackToFull) {
  const std::size_t n = 25;
  const auto a1 = banded(n, 4.0, -1.0);
  // New structural entries outside the frozen pattern: silent full refactor.
  numeric::SparseMatrix a2 = banded(n, 4.0, -1.0);
  a2.add(0, n - 1, -0.25);
  a2.add(n - 1, 0, -0.25);
  const Vector b = random_vector(n, 63);

  numeric::SparseLu lu(a1);
  lu.refactor(a2);
  Vector x;
  lu.solve_into(b, x);
  expect_bitwise(x, numeric::SparseLu(a2).solve(b));
}

TEST(InPlace, ComplexLuRefactorMatchesFresh) {
  const std::size_t n = 6;
  std::mt19937 rng(71);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  ComplexMatrix a(n, n);
  CVector b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = {u(rng), u(rng)};
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = {u(rng), u(rng)};
      if (i == j) a(i, j) += 4.0;
    }
  }
  const numeric::ComplexLu fresh(a);
  numeric::ComplexLu pooled;
  pooled.refactor(a);
  CVector x;
  pooled.solve_into(b, x);
  const CVector expected = fresh.solve(b);
  ASSERT_EQ(x.size(), expected.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(exact_eq(x[i].real(), expected[i].real()) &&
                exact_eq(x[i].imag(), expected[i].imag()))
        << i;
  }
}

TEST(InPlace, EigenRealIntoMatchesEigenReal) {
  numeric::RealEigenScratch scratch;
  numeric::RealEigen pooled;
  for (unsigned seed : {81u, 82u}) {  // second round reuses warm scratch
    const Matrix a = random_matrix(9, 9, seed);
    const numeric::RealEigen fresh = numeric::eigen_real(a);
    numeric::eigen_real_into(a, scratch, pooled);
    ASSERT_EQ(pooled.values.size(), fresh.values.size());
    for (std::size_t k = 0; k < fresh.values.size(); ++k) {
      EXPECT_TRUE(exact_eq(pooled.values[k].real(), fresh.values[k].real()));
      EXPECT_TRUE(exact_eq(pooled.values[k].imag(), fresh.values[k].imag()));
    }
    expect_bitwise(pooled.packed_vectors, fresh.packed_vectors);
  }
}

/// One-port two-pole test load for the convolver / TETA round trips.
mor::PoleResidueModel test_load() {
  Matrix direct(1, 1);
  direct(0, 0) = 5.0;
  ComplexMatrix r1(1, 1), r2(1, 1);
  r1(0, 0) = 8e11;
  r2(0, 0) = 3e11;
  return mor::PoleResidueModel(1, direct, {{-1e9, 0.0}, {-4e9, 0.0}},
                               {r1, r2});
}

TEST(InPlace, ConvolverResetAndHistoryIntoMatchCtorAndHistory) {
  const double dt = 5e-12;
  const mor::PoleResidueModel z = test_load();
  teta::RecursiveConvolver fresh(z, dt);
  teta::RecursiveConvolver pooled;
  pooled.reset(test_load(), 2 * dt);  // different shape first: must re-form
  pooled.reset(z, dt);

  std::mt19937 rng(91);
  std::uniform_real_distribution<double> u(-1e-3, 1e-3);
  for (int k = 0; k < 50; ++k) {
    const Vector i{u(rng)};
    expect_bitwise(pooled.history(), fresh.history());
    fresh.advance(i);
    pooled.advance(i);
  }
}

/// Small variational stage load, built like PathAnalyzer characterizes one.
mor::VariationalRom small_rom() {
  const circuit::Technology tech = circuit::technology_180nm();
  mor::PencilFamily family = [tech](const Vector& w) {
    interconnect::WireVariation wv;
    wv.width = w[0] * tech.wire_tol.width;
    wv.ild_thickness = w[1] * tech.wire_tol.ild_thickness;
    interconnect::CoupledLineSpec spec;
    spec.num_lines = 1;
    spec.segment_length = 1e-6;
    spec.length = 3e-6;
    spec.geometry = interconnect::apply_variation(tech.wire, wv);
    auto bundle = interconnect::build_coupled_lines(spec);
    bundle.netlist.add_capacitor(bundle.far_ends[0], circuit::kGround,
                                 2e-15);
    auto pencil = interconnect::build_ported_pencil(
        bundle.netlist, {bundle.near_ends[0], bundle.far_ends[0]});
    return mor::with_port_conductance(std::move(pencil),
                                      Vector{1e-3, 0.0});
  };
  mor::VariationalOptions vopt;
  vopt.method = mor::ReductionMethod::kPact;
  vopt.pact.internal_modes = 4;
  vopt.fd_step = 0.2;
  return mor::build_variational_rom(family, 2, vopt);
}

TEST(InPlace, EvaluateIntoMatchesEvaluate) {
  const mor::VariationalRom rom = small_rom();
  mor::ReducedModel pooled;
  for (const Vector& w :
       {Vector{0.4, -0.7}, Vector{-1.2, 0.3}, Vector{0.0, 0.0}}) {
    const mor::ReducedModel fresh = rom.evaluate(w);
    rom.evaluate_into(w, pooled);  // storage reused across iterations
    EXPECT_EQ(pooled.num_ports, fresh.num_ports);
    expect_bitwise(pooled.g, fresh.g);
    expect_bitwise(pooled.c, fresh.c);
    expect_bitwise(pooled.b, fresh.b);
  }
  // The all-zero fast path must be an exact copy of the nominal model.
  rom.evaluate_into(Vector{0.0, 0.0}, pooled);
  expect_bitwise(pooled.g, rom.nominal().g);
  expect_bitwise(pooled.c, rom.nominal().c);
  expect_bitwise(pooled.b, rom.nominal().b);
}

void expect_same_model(const mor::PoleResidueModel& a,
                       const mor::PoleResidueModel& b) {
  ASSERT_EQ(a.num_ports(), b.num_ports());
  ASSERT_EQ(a.num_poles(), b.num_poles());
  expect_bitwise(a.direct(), b.direct());
  for (std::size_t k = 0; k < a.num_poles(); ++k) {
    EXPECT_TRUE(exact_eq(a.poles()[k].real(), b.poles()[k].real()) &&
                exact_eq(a.poles()[k].imag(), b.poles()[k].imag()))
        << k;
    expect_bitwise(a.residue(k), b.residue(k));
  }
}

TEST(InPlace, ExtractPoleResidueWorkspaceMatchesPlain) {
  const mor::VariationalRom rom = small_rom();
  mor::PoleResidueWorkspace ws;
  for (const Vector& w : {Vector{0.5, 0.5}, Vector{-0.5, 1.0}}) {
    const mor::ReducedModel m = rom.evaluate(w);
    expect_same_model(mor::extract_pole_residue(m, ws),
                      mor::extract_pole_residue(m));
  }
}

teta::StageCircuit inverter_stage(const circuit::Technology& tech,
                                  const timing::DeviceVariation& dev) {
  teta::StageCircuit stage;
  const std::size_t out = stage.add_port();
  (void)stage.add_port();  // far port
  const std::size_t in = stage.add_input(
      circuit::SourceWaveform::ramp(0.0, tech.vdd, 0.2e-9, 0.1e-9));
  const std::size_t vdd = stage.add_rail(tech.vdd);
  const std::size_t gnd = stage.add_rail(0.0);
  timing::instantiate_cell(timing::find_cell("INV"), tech, stage, out, in,
                           vdd, gnd, dev);
  stage.freeze_device_capacitances();
  return stage;
}

void expect_same_teta(const teta::TetaResult& a, const teta::TetaResult& b) {
  ASSERT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.total_sc_iterations, b.total_sc_iterations);
  ASSERT_EQ(a.time.size(), b.time.size());
  ASSERT_EQ(a.port_voltages.size(), 2 * a.time.size());  // two ports
  for (std::size_t k = 0; k < a.time.size(); ++k) {
    EXPECT_TRUE(exact_eq(a.time[k], b.time[k]));
  }
  expect_bitwise(a.port_voltages, b.port_voltages);
}

TEST(InPlace, TetaWorkspaceOverloadsMatchPlainSimulateStage) {
  const circuit::Technology tech = circuit::technology_180nm();
  const mor::VariationalRom rom = small_rom();

  teta::TetaOptions opt;
  opt.dt = 2e-12;
  opt.tstop = 1.0e-9;
  opt.vdd = tech.vdd;

  teta::TetaWorkspace ws;
  teta::TetaResult pooled;
  // Two different samples through one workspace + result: every run must
  // match the fresh 3-arg evaluation bitwise.
  const timing::DeviceVariation devs[] = {{0.0, 0.0}, {4e-9, 0.015}};
  const Vector ws_samples[] = {Vector{0.6, -0.2}, Vector{-0.8, 0.9}};
  for (std::size_t s = 0; s < 2; ++s) {
    const teta::StageCircuit stage = inverter_stage(tech, devs[s]);
    const auto z = mor::stabilize(
        mor::extract_pole_residue(rom.evaluate(ws_samples[s])), nullptr,
        mor::StabilizePolicy::kDirectCompensation);
    const teta::TetaResult fresh = teta::simulate_stage(stage, z, opt);
    ASSERT_TRUE(fresh.converged) << fresh.failure();

    expect_same_teta(teta::simulate_stage(stage, z, opt, ws), fresh);
    teta::simulate_stage(stage, z, opt, ws, pooled);
    expect_same_teta(pooled, fresh);
  }
}

TEST(InPlace, SpiceTransientScratchReuseIsDeterministic) {
  const circuit::Technology tech = circuit::technology_180nm();
  circuit::Netlist nl;
  const auto in = nl.add_node("in");
  const auto out = nl.add_node("out");
  const auto vdd = nl.add_node("vdd");
  nl.add_vsource(vdd, circuit::kGround,
                 circuit::SourceWaveform::dc(tech.vdd));
  nl.add_vsource(in, circuit::kGround,
                 circuit::SourceWaveform::ramp(0.0, tech.vdd, 0.2e-9,
                                               0.1e-9));
  nl.add_mosfet(tech.make_nmos(out, in, circuit::kGround, 4.0));
  nl.add_mosfet(tech.make_pmos(out, in, vdd, 8.0));
  nl.add_capacitor(out, circuit::kGround, 10e-15);
  nl.freeze_device_capacitances();

  spice::TransientOptions opt;
  opt.dt = 2e-12;
  opt.tstop = 1.0e-9;

  // The Newton scratch (matrix, LU, vectors) lives in the simulator and is
  // refactored in place; back-to-back runs and a fresh simulator must agree
  // bitwise.
  spice::TransientSimulator sim(nl);
  const spice::TransientResult r1 = sim.run(opt);
  const spice::TransientResult r2 = sim.run(opt);
  spice::TransientSimulator sim2(nl);
  const spice::TransientResult r3 = sim2.run(opt);
  ASSERT_TRUE(r1.converged) << r1.failure();
  ASSERT_TRUE(r2.converged);
  ASSERT_TRUE(r3.converged);
  const auto w1 = r1.waveform(out);
  const auto w2 = r2.waveform(out);
  const auto w3 = r3.waveform(out);
  ASSERT_EQ(w1.size(), w2.size());
  ASSERT_EQ(w1.size(), w3.size());
  for (std::size_t k = 0; k < w1.size(); ++k) {
    EXPECT_TRUE(exact_eq(w1[k].second, w2[k].second)) << k;
    EXPECT_TRUE(exact_eq(w1[k].second, w3[k].second)) << k;
  }
}

TEST(InPlace, PooledMonteCarloIsThreadCountInvariant) {
  core::PathSpec spec;
  spec.tech = circuit::technology_180nm();
  const auto& lib = timing::cell_library();
  for (std::size_t k = 0; k < lib.size(); ++k) {
    if (lib[k].name == "INV") spec.cells = {k};
  }
  ASSERT_EQ(spec.cells.size(), 1u);
  spec.linear_elements_per_stage = 6;
  spec.stage_window = 1.0e-9;
  spec.dt = 2e-12;
  const core::PathAnalyzer analyzer(spec);

  core::PathVariationModel model;
  model.std_dl = 1.0 / 3.0;
  model.std_vt = 1.0 / 3.0;
  model.std_wire_w = 1.0 / 3.0;

  stats::RunOptions opt;
  opt.samples = 4;
  opt.seed = 7;

  opt.exec.threads = 1;
  const stats::MonteCarloResult serial = analyzer.monte_carlo(model, opt);
  opt.exec.threads = 3;
  const stats::MonteCarloResult parallel = analyzer.monte_carlo(model, opt);

  ASSERT_EQ(serial.values.size(), parallel.values.size());
  for (std::size_t s = 0; s < serial.values.size(); ++s) {
    EXPECT_TRUE(exact_eq(serial.values[s], parallel.values[s])) << s;
    expect_bitwise(serial.samples[s], parallel.samples[s]);
  }
  EXPECT_TRUE(exact_eq(serial.stats.mean(), parallel.stats.mean()));
}

}  // namespace
}  // namespace lcsf
