// Tests for PACT, PRIMA, variational ROM library, pole/residue transform
// and the stability filter.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>

#include "circuit/technology.hpp"
#include "interconnect/coupled_lines.hpp"
#include "interconnect/example1.hpp"
#include "mor/pact.hpp"
#include "mor/poleres.hpp"
#include "mor/prima.hpp"
#include "mor/reduced_model.hpp"
#include "mor/variational.hpp"
#include "numeric/eigen_sym.hpp"
#include "obs/registry.hpp"

namespace lcsf::mor {
namespace {

using interconnect::PortedPencil;
using numeric::Complex;
using numeric::Matrix;
using numeric::Vector;

// The Example 1 one-port load with a driver conductance folded in, which is
// the "effective load" the framework reduces (Table 1). gout = 10 mS.
PortedPencil effective_example1(double p, double gout = 1e-2) {
  PortedPencil pen = interconnect::example1_pencil_family()(p);
  return with_port_conductance(std::move(pen), Vector{gout});
}

double zerr(const numeric::ComplexMatrix& a, const numeric::ComplexMatrix& b) {
  double e = 0.0;
  double scale = 1e-300;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      e = std::max(e, std::abs(a(i, j) - b(i, j)));
      scale = std::max(scale, std::abs(b(i, j)));
    }
  }
  return e / scale;
}

TEST(Pact, FullOrderIsExact) {
  PortedPencil pen = effective_example1(0.0);
  PactOptions opt;
  opt.internal_modes = pen.g.rows() - 1;  // keep all internal modes
  PactResult r = pact_reduce(pen, opt);
  EXPECT_EQ(r.model.order(), pen.g.rows());
  for (double f : {1e6, 1e8, 1e10}) {
    const Complex s{0.0, 2 * M_PI * f};
    auto z_full = pencil_port_impedance(pen.g, pen.c, 1, s);
    auto z_red = r.model.port_impedance(s);
    EXPECT_LT(zerr(z_red, z_full), 1e-8) << "f = " << f;
  }
}

TEST(Pact, TruncatedModelMatchesDcExactly) {
  PortedPencil pen = effective_example1(0.0);
  PactOptions opt;
  opt.internal_modes = 2;
  PactResult r = pact_reduce(pen, opt);
  EXPECT_EQ(r.model.order(), 3u);  // 1 port + 2 modes
  const Matrix m0_full = pencil_moment(pen.g, pen.c, 1, 0);
  const Matrix m0_red = r.model.moment(0);
  EXPECT_NEAR(m0_red(0, 0), m0_full(0, 0), 1e-9 * std::abs(m0_full(0, 0)));
}

TEST(Pact, ReducedStructureMatchesEquationFive) {
  PortedPencil pen = effective_example1(0.0);
  PactOptions opt;
  opt.internal_modes = 4;
  PactResult r = pact_reduce(pen, opt);
  const std::size_t np = 1;
  // Gr = [A 0; 0 D] with D = I; Cr = [B R; R^T E] with E diagonal.
  for (std::size_t i = np; i < r.model.order(); ++i) {
    for (std::size_t j = 0; j < np; ++j) {
      EXPECT_NEAR(r.model.g(i, j), 0.0, 1e-12);
      EXPECT_NEAR(r.model.g(j, i), 0.0, 1e-12);
    }
    for (std::size_t j = np; j < r.model.order(); ++j) {
      const double expected = (i == j) ? 1.0 : 0.0;
      EXPECT_NEAR(r.model.g(i, j), expected, 1e-9);
      if (i != j) {
        EXPECT_NEAR(r.model.c(i, j), 0.0, 1e-9);
      }
    }
  }
}

TEST(Pact, NominalReductionIsPassive) {
  PortedPencil pen = effective_example1(0.0);
  PactOptions opt;
  opt.internal_modes = 4;
  PactResult r = pact_reduce(pen, opt);
  // Congruence of PSD matrices stays PSD: no unstable poles.
  PoleResidueModel pr = extract_pole_residue(r.model);
  EXPECT_EQ(pr.count_unstable(), 0u);
}

TEST(Prima, MomentMatching) {
  PortedPencil pen = effective_example1(0.0);
  PrimaOptions opt;
  opt.block_moments = 3;
  PrimaResult r = prima_reduce(pen, opt);
  // PRIMA with m block moments matches at least moments 0..m-1.
  for (std::size_t k = 0; k < 3; ++k) {
    const Matrix mf = pencil_moment(pen.g, pen.c, 1, k);
    const Matrix mr = r.model.moment(k);
    EXPECT_NEAR(mr(0, 0), mf(0, 0), 1e-7 * std::abs(mf(0, 0))) << "k=" << k;
  }
}

TEST(Prima, ReductionIsPassive) {
  // Multi-port: 2 coupled lines, 4 ports.
  interconnect::CoupledLineSpec spec;
  spec.num_lines = 2;
  spec.length = 50e-6;
  spec.segment_length = 1e-6;
  spec.geometry = circuit::technology_180nm().wire;
  auto bundle = interconnect::build_coupled_lines(spec);
  PortedPencil pen =
      interconnect::build_ported_pencil(bundle.netlist, bundle.ports());
  pen = with_port_conductance(std::move(pen), Vector(4, 1e-3));

  PrimaOptions opt;
  opt.block_moments = 2;
  PrimaResult r = prima_reduce(pen, opt);
  auto eg = numeric::eigen_symmetric(r.model.g);
  auto ec = numeric::eigen_symmetric(r.model.c);
  for (double v : eg.values) EXPECT_GE(v, -1e-9);
  for (double v : ec.values) EXPECT_GE(v, -1e-20);
  PoleResidueModel pr = extract_pole_residue(r.model);
  EXPECT_EQ(pr.count_unstable(), 0u);
}

TEST(PoleResidue, MatchesReducedModelTransferFunction) {
  PortedPencil pen = effective_example1(0.03);
  PactOptions opt;
  opt.internal_modes = 4;
  PactResult r = pact_reduce(pen, opt);
  PoleResidueModel pr = extract_pole_residue(r.model);
  for (double f : {1e5, 1e7, 1e9, 3e10}) {
    const Complex s{0.0, 2 * M_PI * f};
    EXPECT_LT(zerr(pr.eval(s), r.model.port_impedance(s)), 1e-7)
        << "f = " << f;
  }
}

TEST(PoleResidue, RcPolesAreRealNegative) {
  PortedPencil pen = effective_example1(0.0);
  PactResult r = pact_reduce(pen, PactOptions{4});
  PoleResidueModel pr = extract_pole_residue(r.model);
  ASSERT_GT(pr.num_poles(), 0u);
  for (const auto& p : pr.poles()) {
    EXPECT_LT(p.real(), 0.0);
    EXPECT_NEAR(p.imag(), 0.0, 1e-3 * std::abs(p.real()));
  }
  EXPECT_DOUBLE_EQ(pr.max_unstable_real(), 0.0);
}

TEST(Variational, EvaluateAtZeroIsNominal) {
  auto family = scalar_family(
      [](double p) { return effective_example1(p); });
  VariationalOptions opt;
  opt.pact.internal_modes = 4;
  VariationalRom rom = build_variational_rom(family, 1, opt);
  ReducedModel m = rom.evaluate(Vector{0.0});
  EXPECT_NEAR(numeric::relative_difference(m.g, rom.nominal().g), 0.0, 1e-15);
  EXPECT_NEAR(numeric::relative_difference(m.c, rom.nominal().c), 0.0, 1e-15);
}

TEST(Variational, FirstOrderAccuracy) {
  auto family = scalar_family(
      [](double p) { return effective_example1(p); });
  VariationalOptions opt;
  opt.pact.internal_modes = 4;
  opt.library = LibraryMode::kFrozenProjection;
  VariationalRom rom = build_variational_rom(family, 1, opt);

  // Compare variational evaluation against the exact frozen-basis
  // reduction: error must shrink quadratically in p.
  PactResult nominal = pact_reduce(effective_example1(0.0), PactOptions{4});
  auto exact_at = [&](double p) {
    return pact_reduce_with_basis(effective_example1(p), nominal.basis);
  };
  const Complex s{0.0, 2 * M_PI * 1e9};
  auto err_at = [&](double p) {
    return zerr(rom.evaluate(Vector{p}).port_impedance(s),
                exact_at(p).port_impedance(s));
  };
  const double e1 = err_at(0.04);
  const double e2 = err_at(0.02);
  EXPECT_GT(e1, 0.0);
  // Quadratic convergence: halving p should cut the error ~4x; accept 2.5x
  // to allow higher-order contamination.
  EXPECT_GT(e1 / e2, 2.5);
}

TEST(Variational, PrimaLibraryAlsoWorks) {
  auto family = scalar_family(
      [](double p) { return effective_example1(p); });
  VariationalOptions opt;
  opt.method = ReductionMethod::kPrima;
  opt.prima.block_moments = 3;
  VariationalRom rom = build_variational_rom(family, 1, opt);
  // Nominal DC must match the full pencil.
  const Matrix m0_full =
      pencil_moment(effective_example1(0.0).g, effective_example1(0.0).c, 1, 0);
  EXPECT_NEAR(rom.nominal().moment(0)(0, 0), m0_full(0, 0),
              1e-7 * std::abs(m0_full(0, 0)));
}

TEST(Variational, PortConductanceValidation) {
  PortedPencil pen = interconnect::example1_pencil_family()(0.0);
  EXPECT_THROW(with_port_conductance(pen, Vector{1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(with_port_conductance(pen, Vector{-1.0}),
               std::invalid_argument);
}

// The headline phenomenon of Example 1 / Table 3: the first-order
// variational model develops right-half-plane poles from p = 0.05 onward
// even though every exact reduction is passive, and the unstable pole
// magnitude decreases as p grows.
TEST(Variational, InstabilityAppearsFromTableThreeThreshold) {
  auto family = scalar_family(
      [](double p) { return effective_example1(p); });
  VariationalOptions opt;
  opt.pact.internal_modes = 4;
  opt.library = LibraryMode::kFullReduction;
  opt.fd_step = 0.05;  // the DOE spacing of the pre-characterization
  VariationalRom rom = build_variational_rom(family, 1, opt);

  std::vector<double> max_unstable;
  for (double p : {0.05, 0.06, 0.08, 0.09, 0.1}) {
    PoleResidueModel pr = extract_pole_residue(rom.evaluate(Vector{p}));
    EXPECT_GT(pr.count_unstable(), 0u) << "p = " << p;
    max_unstable.push_back(pr.max_unstable_real());
  }
  // Table 3 trend: the unstable pole magnitude decreases with p.
  for (std::size_t k = 1; k < max_unstable.size(); ++k) {
    EXPECT_LT(max_unstable[k], max_unstable[k - 1]);
  }
  // Small p stays stable.
  PoleResidueModel pr0 = extract_pole_residue(rom.evaluate(Vector{0.02}));
  EXPECT_EQ(pr0.count_unstable(), 0u);
}

// The frozen-projection library (the robust ablation variant) stays stable
// far beyond the paper's parameter range.
TEST(Variational, FrozenProjectionIsMoreRobust) {
  auto family = scalar_family(
      [](double p) { return effective_example1(p); });
  VariationalOptions opt;
  opt.pact.internal_modes = 4;
  opt.library = LibraryMode::kFrozenProjection;
  VariationalRom rom = build_variational_rom(family, 1, opt);
  for (double p : {0.05, 0.08, 0.1}) {
    PoleResidueModel pr = extract_pole_residue(rom.evaluate(Vector{p}));
    EXPECT_EQ(pr.count_unstable(), 0u) << "p = " << p;
  }
}

TEST(Stabilize, DropsUnstablePolesAndPreservesDc) {
  // Construct a synthetic model: two stable poles, one unstable.
  Matrix direct(1, 1);
  std::vector<Complex> poles{Complex{-1e9, 0}, Complex{-5e9, 0},
                             Complex{2e12, 0}};
  std::vector<numeric::ComplexMatrix> residues;
  for (double rv : {3e9, 1e9, 0.2e9}) {
    numeric::ComplexMatrix r(1, 1);
    r(0, 0) = rv;
    residues.push_back(r);
  }
  PoleResidueModel model(1, direct, poles, residues);
  const Complex dc = model.eval(0, 0, Complex{0.0, 0.0});

  for (StabilizePolicy policy : {StabilizePolicy::kBetaScaling,
                                 StabilizePolicy::kDirectCompensation}) {
    StabilizationReport rep;
    PoleResidueModel stable = stabilize(model, &rep, policy);
    EXPECT_EQ(rep.dropped_poles, 1u);
    EXPECT_NEAR(rep.max_unstable_real, 2e12, 1.0);
    EXPECT_EQ(stable.num_poles(), 2u);
    EXPECT_EQ(stable.count_unstable(), 0u);
    // DC behaviour preserved by either correction (Eq. 22-23).
    const Complex dc2 = stable.eval(0, 0, Complex{0.0, 0.0});
    EXPECT_NEAR(dc2.real(), dc.real(), 1e-9 * std::abs(dc.real()));
  }
}

TEST(Stabilize, NoOpOnStableModel) {
  PortedPencil pen = effective_example1(0.0);
  PactResult r = pact_reduce(pen, PactOptions{4});
  PoleResidueModel pr = extract_pole_residue(r.model);
  StabilizationReport rep;
  PoleResidueModel st = stabilize(pr, &rep);
  EXPECT_EQ(rep.dropped_poles, 0u);
  EXPECT_EQ(st.num_poles(), pr.num_poles());
  for (std::size_t i = 0; i < 1; ++i) {
    EXPECT_NEAR(rep.beta(0, 0), 1.0, 1e-12);
  }
}

// Property sweep: across the stable parameter range, the stabilized
// variational macromodel must track the exact pencil's frequency response.
class VariationalAccuracy : public ::testing::TestWithParam<double> {};

TEST_P(VariationalAccuracy, StabilizedModelTracksExactResponse) {
  const double p = GetParam();
  auto family = scalar_family(
      [](double q) { return effective_example1(q); });
  VariationalOptions opt;
  opt.pact.internal_modes = 4;
  opt.library = LibraryMode::kFullReduction;
  opt.fd_step = 0.05;
  VariationalRom rom = build_variational_rom(family, 1, opt);

  PoleResidueModel pr = extract_pole_residue(rom.evaluate(Vector{p}));
  PoleResidueModel st = stabilize(pr);
  PortedPencil exact = effective_example1(p);
  // Compare over the band that matters for the waveforms (up to ~10 GHz).
  for (double f : {1e6, 1e8, 1e9, 1e10}) {
    const Complex s{0.0, 2 * M_PI * f};
    auto z_exact = pencil_port_impedance(exact.g, exact.c, 1, s);
    auto z_model = st.eval(s);
    EXPECT_LT(zerr(z_model, z_exact), 0.08) << "p=" << p << " f=" << f;
  }
}

INSTANTIATE_TEST_SUITE_P(ParameterSweep, VariationalAccuracy,
                         ::testing::Values(0.0, 0.02, 0.04, 0.06, 0.08, 0.1));

// A two-port RC line shaped like a stage effective load: driver
// conductance `gout` on the near port (port 0), `cload` on the far port
// (port 1).
PortedPencil two_port_line(double gout = 1e-3, double cload = 5e-15) {
  interconnect::CoupledLineSpec spec;
  spec.num_lines = 1;
  spec.length = 12e-6;
  spec.geometry = circuit::technology_180nm().wire;
  auto bundle = interconnect::build_coupled_lines(spec);
  bundle.netlist.add_capacitor(bundle.far_ends[0], circuit::kGround, cload);
  return with_port_conductance(
      interconnect::build_ported_pencil(
          bundle.netlist, {bundle.near_ends[0], bundle.far_ends[0]}),
      Vector{gout, 0.0});
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

void expect_bitwise_equal(const PactResult& a, const PactResult& b) {
  EXPECT_EQ(a.model.num_ports, b.model.num_ports);
  EXPECT_TRUE(same_bits(a.model.g, b.model.g));
  EXPECT_TRUE(same_bits(a.model.c, b.model.c));
  EXPECT_TRUE(same_bits(a.model.b, b.model.b));
  EXPECT_TRUE(same_bits(a.basis.u, b.basis.u));
}

TEST(PactMemo, HitIsBitwiseEqualToUnmemoizedReduction) {
  const PactOptions opt{4};
  PactMemo memo;
  const PortedPencil a = two_port_line(1e-3, 5e-15);
  expect_bitwise_equal(pact_reduce(a, opt, &memo), pact_reduce(a, opt));
  ASSERT_EQ(memo.size(), 1u);
  // Different driver and receiver: same internal blocks, so a hit.
  const PortedPencil b = two_port_line(3e-3, 9e-15);
  const PactResult hit = pact_reduce(b, opt, &memo);
  EXPECT_EQ(memo.size(), 1u);
  expect_bitwise_equal(hit, pact_reduce(b, opt));
}

TEST(PactMemo, PortEntryChangesHit) {
  const PactOptions opt{4};
  PortedPencil pen = two_port_line();
  PactMemo memo;
  (void)pact_reduce(pen, opt, &memo);
  pen.g(0, 0) *= 2.0;  // driver chord conductance
  (void)pact_reduce(pen, opt, &memo);
  pen.c(1, 1) += 7e-15;  // receiver cap on the far port
  (void)pact_reduce(pen, opt, &memo);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(PactMemo, InternalOrOptionChangesMiss) {
  const PortedPencil base = two_port_line();
  PactMemo memo;
  (void)pact_reduce(base, PactOptions{4}, &memo);
  ASSERT_EQ(memo.size(), 1u);

  PortedPencil gii = base;
  gii.g(3, 3) *= 1.0 + 1e-12;  // one internal conductance entry
  (void)pact_reduce(gii, PactOptions{4}, &memo);
  EXPECT_EQ(memo.size(), 2u);

  (void)pact_reduce(base, PactOptions{3}, &memo);
  EXPECT_EQ(memo.size(), 3u);

  // The key compares bits, so a -0.0 in place of a stored zero misses.
  PortedPencil neg_zero = base;
  const std::size_t n = neg_zero.g.rows();
  ASSERT_EQ(neg_zero.g(2, n - 1), 0.0);
  neg_zero.g(2, n - 1) = -0.0;
  (void)pact_reduce(neg_zero, PactOptions{4}, &memo);
  EXPECT_EQ(memo.size(), 4u);

  // Every key above is still an exact hit.
  (void)pact_reduce(gii, PactOptions{4}, &memo);
  (void)pact_reduce(base, PactOptions{3}, &memo);
  EXPECT_EQ(memo.size(), 4u);
}

TEST(PactMemo, CountsEigensolvesAndHits) {
  obs::Registry reg;
  {
    obs::ScopedContext ctx(&reg, 0);
    PactMemo memo;
    (void)pact_reduce(two_port_line(1e-3), PactOptions{4}, &memo);
    (void)pact_reduce(two_port_line(2e-3), PactOptions{4}, &memo);
    (void)pact_reduce(two_port_line(4e-3), PactOptions{4}, &memo);
    (void)pact_reduce(two_port_line(4e-3), PactOptions{4});
  }
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("mor.pact.eigensolves"), 2u);
  EXPECT_EQ(snap.counters.at("mor.pact.memo_hits"), 2u);
}

}  // namespace
}  // namespace lcsf::mor
