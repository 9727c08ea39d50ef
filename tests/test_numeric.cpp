// Unit and property tests for the dense linear-algebra substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <random>
#include <stdexcept>
#include <string>

#include "numeric/cholesky.hpp"
#include "numeric/eigen_real.hpp"
#include "numeric/eigen_sym.hpp"
#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "numeric/orthonormal.hpp"

namespace lcsf::numeric {
namespace {

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

TEST(Matrix, InitializerListAndAccess) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 3.0);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW((Matrix{{1.0}, {1.0, 2.0}}), std::invalid_argument);
}

TEST(Matrix, ArithmeticAndTranspose) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
  Matrix t = a.transposed();
  EXPECT_DOUBLE_EQ(t(0, 1), 3.0);
  Matrix s = a + b - b;
  EXPECT_NEAR(relative_difference(s, a), 0.0, 1e-15);
  EXPECT_THROW(a * Matrix(3, 3), std::invalid_argument);
}

TEST(Matrix, BlockOps) {
  Matrix a = random_matrix(5, 5, 1);
  Matrix b = a.block(1, 2, 3, 2);
  EXPECT_DOUBLE_EQ(b(0, 0), a(1, 2));
  EXPECT_DOUBLE_EQ(b(2, 1), a(3, 3));
  Matrix z(5, 5);
  z.set_block(1, 2, b);
  EXPECT_DOUBLE_EQ(z(3, 3), a(3, 3));
  EXPECT_THROW(a.block(3, 3, 4, 1), std::out_of_range);
}

TEST(Matrix, VectorOps) {
  Vector x{1, 2, 3};
  Vector y{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(x, y), 32.0);
  EXPECT_DOUBLE_EQ(norm(Vector{3, 4}), 5.0);
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  Matrix a{{1, 0}, {0, 2}, {3, 0}};
  Vector z = a.transposed() * Vector{1, 1, 1};
  EXPECT_DOUBLE_EQ(z[0], 4.0);
  EXPECT_DOUBLE_EQ(z[1], 2.0);
}

TEST(Lu, SolvesRandomSystems) {
  for (unsigned seed : {2u, 3u, 4u}) {
    const std::size_t n = 8;
    Matrix a = random_matrix(n, n, seed);
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 3.0;
    Vector x_true(n);
    for (std::size_t i = 0; i < n; ++i) x_true[i] = static_cast<double>(i) - 2;
    Vector b = a * x_true;
    Vector x = solve(a, b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
  }
}

TEST(Lu, DeterminantAndSingularity) {
  Matrix sing{{1, 2}, {2, 4}};
  EXPECT_THROW(LuFactorization{sing}, std::runtime_error);
}

/// what() of the exception `f` throws, or "" when it throws none.
template <typename E, typename F>
std::string message_of(F&& f) {
  try {
    f();
  } catch (const E& e) {
    return e.what();
  }
  return "";
}

// The real and complex instances of the one LU keep their own exception
// types and messages, which reach the stage diagnostics verbatim.
TEST(Lu, InstancesKeepTheirMessages) {
  const Matrix sing{{1, 2}, {2, 4}};
  EXPECT_EQ(message_of<std::runtime_error>([&] { LuFactorization{sing}; }),
            "LuFactorization: singular matrix");
  EXPECT_EQ(message_of<std::runtime_error>(
                [&] { ComplexLu{ComplexMatrix(sing)}; }),
            "ComplexLu: singular matrix");
  EXPECT_EQ(message_of<std::invalid_argument>(
                [] { LuFactorization{Matrix(2, 3)}; }),
            "LuFactorization: matrix must be square");
  EXPECT_EQ(message_of<std::invalid_argument>(
                [] { ComplexLu{ComplexMatrix(2, 3)}; }),
            "ComplexLu: matrix must be square");
  const LuFactorization lu(Matrix::identity(2));
  const ComplexLu clu(ComplexMatrix(Matrix::identity(2)));
  EXPECT_EQ(message_of<std::invalid_argument>([&] { lu.solve(Vector(3)); }),
            "LU solve: size mismatch");
  EXPECT_EQ(message_of<std::invalid_argument>([&] { lu.solve(Matrix(3, 1)); }),
            "LU solve: size");
  EXPECT_EQ(message_of<std::invalid_argument>([&] { clu.solve(CVector(3)); }),
            "ComplexLu::solve: size");
  EXPECT_EQ(message_of<std::invalid_argument>(
                [&] { clu.solve(ComplexMatrix(3, 1)); }),
            "ComplexLu::solve: dimension mismatch");
}

TEST(Cholesky, FactorAndSolve) {
  Matrix a = random_spd(7, 21);
  CholeskyFactorization chol(a);
  const Matrix& l = chol.lower();
  EXPECT_NEAR(relative_difference(l * l.transposed(), a), 0.0, 1e-10);
  Vector b(7, 1.0);
  Vector x = chol.solve(b);
  Vector check = a * x;
  for (std::size_t i = 0; i < 7; ++i) EXPECT_NEAR(check[i], 1.0, 1e-9);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a{{1, 0}, {0, -1}};
  EXPECT_THROW(CholeskyFactorization{a}, std::runtime_error);
}

TEST(Cholesky, SymmetryPredicate) {
  Matrix a{{1, 2}, {2, 1}};
  EXPECT_TRUE(is_symmetric(a));
  a(0, 1) = 2.5;
  EXPECT_FALSE(is_symmetric(a));
}

TEST(EigenSym, DiagonalizesKnownMatrix) {
  // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
  SymmetricEigen e = eigen_symmetric(Matrix{{2, 1}, {1, 2}});
  ASSERT_EQ(e.values.size(), 2u);
  EXPECT_NEAR(e.values[0], 1.0, 1e-12);
  EXPECT_NEAR(e.values[1], 3.0, 1e-12);
}

TEST(EigenSym, ReconstructsRandomSpd) {
  Matrix a = random_spd(9, 33);
  SymmetricEigen e = eigen_symmetric(a);
  Matrix lam = Matrix::diagonal(e.values);
  Matrix recon = e.vectors * lam * e.vectors.transposed();
  EXPECT_NEAR(relative_difference(recon, a), 0.0, 1e-9);
  EXPECT_LT(orthogonality_defect(e.vectors), 1e-9);
  for (double v : e.values) EXPECT_GT(v, 0.0);
}

TEST(EigenSym, JacobiAndTridiagonalAgree) {
  for (std::size_t n : {3u, 10u, 40u, 90u}) {
    Matrix a = random_spd(n, 77u + static_cast<unsigned>(n));
    SymmetricEigen ej = eigen_symmetric_jacobi(a);
    SymmetricEigen et = eigen_symmetric_tridiagonal(a);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(ej.values[k], et.values[k],
                  1e-9 * std::max(1.0, std::abs(ej.values[k])))
          << "n=" << n << " k=" << k;
    }
    // Both reconstruct A.
    Matrix recon =
        et.vectors * Matrix::diagonal(et.values) * et.vectors.transposed();
    EXPECT_NEAR(relative_difference(recon, a), 0.0, 1e-9);
    EXPECT_LT(orthogonality_defect(et.vectors), 1e-9);
  }
}

TEST(EigenSym, TridiagonalHandlesLargeRcLikeMatrix) {
  // Tridiagonal SPD (discretized RC line): known eigenvalues
  // 2 - 2 cos(k pi / (n+1)).
  const std::size_t n = 200;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 2.0;
    if (i + 1 < n) {
      a(i, i + 1) = -1.0;
      a(i + 1, i) = -1.0;
    }
  }
  SymmetricEigen e = eigen_symmetric(a);
  for (std::size_t k = 0; k < n; ++k) {
    const double expect =
        2.0 - 2.0 * std::cos((double(k) + 1.0) * M_PI / (double(n) + 1.0));
    EXPECT_NEAR(e.values[k], expect, 1e-10) << k;
  }
}

TEST(EigenSym, GeneralizedProblem) {
  Matrix a = random_spd(6, 44);
  Matrix b = random_spd(6, 45);
  SymmetricEigen e = eigen_symmetric_generalized(a, b);
  for (std::size_t k = 0; k < 6; ++k) {
    Vector x = e.vectors.col(k);
    Vector ax = a * x;
    Vector bx = b * x;
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_NEAR(ax[i], e.values[k] * bx[i], 1e-8 * (1.0 + std::abs(ax[i])));
    }
  }
  // B-orthonormality.
  Matrix xtbx = congruence(e.vectors, b);
  EXPECT_NEAR(relative_difference(xtbx, Matrix::identity(6)), 0.0, 1e-8);
}

TEST(EigenReal, KnownRealEigenvalues) {
  // Upper triangular: eigenvalues on the diagonal.
  Matrix a{{1, 5, 0}, {0, 2, 1}, {0, 0, 3}};
  auto vals = eigenvalues_real(a);
  std::vector<double> re;
  for (auto v : vals) {
    EXPECT_NEAR(v.imag(), 0.0, 1e-10);
    re.push_back(v.real());
  }
  std::sort(re.begin(), re.end());
  EXPECT_NEAR(re[0], 1.0, 1e-10);
  EXPECT_NEAR(re[1], 2.0, 1e-10);
  EXPECT_NEAR(re[2], 3.0, 1e-10);
}

TEST(EigenReal, ComplexPair) {
  // Rotation-like matrix has eigenvalues a +- bi.
  Matrix a{{1, -2}, {2, 1}};
  auto vals = eigenvalues_real(a);
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_NEAR(vals[0].real(), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(vals[0].imag()), 2.0, 1e-12);
  EXPECT_NEAR(vals[1].real(), 1.0, 1e-12);
  EXPECT_NEAR(vals[0].imag() + vals[1].imag(), 0.0, 1e-12);
}

// Property: A v = lambda v for every eigenpair of random matrices.
class EigenRealProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(EigenRealProperty, EigenpairsSatisfyDefinition) {
  const std::size_t n = 10;
  Matrix a = random_matrix(n, n, GetParam());
  RealEigen e = eigen_real(a);
  ASSERT_EQ(e.values.size(), n);
  for (std::size_t k = 0; k < n; ++k) {
    auto v = e.vector(k);
    // Skip near-zero vectors (should not happen, guard division).
    double vnorm = 0.0;
    for (auto c : v) vnorm += std::norm(c);
    vnorm = std::sqrt(vnorm);
    ASSERT_GT(vnorm, 1e-12);
    // Compute ||A v - lambda v|| / ||v||.
    double resid = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      std::complex<double> av = 0.0;
      for (std::size_t j = 0; j < n; ++j) av += a(i, j) * v[j];
      resid += std::norm(av - e.values[k] * v[i]);
    }
    EXPECT_LT(std::sqrt(resid) / vnorm, 1e-8)
        << "eigenpair " << k << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EigenRealProperty,
                         ::testing::Values(101u, 102u, 103u, 104u, 105u));

// Property: eigenvalues of -G^{-1}C for an RC-like (SPD G, PSD C) pencil are
// real and non-positive -- this is the stability property the paper's
// variational models lose.
class RcPencilProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(RcPencilProperty, PassivePencilHasStablePoles) {
  const std::size_t n = 8;
  Matrix g = random_spd(n, GetParam());
  Matrix csqrt = random_matrix(n, n, GetParam() + 1000);
  Matrix c = csqrt.transposed() * csqrt;  // PSD
  Matrix t = LuFactorization(g).solve(c);
  t *= -1.0;
  auto vals = eigenvalues_real(t);
  for (auto v : vals) {
    EXPECT_LE(v.real(), 1e-9);
    EXPECT_NEAR(v.imag(), 0.0, 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RcPencilProperty,
                         ::testing::Values(7u, 8u, 9u, 10u));

TEST(Orthonormal, BasisSpansInput) {
  Matrix a = random_matrix(10, 4, 55);
  auto res = orthonormalize(a);
  EXPECT_EQ(res.rank, 4u);
  EXPECT_EQ(res.deflated, 0u);
  EXPECT_LT(orthogonality_defect(res.q), 1e-12);
  // Each input column must be reproduced by Q Q^T a_j.
  for (std::size_t j = 0; j < 4; ++j) {
    Vector aj = a.col(j);
    Vector proj = res.q * (res.q.transposed() * aj);
    for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(proj[i], aj[i], 1e-10);
  }
}

TEST(Orthonormal, DeflatesDependentColumns) {
  Matrix a(6, 3);
  for (std::size_t i = 0; i < 6; ++i) {
    a(i, 0) = static_cast<double>(i + 1);
    a(i, 1) = 2.0 * static_cast<double>(i + 1);  // dependent
    a(i, 2) = (i == 0) ? 1.0 : 0.0;
  }
  auto res = orthonormalize(a);
  EXPECT_EQ(res.rank, 2u);
  EXPECT_EQ(res.deflated, 1u);
}

TEST(Orthonormal, AgainstExistingBasis) {
  Matrix q0 = orthonormalize(random_matrix(8, 3, 66)).q;
  Matrix a = random_matrix(8, 3, 67);
  auto res = orthonormalize(a, &q0);
  // New basis orthogonal to old one.
  Matrix cross = q0.transposed() * res.q;
  EXPECT_LT(cross.max_abs(), 1e-10);
}

}  // namespace
}  // namespace lcsf::numeric
