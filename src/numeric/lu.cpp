#include "numeric/lu.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "numeric/fp_compare.hpp"

namespace lcsf::numeric {

LuFactorization::LuFactorization(Matrix a) : lu_(std::move(a)) {
  factorize();
}

void LuFactorization::refactor(const Matrix& a) {
  lu_ = a;  // copy-assign reuses lu_'s heap block when shapes match
  factorize();
}

void LuFactorization::factorize() {
  if (!lu_.square()) {
    throw std::invalid_argument("LuFactorization: matrix must be square");
  }
  const std::size_t n = lu_.rows();
  piv_.resize(n);
  for (std::size_t i = 0; i < n; ++i) piv_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest magnitude in column k at/below the diagonal.
    std::size_t p = k;
    double pmax = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(lu_(i, k));
      if (v > pmax) {
        pmax = v;
        p = i;
      }
    }
    if (exact_zero(pmax)) {
      throw std::runtime_error("LuFactorization: singular matrix");
    }
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(lu_(p, j), lu_(k, j));
      std::swap(piv_[p], piv_[k]);
    }
    const double ukk = lu_(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double lik = lu_(i, k) / ukk;
      lu_(i, k) = lik;
      if (exact_zero(lik)) continue;
      for (std::size_t j = k + 1; j < n; ++j) {
        lu_(i, j) -= lik * lu_(k, j);
      }
    }
  }
}

Vector LuFactorization::solve(const Vector& b) const {
  Vector x;
  solve_into(b, x);
  return x;
}

void LuFactorization::solve_into(const Vector& b, Vector& x) const {
  if (b.size() != size()) {
    throw std::invalid_argument("LU solve: size mismatch");
  }
  x.resize(size());
  solve_into_strided(b.data(), x.data(), 1);
}

Matrix LuFactorization::solve(const Matrix& b) const {
  if (b.rows() != size()) throw std::invalid_argument("LU solve: size");
  Matrix x(b.rows(), b.cols());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    x.set_col(j, solve(b.col(j)));
  }
  return x;
}

void LuFactorization::solve_into(const Matrix& b, Matrix& x, Vector& col_b,
                                 Vector& col_x) const {
  if (b.rows() != size()) throw std::invalid_argument("LU solve: size");
  x.assign(b.rows(), b.cols());
  col_b.resize(b.rows());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t i = 0; i < b.rows(); ++i) col_b[i] = b(i, j);
    solve_into(col_b, col_x);
    for (std::size_t i = 0; i < b.rows(); ++i) x(i, j) = col_x[i];
  }
}

Vector solve(Matrix a, const Vector& b) {
  return LuFactorization(std::move(a)).solve(b);
}

}  // namespace lcsf::numeric
