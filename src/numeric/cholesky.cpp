#include "numeric/cholesky.hpp"

#include <cmath>
#include <stdexcept>

namespace lcsf::numeric {

CholeskyFactorization::CholeskyFactorization(const Matrix& a)
    : l_(a.rows(), a.cols()) {
  if (!a.square()) {
    throw std::invalid_argument("Cholesky: matrix must be square");
  }
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l_(j, k) * l_(j, k);
    if (d <= 0.0) {
      throw std::runtime_error("Cholesky: matrix not positive definite");
    }
    const double ljj = std::sqrt(d);
    l_(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l_(i, k) * l_(j, k);
      l_(i, j) = s / ljj;
    }
  }
}

Vector CholeskyFactorization::solve_lower(const Vector& b) const {
  const std::size_t n = size();
  if (b.size() != n) throw std::invalid_argument("Cholesky: size mismatch");
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t j = 0; j < i; ++j) s -= l_(i, j) * y[j];
    y[i] = s / l_(i, i);
  }
  return y;
}

Vector CholeskyFactorization::solve_lower_transposed(const Vector& b) const {
  const std::size_t n = size();
  if (b.size() != n) throw std::invalid_argument("Cholesky: size mismatch");
  Vector y(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= l_(j, ii) * y[j];
    y[ii] = s / l_(ii, ii);
  }
  return y;
}

Vector CholeskyFactorization::solve(const Vector& b) const {
  return solve_lower_transposed(solve_lower(b));
}

bool is_symmetric(const Matrix& a, double tol) {
  if (!a.square()) return false;
  const double scale = std::max(a.max_abs(), 1e-300);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = i + 1; j < a.cols(); ++j) {
      if (std::abs(a(i, j) - a(j, i)) > tol * scale) return false;
    }
  }
  return true;
}

}  // namespace lcsf::numeric
