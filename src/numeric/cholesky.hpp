// Cholesky factorization for symmetric positive-definite matrices.
//
// Used by PACT: the internal conductance block G_II of an RC network is SPD,
// and the generalized eigenproblem (C_II, G_II) is reduced to a standard
// symmetric one through L from G_II = L L^T.
#pragma once

#include "numeric/matrix.hpp"

namespace lcsf::numeric {

/// A = L L^T with L lower triangular.
class CholeskyFactorization {
 public:
  /// Throws std::runtime_error if a is not (numerically) positive definite.
  explicit CholeskyFactorization(const Matrix& a);

  std::size_t size() const { return l_.rows(); }
  const Matrix& lower() const { return l_; }

  /// Solve A x = b via two triangular solves.
  Vector solve(const Vector& b) const;
  /// Solve L y = b (forward substitution only).
  Vector solve_lower(const Vector& b) const;
  /// Solve L^T y = b (backward substitution only).
  Vector solve_lower_transposed(const Vector& b) const;

 private:
  Matrix l_;
};

/// True if a is symmetric within tol (relative to its largest entry).
bool is_symmetric(const Matrix& a, double tol = 1e-12);

}  // namespace lcsf::numeric
