// Symmetric (and generalized symmetric-definite) eigensolvers.
//
// Householder tridiagonalization + implicit-shift QL above n = 24, cyclic
// Jacobi rotation (unconditionally stable, cheaper on tiny inputs) up to
// it. Sizes range from PCA covariance matrices with tens of parameters to
// PACT's internal blocks of hundreds of nodes.
#pragma once

#include "numeric/matrix.hpp"

namespace lcsf::numeric {

struct SymmetricEigen {
  Vector values;   ///< ascending eigenvalues
  Matrix vectors;  ///< column k is the eigenvector of values[k]
};

/// Eigendecomposition of a symmetric matrix (symmetry is enforced by
/// averaging). Eigenvalues ascend; eigenvectors are orthonormal and have a
/// deterministic sign convention (largest-magnitude component positive) so
/// finite-difference perturbation studies see continuous bases.
///
/// Dispatches to Householder tridiagonalization + implicit QL (fast, the
/// default above a small-size threshold) or cyclic Jacobi (tiny inputs).
SymmetricEigen eigen_symmetric(Matrix a, int max_sweeps = 64);

/// Cyclic Jacobi variant (exposed for tests/benches).
SymmetricEigen eigen_symmetric_jacobi(Matrix a, int max_sweeps = 64);

/// Householder tred2 + implicit-shift tql2 variant (exposed for
/// tests/benches).
SymmetricEigen eigen_symmetric_tridiagonal(Matrix a);

/// Generalized symmetric-definite problem A x = lambda B x with B SPD,
/// reduced via B = L L^T to the standard problem for L^{-1} A L^{-T}.
/// Returned vectors are B-orthonormal: X^T B X = I.
SymmetricEigen eigen_symmetric_generalized(const Matrix& a, const Matrix& b,
                                           int max_sweeps = 64);

}  // namespace lcsf::numeric
