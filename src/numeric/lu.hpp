// LU factorization with partial pivoting, real and complex.
//
// The framework factorizes each effective-load admittance matrix once and
// back-substitutes many times (successive-chord iterations, pole/residue
// extraction, moment computation), so the factorization is a stored object.
// One class template holds the elimination and the triangular solve for
// both scalar types: LuFactorization over Matrix, and ComplexLu over
// ComplexMatrix for port impedances Z(s) and the inverse of the complex
// eigenvector matrix S of the pole/residue transformation (paper
// Eq. 16-20).
#pragma once

#include <cstddef>
#include <type_traits>
#include <vector>

#include "numeric/complex_matrix.hpp"
#include "numeric/matrix.hpp"

namespace lcsf::numeric {

/// PA = LU factorization with partial (row) pivoting of a dense square M
/// (Matrix or ComplexMatrix).
template <typename M>
class Lu {
 public:
  using Scalar =
      std::conditional_t<std::is_same_v<M, Matrix>, double, Complex>;
  using Vec = std::vector<Scalar>;

  /// Empty factorization; only valid for refactor() followed by solves.
  /// Exists so workspaces can own a reusable slot before the first sample.
  Lu() = default;

  /// Factorizes a (must be square). Throws std::runtime_error on exact
  /// singularity (a zero pivot column).
  explicit Lu(M a);

  /// Re-run the factorization on a new matrix, reusing the pivot vector and
  /// the LU storage when the shape matches (no allocation after warm-up).
  /// Identical elimination to the constructor, so results are bitwise equal.
  void refactor(const M& a);

  std::size_t size() const { return lu_.rows(); }

  /// Solve A x = b.
  Vec solve(const Vec& b) const;
  /// Solve A x = b into caller-owned x (must not alias b). Bitwise identical
  /// to solve(); x is resized but never reallocated once warm.
  void solve_into(const Vec& b, Vec& x) const;
  /// Solve A X = B column-by-column.
  M solve(const M& b) const;
  /// Matrix solve into caller-owned x with caller column scratch; bitwise
  /// identical to solve(M), allocation-free once warm.
  void solve_into(const M& b, M& x, Vec& col_b, Vec& col_x) const;
  /// Strided solve for SoA lane storage: element i of the RHS lives at
  /// b[i*stride] and the solution goes to x[i*stride] (b and x must not
  /// alias; both hold size() strided entries). Forward and back
  /// substitution run in place on x -- the one triangular solve, which
  /// solve_into runs at stride 1 -- so every stride gives the same bits.
  /// Inline for the TETA chord iteration.
  void solve_into_strided(const Scalar* b, Scalar* x,
                          std::size_t stride) const {
    // Forward-substitute L y = P b, then back-substitute U x = y. Every
    // element of x is written before it is read.
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
      Scalar s = b[piv_[i] * stride];
      for (std::size_t j = 0; j < i; ++j) s -= lu_(i, j) * x[j * stride];
      x[i * stride] = s;
    }
    for (std::size_t ii = n; ii-- > 0;) {
      Scalar s = x[ii * stride];
      for (std::size_t j = ii + 1; j < n; ++j) {
        s -= lu_(ii, j) * x[j * stride];
      }
      x[ii * stride] = s / lu_(ii, ii);
    }
  }

 private:
  void factorize();

  M lu_;                          // combined L (unit lower) and U
  std::vector<std::size_t> piv_;  // row permutation
};

extern template class Lu<Matrix>;
extern template class Lu<ComplexMatrix>;

using LuFactorization = Lu<Matrix>;
using ComplexLu = Lu<ComplexMatrix>;

/// Convenience: solve A x = b with a one-shot factorization.
Vector solve(Matrix a, const Vector& b);

}  // namespace lcsf::numeric
