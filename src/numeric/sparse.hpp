// Sparse matrix and sparse LU for the SPICE-substitute baseline.
//
// Circuit Jacobians are nearly banded when nodes are numbered along wires,
// so a natural-order (no pivot permutation) row-wise elimination with
// on-the-fly fill tracking is both simple and fast. The simulator
// guarantees nonzero diagonals by eliminating ideal-source nodes and adding
// gmin, and the factorization reports tiny pivots instead of silently
// producing garbage.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "numeric/matrix.hpp"

namespace lcsf::numeric {

/// Row-major sparse matrix with sorted per-row (col, value) entries.
class SparseMatrix {
 public:
  explicit SparseMatrix(std::size_t n = 0) : rows_(n) {}

  std::size_t size() const { return rows_.size(); }

  /// Accumulate a value at (i, j).
  void add(std::size_t i, std::size_t j, double v);

  /// Drop all entries but keep every row's heap block, so re-stamping a
  /// matrix of the same sparsity costs no allocation after the first pass.
  void clear();

  const std::vector<std::pair<std::size_t, double>>& row(std::size_t i) const {
    return rows_[i];
  }

  /// y = A x
  Vector multiply(const Vector& x) const;

  std::size_t nonzeros() const;

 private:
  // rows_[i] kept sorted by column index.
  std::vector<std::vector<std::pair<std::size_t, double>>> rows_;
};

/// LU factorization in natural order (no row permutation). Intended for
/// diagonally-dominant-ish circuit matrices; throws std::runtime_error on a
/// (near-)zero pivot.
class SparseLu {
 public:
  /// Empty factorization; only valid for refactor() followed by solves.
  SparseLu() = default;

  explicit SparseLu(const SparseMatrix& a, double pivot_floor = 1e-300);

  /// Factorize a new matrix, reusing the stored fill pattern when every
  /// structural entry of `a` lies inside it (the common case for Newton
  /// iterations and homotopy retries, where only values change). The fast
  /// path skips the symbolic analysis and allocates nothing; a pattern or
  /// size mismatch silently falls back to a full factorization. Entries the
  /// stored pattern has but `a` lacks participate as explicit zeros, which
  /// leaves every nonzero result bit-identical (only signs of zeros can
  /// differ from a from-scratch factorization). Returns true when the fast
  /// value-only path was taken, false when it fell back to a full
  /// symbolic+numeric factorization (callers use this to count
  /// refactorizations vs. full factorizations; the result is identical
  /// either way).
  bool refactor(const SparseMatrix& a, double pivot_floor = 1e-300);

  std::size_t size() const { return lrows_.size(); }
  Vector solve(const Vector& b) const;
  /// solve() into caller-owned x (may alias b; the loops are in-place).
  void solve_into(const Vector& b, Vector& x) const;

 private:
  void factorize(const SparseMatrix& a, double pivot_floor);
  bool refactor_numeric(const SparseMatrix& a, double pivot_floor);

  // lrows_[i]: (col < i, l value); urows_[i]: (col >= i, u value) with the
  // diagonal first.
  std::vector<std::vector<std::pair<std::size_t, double>>> lrows_;
  std::vector<std::vector<std::pair<std::size_t, double>>> urows_;
  // Dense scatter workspace; invariant: all-zero between factorizations
  // (restored even when a pivot failure throws).
  Vector work_;
};

}  // namespace lcsf::numeric
