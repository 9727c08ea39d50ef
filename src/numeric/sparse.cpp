#include "numeric/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace lcsf::numeric {

void SparseMatrix::add(std::size_t i, std::size_t j, double v) {
  if (i >= rows_.size() || j >= rows_.size()) {
    throw std::out_of_range("SparseMatrix::add");
  }
  auto& row = rows_[i];
  auto it = std::lower_bound(
      row.begin(), row.end(), j,
      [](const auto& e, std::size_t col) { return e.first < col; });
  if (it != row.end() && it->first == j) {
    it->second += v;
  } else {
    row.insert(it, {j, v});
  }
}

void SparseMatrix::clear() {
  for (auto& r : rows_) r.clear();
}

Vector SparseMatrix::multiply(const Vector& x) const {
  if (x.size() != size()) throw std::invalid_argument("SparseMatrix: size");
  Vector y(size(), 0.0);
  for (std::size_t i = 0; i < size(); ++i) {
    double s = 0.0;
    for (const auto& [j, v] : rows_[i]) s += v * x[j];
    y[i] = s;
  }
  return y;
}

std::size_t SparseMatrix::nonzeros() const {
  std::size_t n = 0;
  for (const auto& r : rows_) n += r.size();
  return n;
}

SparseLu::SparseLu(const SparseMatrix& a, double pivot_floor) {
  factorize(a, pivot_floor);
}

bool SparseLu::refactor(const SparseMatrix& a, double pivot_floor) {
  if (a.size() == size() && refactor_numeric(a, pivot_floor)) return true;
  factorize(a, pivot_floor);
  return false;
}

void SparseLu::factorize(const SparseMatrix& a, double pivot_floor) {
  const std::size_t n = a.size();
  lrows_.resize(n);
  urows_.resize(n);
  for (auto& r : lrows_) r.clear();
  for (auto& r : urows_) r.clear();
  // Dense scatter workspace reused across rows (and factorizations).
  work_.assign(n, 0.0);
  Vector& work = work_;

  for (std::size_t i = 0; i < n; ++i) {
    // Structural pattern of row i, grown by fill as eliminations proceed.
    std::set<std::size_t> pattern;
    for (const auto& [j, v] : a.row(i)) {
      work[j] = v;
      pattern.insert(j);
    }

    // Eliminate columns k < i in ascending order. Inserting fill columns
    // (> k) during iteration is safe for std::set.
    for (auto it = pattern.begin(); it != pattern.end() && *it < i; ++it) {
      const std::size_t k = *it;
      const auto& urow = urows_[k];
      const double ukk = urow.front().second;  // diagonal stored first
      const double l = work[k] / ukk;
      work[k] = l;
      for (std::size_t e = 1; e < urow.size(); ++e) {
        const auto [j, u] = urow[e];
        if (pattern.insert(j).second) work[j] = 0.0;
        work[j] -= l * u;
      }
    }

    // Harvest L and U parts; reset workspace.
    auto& lrow = lrows_[i];
    auto& urow = urows_[i];
    double diag = 0.0;
    bool have_diag = false;
    for (std::size_t j : pattern) {
      if (j < i) {
        lrow.emplace_back(j, work[j]);
      } else if (j == i) {
        diag = work[j];
        have_diag = true;
      } else {
        urow.emplace_back(j, work[j]);
      }
      work[j] = 0.0;
    }
    if (!have_diag || std::abs(diag) <= pivot_floor) {
      throw std::runtime_error("SparseLu: zero pivot at row " +
                               std::to_string(i));
    }
    urow.insert(urow.begin(), {i, diag});
  }
}

bool SparseLu::refactor_numeric(const SparseMatrix& a, double pivot_floor) {
  // Value-only refactorization over the frozen fill pattern. Mirrors
  // factorize() step for step — ascending elimination order over the same
  // (super)set of columns — so nonzero results are bitwise identical.
  const std::size_t n = size();
  const auto col_less = [](const std::pair<std::size_t, double>& e,
                           std::size_t col) { return e.first < col; };
  for (std::size_t i = 0; i < n; ++i) {
    auto& lrow = lrows_[i];
    auto& urow = urows_[i];
    // Scatter structural values of the new row; every slot not stamped this
    // time keeps the 0.0 the workspace invariant guarantees.
    for (const auto& [j, v] : a.row(i)) {
      if (j == i) {
        work_[j] = v;
        continue;
      }
      auto& prow = j < i ? lrow : urow;
      const auto pbeg = prow.begin() + (j < i ? 0 : 1);  // skip stored diag
      const auto it = std::lower_bound(pbeg, prow.end(), j, col_less);
      if (it == prow.end() || it->first != j) {
        // New structural entry outside the stored pattern: restore the
        // all-zero workspace (zeroing slots never written is harmless) and
        // report a mismatch so refactor() rebuilds fully.
        for (const auto& [jj, vv] : a.row(i)) {
          (void)vv;
          work_[jj] = 0.0;
        }
        return false;
      }
      work_[j] = v;
    }

    // Eliminate columns k < i in ascending order (lrow is sorted). The
    // update targets are the stored urows_[k] columns, which lie inside the
    // stored pattern of row i by construction of the original fill.
    for (const auto& [k, lold] : lrow) {
      (void)lold;
      const auto& urowk = urows_[k];
      const double ukk = urowk.front().second;  // already refactored
      const double l = work_[k] / ukk;
      work_[k] = l;
      for (std::size_t e = 1; e < urowk.size(); ++e) {
        const auto [j, u] = urowk[e];
        work_[j] -= l * u;
      }
    }

    // Harvest in place and restore the all-zero workspace invariant before
    // the pivot check, so a throw leaves the workspace reusable.
    for (auto& e : lrow) {
      e.second = work_[e.first];
      work_[e.first] = 0.0;
    }
    const double diag = work_[i];
    work_[i] = 0.0;
    for (std::size_t e = 1; e < urow.size(); ++e) {
      urow[e].second = work_[urow[e].first];
      work_[urow[e].first] = 0.0;
    }
    if (std::abs(diag) <= pivot_floor) {
      throw std::runtime_error("SparseLu: zero pivot at row " +
                               std::to_string(i));
    }
    urow.front().second = diag;
  }
  return true;
}

Vector SparseLu::solve(const Vector& b) const {
  Vector x;
  solve_into(b, x);
  return x;
}

void SparseLu::solve_into(const Vector& b, Vector& x) const {
  const std::size_t n = size();
  if (b.size() != n) throw std::invalid_argument("SparseLu::solve: size");
  x = b;
  // Forward: L y = b (unit diagonal).
  for (std::size_t i = 0; i < n; ++i) {
    double s = x[i];
    for (const auto& [j, l] : lrows_[i]) s -= l * x[j];
    x[i] = s;
  }
  // Backward: U x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double s = x[ii];
    const auto& urow = urows_[ii];
    for (std::size_t e = 1; e < urow.size(); ++e) {
      s -= urow[e].second * x[urow[e].first];
    }
    x[ii] = s / urow.front().second;
  }
}

}  // namespace lcsf::numeric
