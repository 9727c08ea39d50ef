#include "numeric/lu.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "numeric/fp_compare.hpp"

namespace lcsf::numeric {
namespace {

/// Each instance keeps its own exception messages.
template <typename M>
constexpr bool kReal = std::is_same_v<M, Matrix>;

bool is_zero(double v) { return exact_zero(v); }
bool is_zero(const Complex& v) { return v == Complex{}; }

}  // namespace

template <typename M>
Lu<M>::Lu(M a) : lu_(std::move(a)) {
  factorize();
}

template <typename M>
void Lu<M>::refactor(const M& a) {
  lu_ = a;  // copy-assign reuses lu_'s heap block when shapes match
  factorize();
}

template <typename M>
void Lu<M>::factorize() {
  if (lu_.rows() != lu_.cols()) {
    throw std::invalid_argument(kReal<M>
                                    ? "LuFactorization: matrix must be square"
                                    : "ComplexLu: matrix must be square");
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
      throw std::runtime_error(kReal<M> ? "LuFactorization: singular matrix"
                                        : "ComplexLu: singular matrix");
    }
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(lu_(p, j), lu_(k, j));
      std::swap(piv_[p], piv_[k]);
    }
    const Scalar ukk = lu_(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const Scalar lik = lu_(i, k) / ukk;
      lu_(i, k) = lik;
      if (is_zero(lik)) continue;
      for (std::size_t j = k + 1; j < n; ++j) {
        lu_(i, j) -= lik * lu_(k, j);
      }
    }
  }
}

template <typename M>
typename Lu<M>::Vec Lu<M>::solve(const Vec& b) const {
  Vec x;
  solve_into(b, x);
  return x;
}

template <typename M>
void Lu<M>::solve_into(const Vec& b, Vec& x) const {
  if (b.size() != size()) {
    throw std::invalid_argument(kReal<M> ? "LU solve: size mismatch"
                                         : "ComplexLu::solve: size");
  }
  x.resize(size());
  solve_into_strided(b.data(), x.data(), 1);
}

template <typename M>
M Lu<M>::solve(const M& b) const {
  M x;
  Vec col_b;
  Vec col_x;
  solve_into(b, x, col_b, col_x);
  return x;
}

template <typename M>
void Lu<M>::solve_into(const M& b, M& x, Vec& col_b, Vec& col_x) const {
  if (b.rows() != size()) {
    throw std::invalid_argument(kReal<M>
                                    ? "LU solve: size"
                                    : "ComplexLu::solve: dimension mismatch");
  }
  x.assign(b.rows(), b.cols());
  col_b.resize(b.rows());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t i = 0; i < b.rows(); ++i) col_b[i] = b(i, j);
    solve_into(col_b, col_x);
    for (std::size_t i = 0; i < b.rows(); ++i) x(i, j) = col_x[i];
  }
}

template class Lu<Matrix>;
template class Lu<ComplexMatrix>;

Vector solve(Matrix a, const Vector& b) {
  return LuFactorization(std::move(a)).solve(b);
}

}  // namespace lcsf::numeric
