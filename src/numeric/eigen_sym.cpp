#include "numeric/eigen_sym.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "numeric/cholesky.hpp"
#include "numeric/fp_compare.hpp"

namespace lcsf::numeric {
namespace {

// Sort eigenpairs ascending by value and fix the sign of each vector so the
// entry of largest magnitude is positive. Deterministic ordering/sign is
// essential: the variational MOR library differentiates decompositions.
// It works in `vectors` itself, so the result costs no second n x n
// matrix: the columns move along the permutation's cycles.
SymmetricEigen sorted_with_sign_convention(Vector values, Matrix vectors) {
  const std::size_t n = values.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return values[a] < values[b];
  });

  for (std::size_t k = 0; k < n; ++k) {
    std::size_t imax = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (std::abs(vectors(i, k)) > std::abs(vectors(imax, k))) imax = i;
    }
    if (vectors(imax, k) < 0.0) {
      for (std::size_t i = 0; i < n; ++i) vectors(i, k) = -vectors(i, k);
    }
  }

  SymmetricEigen out;
  out.values.resize(n);
  for (std::size_t k = 0; k < n; ++k) out.values[k] = values[order[k]];
  // Column k takes column order[k]: walk each cycle k -> order[k] -> ...
  std::vector<bool> placed(n, false);
  for (std::size_t start = 0; start < n; ++start) {
    if (placed[start]) continue;
    const Vector first = vectors.col(start);
    std::size_t k = start;
    while (order[k] != start) {
      vectors.set_col(k, vectors.col(order[k]));
      placed[k] = true;
      k = order[k];
    }
    vectors.set_col(k, first);
    placed[k] = true;
  }
  out.vectors = std::move(vectors);
  return out;
}

}  // namespace

SymmetricEigen eigen_symmetric(Matrix a, int max_sweeps) {
  // Jacobi is simple and ultra-robust for tiny systems; the tridiagonal
  // path is O(n^3) with a far smaller constant and wins beyond ~24.
  if (a.rows() <= 24) return eigen_symmetric_jacobi(std::move(a), max_sweeps);
  return eigen_symmetric_tridiagonal(std::move(a));
}

SymmetricEigen eigen_symmetric_jacobi(Matrix a, int max_sweeps) {
  if (!a.square()) throw std::invalid_argument("eigen_symmetric: non-square");
  a.symmetrize();
  const std::size_t n = a.rows();
  Matrix v = Matrix::identity(n);
  if (n == 0) return {Vector{}, v};

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) off += a(i, j) * a(i, j);
    }
    // The convergence threshold scales with the dimension; the size_t ->
    // double conversion is exact for any practical n (< 2^53).
    const double dim = static_cast<double>(n);
    if (std::sqrt(off) <= 1e-15 * std::max(a.max_abs(), 1e-300) * dim) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (exact_zero(apq)) continue;
        const double app = a(p, p);
        const double aqq = a(q, q);
        // Classic Jacobi rotation annihilating a(p,q).
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  Vector values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = a(i, i);
  return sorted_with_sign_convention(std::move(values), std::move(v));
}

SymmetricEigen eigen_symmetric_tridiagonal(Matrix a) {
  if (!a.square()) throw std::invalid_argument("eigen_symmetric: non-square");
  a.symmetrize();
  const std::size_t n = a.rows();
  if (n == 0) return {Vector{}, Matrix()};

  // tred2: Householder reduction to tridiagonal form with accumulated
  // transformations (EISPACK/JAMA port). v holds the transformations; d/e
  // the diagonal and subdiagonal.
  Matrix v = std::move(a);
  Vector d(n), e(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) d[j] = v(n - 1, j);

  for (std::size_t i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::abs(d[k]);
    if (exact_zero(scale)) {
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
        v(j, i) = 0.0;
      }
    } else {
      for (std::size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (std::size_t j = 0; j < i; ++j) e[j] = 0.0;

      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        v(j, i) = f;
        g = e[j] + v(j, j) * f;
        for (std::size_t k = j + 1; k <= i - 1; ++k) {
          g += v(k, j) * d[k];
          e[k] += v(k, j) * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        g = e[j];
        for (std::size_t k = j; k <= i - 1; ++k) {
          v(k, j) -= f * e[k] + g * d[k];
        }
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate transformations.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    v(n - 1, i) = v(i, i);
    v(i, i) = 1.0;
    const double h = d[i + 1];
    if (!exact_zero(h)) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = v(k, i + 1) / h;
      for (std::size_t j = 0; j <= i; ++j) {
        double g = 0.0;
        for (std::size_t k = 0; k <= i; ++k) g += v(k, i + 1) * v(k, j);
        for (std::size_t k = 0; k <= i; ++k) v(k, j) -= g * d[k];
      }
    }
    for (std::size_t k = 0; k <= i; ++k) v(k, i + 1) = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = v(n - 1, j);
    v(n - 1, j) = 0.0;
  }
  v(n - 1, n - 1) = 1.0;
  e[0] = 0.0;

  // tql2: implicit-shift QL iteration on the tridiagonal form.
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  double f = 0.0;
  double tst1 = 0.0;
  const double eps = std::pow(2.0, -52.0);
  for (std::size_t l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
    std::size_t m = l;
    while (m < n) {
      if (std::abs(e[m]) <= eps * tst1) break;
      ++m;
    }
    if (m > l) {
      int iter = 0;
      do {
        if (++iter > 80) {
          throw std::runtime_error("eigen_symmetric: QL failed to converge");
        }
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * e[l]);
        double r = std::hypot(p, 1.0);
        if (p < 0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        double h = g - d[l];
        for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
        f += h;

        p = d[m];
        double c = 1.0, c2 = c, c3 = c;
        const double el1 = e[l + 1];
        double s = 0.0, s2 = 0.0;
        for (std::size_t i = m; i-- > l;) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = std::hypot(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          for (std::size_t k = 0; k < n; ++k) {
            h = v(k, i + 1);
            v(k, i + 1) = s * v(k, i) + c * h;
            v(k, i) = c * v(k, i) - s * h;
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::abs(e[l]) > eps * tst1);
    }
    d[l] += f;
    e[l] = 0.0;
  }

  return sorted_with_sign_convention(std::move(d), std::move(v));
}

SymmetricEigen eigen_symmetric_generalized(const Matrix& a, const Matrix& b,
                                           int max_sweeps) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("generalized eigen: dimension mismatch");
  }
  CholeskyFactorization chol(b);
  // Form M = L^{-1} A L^{-T} in one n x n matrix; eigenvectors of the
  // original problem are x = L^{-T} y.
  const std::size_t n = a.rows();
  Matrix m(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    m.set_col(j, chol.solve_lower(a.col(j)));
  }
  // m now holds L^{-1} A. Because A is symmetric, row j of
  // (L^{-1} A) L^{-T} is L^{-1} applied to row j of L^{-1} A, so each row
  // is replaced by its own solve.
  for (std::size_t j = 0; j < n; ++j) {
    const Vector r = chol.solve_lower(m.row(j));
    std::copy(r.begin(), r.end(), &m(j, 0));
  }

  SymmetricEigen eig = eigen_symmetric(std::move(m), max_sweeps);
  // Back-transform each vector in place.
  for (std::size_t k = 0; k < n; ++k) {
    eig.vectors.set_col(k, chol.solve_lower_transposed(eig.vectors.col(k)));
  }
  return eig;
}

}  // namespace lcsf::numeric
