// Dense real matrix/vector kernel used by every other module.
//
// The framework's linear systems are small-to-medium dense blocks (MNA
// matrices of logic stages, reduced-order macromodels, Krylov bases), so a
// straightforward row-major dense matrix with value semantics is the right
// substrate: no sparse bookkeeping, predictable memory, and trivially
// testable numerics.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

namespace lcsf::numeric {

using Vector = std::vector<double>;

/// Row-major dense matrix of doubles with value semantics.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Construct from nested initializer list: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  static Matrix identity(std::size_t n);
  /// Diagonal matrix from a vector.
  static Matrix diagonal(const Vector& d);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }
  bool square() const { return rows_ == cols_; }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  /// Bounds-checked access (used by tests and debug paths).
  double& at(std::size_t i, std::size_t j);
  double at(std::size_t i, std::size_t j) const;

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Resident heap footprint (capacity, not size): the accounting unit of
  /// byte-budgeted caches holding characterized artifacts.
  std::size_t memory_bytes() const {
    return sizeof(*this) + data_.capacity() * sizeof(double);
  }

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  /// this += a * x without materializing the scaled temporary (through
  /// axpy_batch). Produces bitwise-identical results to `*this += a * x`
  /// (same multiply/add per element, and the build does not enable FMA
  /// contraction).
  Matrix& axpy(double a, const Matrix& x);

  /// Reshape to rows x cols and set every entry to fill, reusing the
  /// existing heap block whenever capacity allows. The workspace-pooling
  /// primitive: hot loops call assign() instead of constructing a Matrix.
  void assign(std::size_t rows, std::size_t cols, double fill = 0.0);

  friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
  friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
  friend Matrix operator*(Matrix lhs, double s) { return lhs *= s; }
  friend Matrix operator*(double s, Matrix rhs) { return rhs *= s; }

  /// Matrix-matrix product (dimensions checked): gemm_into into a new
  /// matrix.
  friend Matrix operator*(const Matrix& a, const Matrix& b);
  /// Matrix-vector product: mul_into into a new vector.
  friend Vector operator*(const Matrix& a, const Vector& x);

  Matrix transposed() const;

  /// Extract the sub-block rows [r0, r0+nr) x cols [c0, c0+nc).
  Matrix block(std::size_t r0, std::size_t c0, std::size_t nr,
               std::size_t nc) const;
  /// Overwrite the sub-block starting at (r0, c0) with b.
  void set_block(std::size_t r0, std::size_t c0, const Matrix& b);

  Vector row(std::size_t i) const;
  Vector col(std::size_t j) const;
  void set_col(std::size_t j, const Vector& v);

  /// Frobenius norm.
  double norm() const;
  /// Largest absolute entry.
  double max_abs() const;

  /// Force exact symmetry: A <- (A + A^T)/2. Used after finite-difference
  /// perturbations of symmetric MNA matrices.
  void symmetrize();

  std::string to_string(int precision = 4) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

std::ostream& operator<<(std::ostream& os, const Matrix& m);

/// x^T y
double dot(const Vector& x, const Vector& y);
/// Euclidean norm.
double norm(const Vector& x);
/// Largest absolute entry; 0 for empty vectors, NaN if any entry is NaN.
double max_abs(const Vector& x);
/// y <- y + a*x (through axpy_batch)
void axpy(double a, const Vector& x, Vector& y);

/// c <- a * b, reusing c's storage (c must not alias a or b): the one
/// dense matrix product, i-k-j order skipping exact-zero a(i, k).
/// operator*(Matrix, Matrix) is this into a fresh matrix.
void gemm_into(const Matrix& a, const Matrix& b, Matrix& c);
/// y <- a * x, reusing y's storage (y must not alias x), ascending-j
/// accumulation per row. operator*(Matrix, Vector) is this into a fresh
/// vector.
void mul_into(const Matrix& a, const Vector& x, Vector& y);

// ---- Strided-batch (SoA) kernels for the batched Monte-Carlo hot path.
//
// Lane-inner layout: element i of lane l lives at soa[i * lanes + l], so
// the innermost loop runs over independent lanes with unit stride (see
// numeric/simd.hpp). Each kernel performs, per lane, exactly the IEEE
// operation sequence of its scalar counterpart, so batched results are
// bitwise identical to running the scalar kernel per lane.

/// y[k] += a * x[k] over n contiguous entries -- the Matrix::axpy /
/// axpy(Vector) inner loop on raw SoA storage.
void axpy_batch(double a, const double* x, double* y, std::size_t n);

/// Batched mat-vec over the first `lanes` of `stride`-wide SoA rows with
/// per-lane matrices: y[i*stride+l] = sum_j a[l](i,j) * x[j*stride+l],
/// accumulated in ascending j per lane (the mul_into order). All a[l]
/// must be rows x cols.
void mul_into_batch(const Matrix* const* a, std::size_t rows,
                    std::size_t cols, const double* x, double* y,
                    std::size_t lanes, std::size_t stride);

/// Congruence product X^T A X — the kernel of projection-based MOR.
Matrix congruence(const Matrix& x, const Matrix& a);

/// Relative difference ||a-b|| / max(||a||, ||b||, eps) in Frobenius norm.
double relative_difference(const Matrix& a, const Matrix& b);

}  // namespace lcsf::numeric
