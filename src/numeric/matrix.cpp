#include "numeric/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "numeric/fp_compare.hpp"
#include "numeric/simd.hpp"

namespace lcsf::numeric {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

double& Matrix::at(std::size_t i, std::size_t j) {
  if (i >= rows_ || j >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(i, j);
}

double Matrix::at(std::size_t i, std::size_t j) const {
  if (i >= rows_ || j >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(i, j);
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
    throw std::invalid_argument("Matrix +=: dimension mismatch");
  }
  for (std::size_t k = 0; k < data_.size(); ++k) data_[k] += rhs.data_[k];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
    throw std::invalid_argument("Matrix -=: dimension mismatch");
  }
  for (std::size_t k = 0; k < data_.size(); ++k) data_[k] -= rhs.data_[k];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix& Matrix::axpy(double a, const Matrix& x) {
  if (rows_ != x.rows_ || cols_ != x.cols_) {
    throw std::invalid_argument("Matrix::axpy: dimension mismatch");
  }
  axpy_batch(a, x.data(), data(), data_.size());
  return *this;
}

void Matrix::assign(std::size_t rows, std::size_t cols, double fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  Matrix c;
  gemm_into(a, b, c);
  return c;
}

Vector operator*(const Matrix& a, const Vector& x) {
  Vector y;
  mul_into(a, x, y);
  return y;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  }
  return t;
}

Matrix Matrix::block(std::size_t r0, std::size_t c0, std::size_t nr,
                     std::size_t nc) const {
  if (r0 + nr > rows_ || c0 + nc > cols_) {
    throw std::out_of_range("Matrix::block");
  }
  Matrix b(nr, nc);
  for (std::size_t i = 0; i < nr; ++i) {
    for (std::size_t j = 0; j < nc; ++j) b(i, j) = (*this)(r0 + i, c0 + j);
  }
  return b;
}

void Matrix::set_block(std::size_t r0, std::size_t c0, const Matrix& b) {
  if (r0 + b.rows() > rows_ || c0 + b.cols() > cols_) {
    throw std::out_of_range("Matrix::set_block");
  }
  for (std::size_t i = 0; i < b.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      (*this)(r0 + i, c0 + j) = b(i, j);
    }
  }
}

Vector Matrix::row(std::size_t i) const {
  Vector v(cols_);
  for (std::size_t j = 0; j < cols_; ++j) v[j] = (*this)(i, j);
  return v;
}

Vector Matrix::col(std::size_t j) const {
  Vector v(rows_);
  for (std::size_t i = 0; i < rows_; ++i) v[i] = (*this)(i, j);
  return v;
}

void Matrix::set_col(std::size_t j, const Vector& v) {
  if (v.size() != rows_) throw std::invalid_argument("Matrix::set_col");
  for (std::size_t i = 0; i < rows_; ++i) (*this)(i, j) = v[i];
}

double Matrix::norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

void Matrix::symmetrize() {
  if (!square()) throw std::logic_error("symmetrize: non-square matrix");
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = i + 1; j < cols_; ++j) {
      const double avg = 0.5 * ((*this)(i, j) + (*this)(j, i));
      (*this)(i, j) = avg;
      (*this)(j, i) = avg;
    }
  }
}

std::string Matrix::to_string(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  for (std::size_t i = 0; i < rows_; ++i) {
    os << (i == 0 ? "[" : " ");
    for (std::size_t j = 0; j < cols_; ++j) {
      os << (*this)(i, j) << (j + 1 < cols_ ? ", " : "");
    }
    os << (i + 1 < rows_ ? ";\n" : "]");
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  return os << m.to_string();
}

double dot(const Vector& x, const Vector& y) {
  if (x.size() != y.size()) throw std::invalid_argument("dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

double norm(const Vector& x) { return std::sqrt(dot(x, x)); }

double max_abs(const Vector& x) {
  double m = 0.0;
  for (double v : x) {
    if (std::isnan(v)) return std::abs(v);  // std::max would drop it
    m = std::max(m, std::abs(v));
  }
  return m;
}

void axpy(double a, const Vector& x, Vector& y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
  axpy_batch(a, x.data(), y.data(), x.size());
}

void gemm_into(const Matrix& a, const Matrix& b, Matrix& c) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("gemm_into: dimension mismatch");
  }
  c.assign(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (exact_zero(aik)) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aik * b(k, j);
      }
    }
  }
}

void mul_into(const Matrix& a, const Vector& x, Vector& y) {
  if (a.cols() != x.size()) {
    throw std::invalid_argument("mul_into: dimension mismatch");
  }
  y.resize(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * x[j];
    y[i] = s;
  }
}

void axpy_batch(double a, const double* x, double* y, std::size_t n) {
  LCSF_SIMD_LOOP
  for (std::size_t k = 0; k < n; ++k) y[k] += a * x[k];
}

void mul_into_batch(const Matrix* const* a, std::size_t rows,
                    std::size_t cols, const double* x, double* y,
                    std::size_t lanes, std::size_t stride) {
  // Per lane this is exactly mul_into's i-outer / ascending-j accumulation;
  // lanes are independent, so the lane-inner reorder cannot change any bit.
  for (std::size_t i = 0; i < rows; ++i) {
    double* yi = y + i * stride;
    LCSF_SIMD_LOOP
    for (std::size_t l = 0; l < lanes; ++l) yi[l] = 0.0;
    for (std::size_t j = 0; j < cols; ++j) {
      const double* xj = x + j * stride;
      for (std::size_t l = 0; l < lanes; ++l) {
        yi[l] += (*a[l])(i, j) * xj[l];
      }
    }
  }
}

Matrix congruence(const Matrix& x, const Matrix& a) {
  return x.transposed() * (a * x);
}

double relative_difference(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("relative_difference: dimension mismatch");
  }
  const double denom = std::max({a.norm(), b.norm(), 1e-300});
  return (a - b).norm() / denom;
}

}  // namespace lcsf::numeric
