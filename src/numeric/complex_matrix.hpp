// Minimal dense complex matrix; numeric::ComplexLu (lu.hpp) factors it.
//
// Needed in two places: evaluating port impedances Z(s) at complex
// frequencies, and inverting the (complex) eigenvector matrix S during the
// pole/residue transformation (paper Eq. 16-20).
#pragma once

#include <complex>
#include <vector>

#include "numeric/matrix.hpp"

namespace lcsf::numeric {

using Complex = std::complex<double>;
using CVector = std::vector<Complex>;

class ComplexMatrix {
 public:
  ComplexMatrix() = default;
  ComplexMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols) {}

  /// Promote a real matrix.
  explicit ComplexMatrix(const Matrix& m);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Reshape to rows x cols with all entries zero, reusing the heap block
  /// when capacity allows (workspace-pooling primitive).
  void assign(std::size_t rows, std::size_t cols);

  Complex& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  Complex operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  CVector data_;
};

/// a + scale * b for real matrices promoted to complex (used for G + sC).
ComplexMatrix complex_pencil(const Matrix& g, const Matrix& c, Complex s);

}  // namespace lcsf::numeric
