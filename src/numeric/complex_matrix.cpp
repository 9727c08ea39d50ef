#include "numeric/complex_matrix.hpp"

#include <stdexcept>

namespace lcsf::numeric {

ComplexMatrix::ComplexMatrix(const Matrix& m)
    : rows_(m.rows()), cols_(m.cols()), data_(m.rows() * m.cols()) {
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) (*this)(i, j) = m(i, j);
  }
}

void ComplexMatrix::assign(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, Complex{});
}

ComplexMatrix complex_pencil(const Matrix& g, const Matrix& c, Complex s) {
  if (g.rows() != c.rows() || g.cols() != c.cols()) {
    throw std::invalid_argument("complex_pencil: dimension mismatch");
  }
  ComplexMatrix m(g.rows(), g.cols());
  for (std::size_t i = 0; i < g.rows(); ++i) {
    for (std::size_t j = 0; j < g.cols(); ++j) {
      m(i, j) = g(i, j) + s * c(i, j);
    }
  }
  return m;
}

}  // namespace lcsf::numeric
