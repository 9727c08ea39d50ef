#include "mor/reduced_model.hpp"

#include <stdexcept>

#include "numeric/lu.hpp"

namespace lcsf::mor {

using numeric::Complex;
using numeric::ComplexLu;
using numeric::ComplexMatrix;
using numeric::LuFactorization;
using numeric::Matrix;

namespace {

/// Z = B^T X over the first num_ports columns of B, real or complex X.
template <typename M>
M port_rows(const Matrix& b, const M& x, std::size_t num_ports) {
  M z(num_ports, num_ports);
  for (std::size_t i = 0; i < num_ports; ++i) {
    for (std::size_t j = 0; j < num_ports; ++j) {
      decltype(x(0, 0)) sum{};
      for (std::size_t r = 0; r < b.rows(); ++r) sum += b(r, i) * x(r, j);
      z(i, j) = sum;
    }
  }
  return z;
}

Matrix moments_impl(const Matrix& g, const Matrix& c, const Matrix& b,
                    std::size_t num_ports, std::size_t k) {
  LuFactorization lu(g);
  Matrix x = lu.solve(b);  // G^{-1} B
  for (std::size_t i = 0; i < k; ++i) {
    x = lu.solve(c * x);
    x *= -1.0;  // (-G^{-1} C)^i applied
  }
  return port_rows(b, x, num_ports);
}

Matrix ports_first_b(std::size_t n, std::size_t num_ports) {
  Matrix b(n, num_ports);
  for (std::size_t p = 0; p < num_ports; ++p) b(p, p) = 1.0;
  return b;
}

}  // namespace

ComplexMatrix ReducedModel::port_impedance(Complex s) const {
  ComplexLu lu(numeric::complex_pencil(g, c, s));
  const ComplexMatrix rhs{b};
  return port_rows(b, lu.solve(rhs), num_ports);  // B^T (G+sC)^{-1} B
}

Matrix ReducedModel::moment(std::size_t k) const {
  return moments_impl(g, c, b, num_ports, k);
}

ComplexMatrix pencil_port_impedance(const Matrix& g, const Matrix& c,
                                    std::size_t num_ports, Complex s) {
  if (num_ports > g.rows()) {
    throw std::invalid_argument("pencil_port_impedance: too many ports");
  }
  ReducedModel m{g, c, ports_first_b(g.rows(), num_ports), num_ports};
  return m.port_impedance(s);
}

Matrix pencil_moment(const Matrix& g, const Matrix& c, std::size_t num_ports,
                     std::size_t k) {
  return moments_impl(g, c, ports_first_b(g.rows(), num_ports), num_ports, k);
}

}  // namespace lcsf::mor
