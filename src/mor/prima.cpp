#include "mor/prima.hpp"

#include <stdexcept>

#include "numeric/lu.hpp"
#include "numeric/orthonormal.hpp"
#include "obs/span.hpp"

namespace lcsf::mor {

using numeric::Matrix;

namespace {

Matrix port_injection(std::size_t n, std::size_t np) {
  Matrix b(n, np);
  for (std::size_t p = 0; p < np; ++p) b(p, p) = 1.0;
  return b;
}

}  // namespace

PrimaResult prima_reduce(const interconnect::PortedPencil& pencil,
                         const PrimaOptions& opt) {
  obs::ScopedSpan span("mor.prima");
  const std::size_t n = pencil.g.rows();
  const std::size_t np = pencil.num_ports;
  if (np == 0 || np > n) throw std::invalid_argument("prima: bad ports");
  if (opt.block_moments == 0) {
    throw std::invalid_argument("prima: need >= 1 block moment");
  }

  // Factor G once; each Krylov block is one back-substitution.
  const numeric::LuFactorization lu(pencil.g);

  const Matrix b = port_injection(n, np);
  Matrix basis(n, 0);
  Matrix block = lu.solve(b);  // R = G^{-1} B
  for (std::size_t it = 0; it < opt.block_moments; ++it) {
    auto res = numeric::orthonormalize(block, basis.cols() ? &basis : nullptr);
    if (res.rank == 0) break;  // Krylov space exhausted
    // Append new vectors to the basis.
    Matrix grown(n, basis.cols() + res.rank);
    if (basis.cols() > 0) grown.set_block(0, 0, basis);
    grown.set_block(0, basis.cols(), res.q);
    basis = std::move(grown);
    if (it + 1 < opt.block_moments) {
      block = lu.solve(pencil.c * res.q);
      block *= -1.0;  // A = -G^{-1} C
    }
  }
  if (basis.cols() == 0) {
    throw std::runtime_error("prima: empty Krylov basis");
  }

  PrimaResult out;
  out.projection = basis;
  out.model = prima_project(pencil, basis);
  return out;
}

ReducedModel prima_project(const interconnect::PortedPencil& pencil,
                           const Matrix& projection) {
  const std::size_t n = pencil.g.rows();
  if (projection.rows() != n) {
    throw std::invalid_argument("prima_project: basis mismatch");
  }
  ReducedModel m;
  m.num_ports = pencil.num_ports;
  m.g = numeric::congruence(projection, pencil.g);
  m.c = numeric::congruence(projection, pencil.c);
  m.g.symmetrize();
  m.c.symmetrize();
  m.b = projection.transposed() *
        port_injection(n, pencil.num_ports);
  return m;
}

}  // namespace lcsf::mor
