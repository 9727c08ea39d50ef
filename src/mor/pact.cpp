#include "mor/pact.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "numeric/cholesky.hpp"
#include "numeric/eigen_sym.hpp"
#include "numeric/lu.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace lcsf::mor {

using numeric::CholeskyFactorization;
using numeric::Matrix;
using numeric::Vector;

namespace {

struct Partition {
  std::size_t np, ni;
  Matrix gpp, gpi, gii;
  Matrix cpp, cpi, cii;
};

/// Copy the pencil's blocks out, freeing the full G once its blocks are
/// out and the full C on return, so at most three dense n x n matrices
/// live here.
Partition partition(interconnect::PortedPencil pencil) {
  const std::size_t n = pencil.g.rows();
  const std::size_t np = pencil.num_ports;
  if (np == 0 || np > n) {
    throw std::invalid_argument("pact: invalid port count");
  }
  const std::size_t ni = n - np;
  Partition p;
  p.np = np;
  p.ni = ni;
  p.gpp = pencil.g.block(0, 0, np, np);
  p.gpi = pencil.g.block(0, np, np, ni);
  p.gii = pencil.g.block(np, np, ni, ni);
  pencil.g = Matrix();
  p.cpp = pencil.c.block(0, 0, np, np);
  p.cpi = pencil.c.block(0, np, np, ni);
  p.cii = pencil.c.block(np, np, ni, ni);
  return p;
}

/// Apply the first PACT congruence V = [I 0; X I], X = -Gii^{-1} Gip.
/// Returns A (reduced port conductance) plus the transformed C blocks.
struct FirstCongruence {
  Matrix a;       // Gpp - Gpi Gii^{-1} Gip
  Matrix cpp_t;   // transformed port C block
  Matrix cpi_t;   // transformed port/internal C coupling
  Matrix x;       // Ni x Np
};

/// X = -Gii^{-1} Gip; Gii SPD for the effective loads we build.
Matrix solve_x(const Partition& p) {
  if (p.ni == 0) return Matrix(0, p.np);
  CholeskyFactorization gii(p.gii);
  const Matrix gip = p.gpi.transposed();
  Matrix x(p.ni, p.np);
  for (std::size_t j = 0; j < p.np; ++j) {
    Vector col = gii.solve(gip.col(j));
    for (double& v : col) v = -v;
    x.set_col(j, col);
  }
  return x;
}

FirstCongruence first_congruence(const Partition& p, Matrix x) {
  FirstCongruence f;
  if (p.ni == 0) {
    f.a = p.gpp;
    f.cpp_t = p.cpp;
    f.cpi_t = Matrix(p.np, 0);
    f.x = std::move(x);
    return f;
  }
  f.x = std::move(x);
  f.a = p.gpp + p.gpi * f.x;
  // C' = V^T C V with V = [I 0; X I]:
  //   C'_pp = Cpp + Cpi X + X^T Cip + X^T Cii X
  //   C'_pi = Cpi + X^T Cii
  const Matrix xt = f.x.transposed();
  f.cpp_t = p.cpp + p.cpi * f.x + xt * p.cpi.transposed() +
            xt * (p.cii * f.x);
  f.cpp_t.symmetrize();
  f.cpi_t = p.cpi + xt * p.cii;
  return f;
}

/// The q internal modes PACT keeps, in rank order.
struct Modes {
  Matrix u;    // Ni x q eigenvectors
  Vector lam;  // q eigenvalues (time constants)
};

Modes select_modes(const Partition& p, std::size_t q) {
  // Internal dynamics: Cii u = lambda Gii u; vectors Gii-orthonormal.
  obs::add_counter("mor.pact.eigensolves");
  const auto eig = numeric::eigen_symmetric_generalized(p.cii, p.gii);

  // Slowest first: lambda_k is the time constant of internal pole
  // -1/lambda.
  std::vector<std::size_t> order(p.ni);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a2, std::size_t b2) {
                     return eig.values[a2] > eig.values[b2];
                   });

  Modes m{Matrix(p.ni, q), Vector(q)};
  for (std::size_t k = 0; k < q; ++k) {
    m.u.set_col(k, eig.vectors.col(order[k]));
    m.lam[k] = eig.values[order[k]];
  }
  return m;
}

/// Append the entries of `m` whose bit pattern is not +0.0 (so -0.0 is
/// kept) as (offset + flat index, value) pairs.
void append_nonzeros(const Matrix& m, std::size_t offset,
                     std::vector<std::size_t>& index,
                     std::vector<double>& value) {
  const std::size_t n = m.rows() * m.cols();
  for (std::size_t k = 0; k < n; ++k) {
    const double v = m.data()[k];
    if (std::bit_cast<std::uint64_t>(v) == 0) continue;
    index.push_back(offset + k);
    value.push_back(v);
  }
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

ReducedModel assemble(const Matrix& a, const Matrix& cpp_t, const Matrix& r,
                      const Matrix& d, const Matrix& e, std::size_t np) {
  const std::size_t q = d.rows();
  ReducedModel m;
  m.num_ports = np;
  m.g = Matrix(np + q, np + q);
  m.c = Matrix(np + q, np + q);
  m.g.set_block(0, 0, a);
  m.g.set_block(np, np, d);
  m.c.set_block(0, 0, cpp_t);
  m.c.set_block(0, np, r);
  m.c.set_block(np, 0, r.transposed());
  m.c.set_block(np, np, e);
  m.b = Matrix(np + q, np);
  for (std::size_t p = 0; p < np; ++p) m.b(p, p) = 1.0;
  return m;
}

}  // namespace

bool PactMemo::Key::operator==(const Key& o) const {
  return internal_modes == o.internal_modes && np == o.np && ni == o.ni &&
         same_bits(index, o.index) && same_bits(value, o.value);
}

PactResult pact_reduce(interconnect::PortedPencil pencil,
                       const PactOptions& opt, PactMemo* memo) {
  obs::ScopedSpan span("mor.pact");
  const Partition p = partition(std::move(pencil));
  const std::size_t q = std::min(opt.internal_modes, p.ni);

  if (p.ni == 0 || q == 0) {
    const FirstCongruence f = first_congruence(p, solve_x(p));
    PactResult res;
    res.model = assemble(f.a, f.cpp_t, Matrix(p.np, 0), Matrix(0, 0),
                         Matrix(0, 0), p.np);
    res.basis = PactBasis{Matrix(p.ni, 0), p.np};
    return res;
  }

  // X, the eigenpairs and the mode order are functions of the memo key;
  // A, C'pp and R are always recomputed from this pencil.
  PactMemo::Key key;
  const PactMemo::Entry* hit = nullptr;
  if (memo != nullptr) {
    key.internal_modes = opt.internal_modes;
    key.np = p.np;
    key.ni = p.ni;
    std::size_t offset = 0;
    for (const Matrix* m : {&p.gii, &p.cii, &p.gpi, &p.cpi}) {
      append_nonzeros(*m, offset, key.index, key.value);
      offset += m->rows() * m->cols();
    }
    for (const PactMemo::Entry& e : memo->entries_) {
      if (e.key == key) {
        hit = &e;
        break;
      }
    }
  }

  FirstCongruence f;
  Modes modes;
  if (hit != nullptr) {
    obs::add_counter("mor.pact.memo_hits");
    f = first_congruence(p, hit->x);
    modes = {hit->u, hit->lam};
  } else {
    f = first_congruence(p, solve_x(p));
    modes = select_modes(p, q);
    if (memo != nullptr) {
      memo->entries_.push_back({std::move(key), f.x, modes.u, modes.lam});
    }
  }

  // Reduced blocks: D = U^T Gii U = I, E = U^T Cii U = diag(lam),
  // R = C'_pi U.
  const Matrix r = f.cpi_t * modes.u;
  PactResult res;
  res.model = assemble(f.a, f.cpp_t, r, Matrix::identity(q),
                       Matrix::diagonal(modes.lam), p.np);
  res.basis = PactBasis{std::move(modes.u), p.np};
  return res;
}

ReducedModel pact_reduce_with_basis(interconnect::PortedPencil pencil,
                                    const PactBasis& basis) {
  const Partition p = partition(std::move(pencil));
  if (p.np != basis.num_ports || p.ni != basis.u.rows()) {
    throw std::invalid_argument("pact_reduce_with_basis: basis mismatch");
  }
  const FirstCongruence f = first_congruence(p, solve_x(p));
  const std::size_t q = basis.u.cols();
  if (q == 0) {
    return assemble(f.a, f.cpp_t, Matrix(p.np, 0), Matrix(0, 0), Matrix(0, 0),
                    p.np);
  }
  // Exact congruence with the frozen internal basis: the internal blocks
  // are no longer exactly I/diagonal for a perturbed pencil, which is fine.
  const Matrix ut = basis.u.transposed();
  const Matrix d = ut * (p.gii * basis.u);
  const Matrix e = ut * (p.cii * basis.u);
  const Matrix r = f.cpi_t * basis.u;
  return assemble(f.a, f.cpp_t, r, d, e, p.np);
}

}  // namespace lcsf::mor
