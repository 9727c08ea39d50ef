// PACT: Pole Analysis via Congruence Transformations (Kerns & Yang, TCAD
// 1997) -- the reduction algorithm the paper uses in Example 1 and the one
// whose output has exactly the block structure of paper Eq. (5):
//   Gr = [A 0; 0 D],   Cr = [B R; R^T E].
//
// Steps: (1) a congruence eliminates the port/internal conductance
// coupling, (2) the internal (C_II, G_II) generalized symmetric
// eigenproblem diagonalizes the internal dynamics, (3) the slowest internal
// modes are kept. Both steps are congruences, so the *nominal* reduced
// model of an RC pencil is provably passive -- it is the first-order
// variational expansion (variational.hpp) that loses this property.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "interconnect/coupled_lines.hpp"
#include "mor/reduced_model.hpp"

namespace lcsf::mor {

/// PACT keeps the q slowest internal modes (largest time constants).
struct PactOptions {
  std::size_t internal_modes = 4;  ///< q, the reduced internal order
};

/// The reusable part of a nominal reduction: the projection that maps the
/// original pencil to the reduced one. Applying it to a *perturbed* pencil
/// gives the pre-characterization samples for the variational library
/// without re-solving (and re-ordering) the eigenproblem.
struct PactBasis {
  numeric::Matrix u;  ///< Ni x q internal eigenbasis kept at nominal
  std::size_t num_ports = 0;
};

struct PactResult {
  ReducedModel model;
  PactBasis basis;
};

class PactMemo;

/// Reduce a ports-first pencil. Requires the internal conductance block to
/// be SPD (every internal node must have a resistive path to a port or
/// ground) -- true for the effective loads of the framework because driver
/// output conductances are folded in first (Table 1, step 2).
///
/// The pencil is consumed: its full G and C are freed as soon as their
/// blocks are partitioned, so move it in.
///
/// With a `memo`, an exact repeat of the pencil's internal half reuses the
/// stored X, eigenvectors and mode order; the result is bitwise identical
/// to an unmemoized call.
PactResult pact_reduce(interconnect::PortedPencil pencil,
                       const PactOptions& opt, PactMemo* memo = nullptr);

/// Exact-match memo of the pencil-internal half of pact_reduce.
///
/// X = -Gii^{-1} Gip, the internal eigenpairs and the mode order depend
/// only on (Gii, Cii, Gpi, Cpi) and the options -- never on the port
/// blocks Gpp, Cpp. Effective loads that share a wire but differ in driver
/// chord conductance (G(0,0)) or receiver cap (the far port's C entry)
/// therefore share one eigensolve. The key is the options plus the exact
/// bit patterns of the nonzeros of those four blocks (so -0.0 != 0.0); an
/// entry keeps only that sparse key and the Ni x Np / Ni x q / q results,
/// never an n x n block. Not thread-safe: own one per characterization
/// run, on the stack.
class PactMemo {
 public:
  std::size_t size() const { return entries_.size(); }

 private:
  friend PactResult pact_reduce(interconnect::PortedPencil,
                                const PactOptions&, PactMemo*);

  struct Key {
    std::size_t internal_modes = 0;
    std::size_t np = 0, ni = 0;
    std::vector<std::size_t> index;  ///< flat offsets into Gii|Cii|Gpi|Cpi
    std::vector<double> value;       ///< the entries at those offsets
    bool operator==(const Key& o) const;
  };
  struct Entry {
    Key key;
    numeric::Matrix x;    ///< Ni x Np
    numeric::Matrix u;    ///< Ni x q selected eigenvectors
    numeric::Vector lam;  ///< q selected eigenvalues
  };
  std::vector<Entry> entries_;
};

/// Reduce a (perturbed) pencil re-using a nominal basis. The port/internal
/// congruence X(w) = -Gii^{-1} Gip is recomputed exactly for this pencil;
/// only the internal eigenbasis is frozen. The result is still an exact
/// congruence of the given pencil, which is consumed like pact_reduce's.
ReducedModel pact_reduce_with_basis(interconnect::PortedPencil pencil,
                                    const PactBasis& basis);

}  // namespace lcsf::mor
