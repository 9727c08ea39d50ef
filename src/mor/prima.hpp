// PRIMA: Passive Reduced-order Interconnect Macromodeling Algorithm
// (Odabasioglu et al., TCAD 1998). Block Arnoldi Krylov projection with a
// congruence transform; the nominal reduction of an RC pencil is passive
// and moment-matching.
//
// Used alongside PACT as the second projection method named by the paper
// (Sec. 2), and as the reference reduction in tests/ablation benches.
#pragma once

#include <cstddef>

#include "interconnect/coupled_lines.hpp"
#include "mor/reduced_model.hpp"

namespace lcsf::mor {

struct PrimaOptions {
  std::size_t block_moments = 2;  ///< Krylov block iterations (q = Np * this)
};

struct PrimaResult {
  ReducedModel model;
  numeric::Matrix projection;  ///< n x q orthonormal basis X
};

/// Reduce a ports-first pencil with block Arnoldi about s = 0 (the
/// moments of G^{-1} C; G must be nonsingular).
PrimaResult prima_reduce(const interconnect::PortedPencil& pencil,
                         const PrimaOptions& opt);

/// Congruence-project a (perturbed) pencil through a frozen basis X.
ReducedModel prima_project(const interconnect::PortedPencil& pencil,
                           const numeric::Matrix& projection);

}  // namespace lcsf::mor
