// Nodal assembly of the interconnect pencil.
//
// Builds the (G, C) matrix pencil of paper Eq. (1) from an R/C netlist.
// Ground is eliminated. The MOSFETs are *not* stamped here -- they are
// the nonlinear part that the simulators (spice::TransientSimulator,
// teta::StageEngine) linearize themselves, each in its own way. That
// split is the core of the linear-centric methodology.
#pragma once

#include "circuit/netlist.hpp"
#include "numeric/matrix.hpp"

namespace lcsf::circuit {

/// Node-only (G, C) pencil for interconnect macromodeling: requires the
/// netlist to contain only R and C elements. Row i corresponds to node i+1.
struct NodePencil {
  numeric::Matrix g;
  numeric::Matrix c;
};
NodePencil build_node_pencil(const Netlist& nl);

}  // namespace lcsf::circuit
