// Builders for coupled parallel-wire interconnect structures.
//
// Example 2 (Fig. 4) uses an array of identical minimum-width parallel
// lines segmented "at each micron length"; Example 3 inserts such bundles
// between the logic stages of a path. The builder produces a pure-RC
// netlist plus the port bookkeeping the MOR and simulation layers need.
#pragma once

#include <cstddef>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/technology.hpp"
#include "interconnect/sakurai.hpp"
#include "numeric/matrix.hpp"

namespace lcsf::interconnect {

struct CoupledLineSpec {
  std::size_t num_lines = 4;
  double length = 100e-6;        ///< [m]
  double segment_length = 1e-6;  ///< [m] (paper: 1 um)
  circuit::WireGeometry geometry;
};

/// A built bundle: netlist contains only R/C elements. Near-end node k
/// drives line k; far-end node k is its receiver end.
struct CoupledLineBundle {
  circuit::Netlist netlist;
  std::vector<circuit::NodeId> near_ends;
  std::vector<circuit::NodeId> far_ends;
  std::size_t segments = 0;

  /// All ports in MOR order: near ends first, then far ends.
  std::vector<circuit::NodeId> ports() const;
};

/// Build the bundle. Each line is a ladder of `ceil(length/segment_length)`
/// RC segments; coupling capacitors connect laterally adjacent nodes of
/// neighbouring lines.
CoupledLineBundle build_coupled_lines(const CoupledLineSpec& spec);

/// The interconnect (G, C) pencil of paper Eq. (1) with ports in the first
/// rows, which is the ordering PACT and the effective-load construction
/// expect. Ground is eliminated.
struct PortedPencil {
  numeric::Matrix g;
  numeric::Matrix c;
  std::size_t num_ports = 0;
  /// original node (1-based netlist id) for each pencil row
  std::vector<circuit::NodeId> row_to_node;
};

/// Stamp a netlist of R and C elements (current sources are ignored;
/// anything else throws std::invalid_argument) into its ports-first pencil.
PortedPencil build_ported_pencil(const circuit::Netlist& nl,
                                 const std::vector<circuit::NodeId>& ports);

}  // namespace lcsf::interconnect
