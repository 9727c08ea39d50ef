#include "interconnect/coupled_lines.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace lcsf::interconnect {

using circuit::kGround;
using circuit::NodeId;

std::vector<NodeId> CoupledLineBundle::ports() const {
  std::vector<NodeId> p = near_ends;
  p.insert(p.end(), far_ends.begin(), far_ends.end());
  return p;
}

CoupledLineBundle build_coupled_lines(const CoupledLineSpec& spec) {
  if (spec.num_lines == 0) {
    throw std::invalid_argument("build_coupled_lines: need >= 1 line");
  }
  if (spec.length <= 0.0 || spec.segment_length <= 0.0) {
    throw std::invalid_argument("build_coupled_lines: bad lengths");
  }
  const auto nseg = static_cast<std::size_t>(
      std::ceil(spec.length / spec.segment_length - 1e-9));
  const double seg_len = spec.length / static_cast<double>(nseg);
  const UnitLengthParasitics pul = sakurai_parasitics(spec.geometry);
  const double rseg = pul.resistance * seg_len;
  const double cseg = pul.ground_capacitance * seg_len;
  const double ccseg = pul.coupling_capacitance * seg_len;

  CoupledLineBundle bundle;
  bundle.segments = nseg;
  auto& nl = bundle.netlist;

  // nodes[line][k]: k = 0 is the near end, k = nseg is the far end.
  // Node ids are allocated segment-major (all lines of segment k before
  // segment k+1) so the MNA matrix is banded with bandwidth ~num_lines --
  // the natural-order sparse LU then has minimal fill.
  std::vector<std::vector<NodeId>> nodes(spec.num_lines);
  for (std::size_t l = 0; l < spec.num_lines; ++l) nodes[l].resize(nseg + 1);
  for (std::size_t k = 0; k <= nseg; ++k) {
    for (std::size_t l = 0; l < spec.num_lines; ++l) {
      nodes[l][k] =
          nl.add_node("w" + std::to_string(l) + "_" + std::to_string(k));
    }
  }
  for (std::size_t l = 0; l < spec.num_lines; ++l) {
    bundle.near_ends.push_back(nodes[l][0]);
    bundle.far_ends.push_back(nodes[l][nseg]);
  }

  for (std::size_t l = 0; l < spec.num_lines; ++l) {
    for (std::size_t k = 0; k < nseg; ++k) {
      nl.add_resistor(nodes[l][k], nodes[l][k + 1], rseg);
      // Ground capacitance lumped at the downstream node; half segment at
      // the near end keeps the total charge exact.
      nl.add_capacitor(nodes[l][k + 1], kGround,
                       (k + 1 == nseg) ? 0.5 * cseg : cseg);
      if (k == 0) nl.add_capacitor(nodes[l][0], kGround, 0.5 * cseg);
    }
    // Lateral coupling to the next line.
    if (l + 1 < spec.num_lines && ccseg > 0.0) {
      for (std::size_t k = 0; k <= nseg; ++k) {
        const double cc =
            (k == 0 || k == nseg) ? 0.5 * ccseg : ccseg;
        nl.add_capacitor(nodes[l][k], nodes[l + 1][k], cc);
      }
    }
  }
  return bundle;
}

PortedPencil build_ported_pencil(const circuit::Netlist& nl,
                                 const std::vector<NodeId>& ports) {
  if (!nl.vsources().empty() || !nl.mosfets().empty() ||
      !nl.inductors().empty()) {
    throw std::invalid_argument(
        "build_ported_pencil: netlist must contain only R/C (and I sources)");
  }
  const std::size_t n = nl.node_count() - 1;  // ground is eliminated
  if (ports.empty() || ports.size() > n) {
    throw std::invalid_argument("build_ported_pencil: bad port list");
  }

  // Rows: ports first (in the given order), then the remaining nodes in id
  // order. row_of[id] is node id's row; n marks a node not yet placed.
  std::vector<std::size_t> row_of(n + 1, n);
  PortedPencil out;
  out.num_ports = ports.size();
  out.row_to_node.reserve(n);
  const auto place = [&](std::size_t id) {
    row_of[id] = out.row_to_node.size();
    out.row_to_node.push_back(static_cast<NodeId>(id));
  };
  for (NodeId p : ports) {
    if (p <= 0 || static_cast<std::size_t>(p) > n) {
      throw std::invalid_argument("build_ported_pencil: port not a node");
    }
    if (row_of[static_cast<std::size_t>(p)] != n) {
      throw std::invalid_argument("build_ported_pencil: duplicate port");
    }
    place(static_cast<std::size_t>(p));
  }
  for (std::size_t id = 1; id <= n; ++id) {
    if (row_of[id] == n) place(id);
  }

  // Symmetric two-terminal stamps straight into those rows, element by
  // element in netlist order (paper Eq. 1; MOSFETs are the simulators'
  // nonlinear part and never stamped here).
  const auto stamp = [&](numeric::Matrix& m, NodeId a, NodeId b,
                         double value) {
    const std::size_t ia = row_of[static_cast<std::size_t>(a)];
    const std::size_t ib = row_of[static_cast<std::size_t>(b)];
    if (a != kGround) m(ia, ia) += value;
    if (b != kGround) m(ib, ib) += value;
    if (a != kGround && b != kGround) {
      m(ia, ib) -= value;
      m(ib, ia) -= value;
    }
  };
  out.g = numeric::Matrix(n, n);
  out.c = numeric::Matrix(n, n);
  for (const circuit::Resistor& r : nl.resistors()) {
    stamp(out.g, r.a, r.b, 1.0 / r.ohms);
  }
  for (const circuit::Capacitor& c : nl.capacitors()) {
    stamp(out.c, c.a, c.b, c.farads);
  }
  return out;
}

}  // namespace lcsf::interconnect
