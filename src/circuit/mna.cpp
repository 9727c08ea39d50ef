#include "circuit/mna.hpp"

#include <stdexcept>

namespace lcsf::circuit {
namespace {

/// Symmetric two-terminal stamp; row i is node i+1 (ground skipped).
void stamp_two_terminal(numeric::Matrix& m, NodeId a, NodeId b, double value) {
  const auto ia = static_cast<std::size_t>(a - 1);
  const auto ib = static_cast<std::size_t>(b - 1);
  if (a != kGround) m(ia, ia) += value;
  if (b != kGround) m(ib, ib) += value;
  if (a != kGround && b != kGround) {
    m(ia, ib) -= value;
    m(ib, ia) -= value;
  }
}

}  // namespace

NodePencil build_node_pencil(const Netlist& nl) {
  if (!nl.vsources().empty() || !nl.mosfets().empty() ||
      !nl.inductors().empty()) {
    throw std::invalid_argument(
        "build_node_pencil: netlist must contain only R/C (and I sources)");
  }
  const std::size_t n = nl.node_count() - 1;
  NodePencil p{numeric::Matrix(n, n), numeric::Matrix(n, n)};
  for (const Resistor& r : nl.resistors()) {
    stamp_two_terminal(p.g, r.a, r.b, 1.0 / r.ohms);
  }
  for (const Capacitor& c : nl.capacitors()) {
    stamp_two_terminal(p.c, c.a, c.b, c.farads);
  }
  return p;
}

}  // namespace lcsf::circuit
