#include "circuit/netlist.hpp"

#include <cmath>
#include <stdexcept>

namespace lcsf::circuit {

NodeId Netlist::add_node(std::string name) {
  const NodeId id = static_cast<NodeId>(names_.size());
  if (name.empty()) name = "n" + std::to_string(id);
  if (by_name_.count(name) != 0) {
    throw std::invalid_argument("Netlist: duplicate node name " + name);
  }
  by_name_.emplace(name, id);
  names_.push_back(std::move(name));
  return id;
}

NodeId Netlist::node(const std::string& name) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  return add_node(name);
}

void Netlist::check_node(NodeId n) const {
  if (n < 0 || static_cast<std::size_t>(n) >= names_.size()) {
    throw std::out_of_range("Netlist: unknown node id " + std::to_string(n));
  }
}

void Netlist::add_resistor(NodeId a, NodeId b, double ohms) {
  check_node(a);
  check_node(b);
  if (!std::isfinite(ohms) || ohms <= 0.0) {
    throw std::invalid_argument("Netlist: R must be finite and > 0");
  }
  if (a == b) throw std::invalid_argument("Netlist: R shorted to itself");
  resistors_.push_back({a, b, ohms});
}

void Netlist::add_capacitor(NodeId a, NodeId b, double farads) {
  check_node(a);
  check_node(b);
  if (!std::isfinite(farads) || farads < 0.0) {
    throw std::invalid_argument("Netlist: C must be finite and >= 0");
  }
  if (a == b) throw std::invalid_argument("Netlist: C shorted to itself");
  capacitors_.push_back({a, b, farads});
}

void Netlist::add_inductor(NodeId a, NodeId b, double henries) {
  check_node(a);
  check_node(b);
  if (!std::isfinite(henries) || henries <= 0.0) {
    throw std::invalid_argument("Netlist: L must be finite and > 0");
  }
  if (a == b) throw std::invalid_argument("Netlist: L shorted to itself");
  inductors_.push_back({a, b, henries});
}

void Netlist::add_vsource(NodeId pos, NodeId neg, SourceWaveform wave) {
  check_node(pos);
  check_node(neg);
  vsources_.push_back({pos, neg, std::move(wave)});
}

void Netlist::add_isource(NodeId from, NodeId into, SourceWaveform wave) {
  check_node(from);
  check_node(into);
  isources_.push_back({from, into, std::move(wave)});
}

void Netlist::add_mosfet(Mosfet m) {
  check_node(m.drain);
  check_node(m.gate);
  check_node(m.source);
  if (caps_frozen_) {
    throw std::logic_error(
        "Netlist: cannot add devices after freeze_device_capacitances()");
  }
  mosfets_.push_back(std::move(m));
}

void Netlist::freeze_device_capacitances() {
  if (caps_frozen_) return;
  for (const Mosfet& m : mosfets_) {
    if (m.gate != m.source) add_capacitor(m.gate, m.source, m.cgs());
    if (m.gate != m.drain) add_capacitor(m.gate, m.drain, m.cgd());
    if (m.drain != kGround) add_capacitor(m.drain, kGround, m.cdb());
  }
  caps_frozen_ = true;
}

}  // namespace lcsf::circuit
