// Flat transistor/RC netlist with named nodes.
//
// Node 0 is ground. Only five element kinds exist because that is all the
// paper's experiments need: R, C (including coupling C, which is just a C
// between two signal nodes), independent V and I sources, and level-1
// MOSFETs.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "circuit/mosfet.hpp"
#include "circuit/source_waveform.hpp"

namespace lcsf::circuit {

using NodeId = int;
inline constexpr NodeId kGround = 0;

struct Resistor {
  NodeId a = kGround;
  NodeId b = kGround;
  double ohms = 0.0;
};

struct Capacitor {
  NodeId a = kGround;
  NodeId b = kGround;
  double farads = 0.0;
};

struct Inductor {
  NodeId a = kGround;
  NodeId b = kGround;
  double henries = 0.0;
};

/// Ideal voltage source from neg to pos.
struct VoltageSource {
  NodeId pos = kGround;
  NodeId neg = kGround;
  SourceWaveform wave;
};

/// Current injected into `into` and drawn out of `from`.
struct CurrentSource {
  NodeId from = kGround;
  NodeId into = kGround;
  SourceWaveform wave;
};

class Netlist {
 public:
  /// Create a fresh node; name is optional and purely diagnostic.
  NodeId add_node(std::string name = {});
  /// Get-or-create a node by name ("0" and "gnd" map to ground).
  NodeId node(const std::string& name);
  /// Lookup-only variant for frozen netlists: the node id, or -1 if no
  /// node of that name exists.
  NodeId find_node(const std::string& name) const {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? NodeId{-1} : it->second;
  }
  /// Number of nodes including ground.
  std::size_t node_count() const { return names_.size(); }
  const std::string& node_name(NodeId n) const { return names_.at(n); }

  /// Element adders throw std::invalid_argument for a value that is not
  /// finite (NaN, inf) or is out of range (R, L <= 0; C < 0) and for an
  /// element shorted to itself; parse_netlist reports it as a ParseError
  /// naming the card's line.
  void add_resistor(NodeId a, NodeId b, double ohms);
  void add_capacitor(NodeId a, NodeId b, double farads);
  void add_inductor(NodeId a, NodeId b, double henries);
  void add_vsource(NodeId pos, NodeId neg, SourceWaveform wave);
  void add_isource(NodeId from, NodeId into, SourceWaveform wave);
  void add_mosfet(Mosfet m);

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<Inductor>& inductors() const { return inductors_; }
  const std::vector<VoltageSource>& vsources() const { return vsources_; }
  const std::vector<CurrentSource>& isources() const { return isources_; }
  const std::vector<Mosfet>& mosfets() const { return mosfets_; }
  std::vector<Mosfet>& mosfets() { return mosfets_; }

  /// Total linear element count (the paper's "number of linear circuit
  /// elements" metric in Fig. 5 / Table 4).
  std::size_t linear_element_count() const {
    return resistors_.size() + capacitors_.size() + inductors_.size();
  }

  /// Stamp the MOSFETs' constant capacitances (cgs, cgd, cdb) as linear
  /// capacitors. Call once after the netlist is complete; the simulators
  /// treat device caps as part of the linear load (linear-centric split).
  void freeze_device_capacitances();
  bool device_capacitances_frozen() const { return caps_frozen_; }

 private:
  void check_node(NodeId n) const;

  std::vector<std::string> names_{std::string{"gnd"}};
  // Lookup-only index (never iterated): element order cannot reach any
  // result, so the unordered map is safe here -- node identity and
  // ordering come from the insertion-ordered `names_` vector alone.
  std::unordered_map<std::string, NodeId> by_name_{{"gnd", kGround},
                                                   {"0", kGround}};
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<Inductor> inductors_;
  std::vector<VoltageSource> vsources_;
  std::vector<CurrentSource> isources_;
  std::vector<Mosfet> mosfets_;
  bool caps_frozen_ = false;
};

}  // namespace lcsf::circuit
