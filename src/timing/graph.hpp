// Multi-path timing DAG over a gate netlist (ROADMAP "full-chip
// statistical timing graph", grounded in the hierarchical-SSTA papers in
// PAPERS.md).
//
// TimingGraph validates the netlist structure on construction -- at most
// one driver per net, no combinational cycles -- and computes a
// levelization that does NOT require GateNetlist::gates to be stored in
// topological order (the single-path STA in sta.cpp silently assumed
// that; see docs/timing_graph.md). On top of the levelization it provides
// unit-delay arrivals and the enumeration of the K most-critical
// latch-to-latch paths that core::GraphAnalyzer simulates at transistor
// level.
#pragma once

#include <cstddef>
#include <vector>

#include "timing/sta.hpp"

namespace lcsf::timing {

class TimingGraph {
 public:
  /// Sentinel for "no driver gate" / "unreachable net".
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Builds the DAG. Throws sim::SimulationError (kInvalidInput) when a
  /// net has two drivers, a gate references an out-of-range net, or the
  /// gate graph is cyclic. Gate order in `nl` is irrelevant: the graph
  /// levelizes internally.
  explicit TimingGraph(const GateNetlist& nl);

  const GateNetlist& netlist() const { return *nl_; }

  /// Gate indices in a deterministic topological order (Kahn, ready gates
  /// processed in ascending index order).
  const std::vector<std::size_t>& topo_order() const { return topo_; }

  /// Driver gate of each net (kNone when the net is a primary input,
  /// latch output, or floating).
  const std::vector<std::size_t>& net_driver() const { return driver_; }

  /// Unit-delay arrival of each net. Start nets (primary inputs and latch
  /// outputs) arrive at 0; nets not reached from any start net -- e.g. a
  /// gate fed only by floating nets -- carry kNone.
  const std::vector<std::size_t>& arrival() const { return arrival_; }

  /// The K most-critical latch-to-latch (or PI-to-latch) paths, in
  /// descending unit-delay length. Ties are broken deterministically
  /// (smaller endpoint net first, then lexicographically smaller gate
  /// sequence). Returns fewer than `k` paths when the graph does not
  /// contain that many. Endpoints are GateNetlist::latch_inputs.
  std::vector<TimingPath> k_most_critical_paths(std::size_t k) const;

  /// Heap bytes held (cache accounting; see serve::DesignCache).
  std::size_t memory_bytes() const {
    return (topo_.capacity() + driver_.capacity() + arrival_.capacity()) *
           sizeof(std::size_t);
  }

 private:
  const GateNetlist* nl_;
  std::vector<std::size_t> topo_;
  std::vector<std::size_t> driver_;
  std::vector<std::size_t> arrival_;
};

}  // namespace lcsf::timing
