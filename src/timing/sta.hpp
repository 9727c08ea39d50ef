// Gate-level netlist, unit-delay static timing analysis, and the ISCAS-89
// benchmark generator.
//
// The paper transforms gate-level ISCAS-89 benchmarks to transistor-level
// netlists, extracts latch-to-latch paths ordered by a unit-delay timing
// analyzer, and analyzes the longest one (Sec. 5.3). The original
// benchmark netlists are not shipped with the paper, so a seeded generator
// reproduces each circuit's *shape* -- its published longest-path stage
// count and an ISCAS-like gate count -- while the unit-delay STA and the
// path extraction are real (see DESIGN.md "Substitutions").
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "timing/cells.hpp"

namespace lcsf::timing {

struct Gate {
  std::size_t cell = 0;  ///< index into cell_library()
  std::vector<std::size_t> inputs;  ///< net ids
  std::size_t output = 0;           ///< net id
};

struct GateNetlist {
  std::string name;
  std::size_t num_nets = 0;
  std::vector<Gate> gates;  ///< topologically ordered
  std::vector<std::size_t> primary_inputs;  ///< path start nets
  std::vector<std::size_t> latch_outputs;   ///< path start nets
  std::vector<std::size_t> latch_inputs;    ///< path end nets

  /// Heap bytes held (cache accounting; see serve::DesignCache).
  std::size_t memory_bytes() const;
};

/// A combinational path: ordered gate indices from a start net to a latch
/// input. For each gate the *switching* input pin is recorded so the
/// transistor-level path can be sensitized.
struct TimingPath {
  std::vector<std::size_t> gates;
  std::vector<std::size_t> switching_pin;  ///< per gate, which input is on
                                           ///< the path
  std::size_t start_net = 0;
  std::size_t end_net = 0;
  std::size_t length() const { return gates.size(); }
};

/// Unit-delay STA: longest latch-to-latch (or PI-to-latch) path, the most
/// critical of TimingGraph::k_most_critical_paths. Throws
/// std::invalid_argument if the netlist has no latch inputs and
/// std::runtime_error if the path would be empty.
TimingPath longest_path(const GateNetlist& nl);

struct BenchmarkSpec {
  std::string name;
  std::size_t longest_path_stages = 5;  ///< published stage count
  std::size_t total_gates = 20;         ///< ISCAS-like circuit size
  std::size_t num_latches = 3;
  unsigned seed = 1;
};

/// The benchmark suite with the stage counts the paper reports. s1423
/// appears with 21 stages (Table 5); Table 4's row uses a deeper variant
/// (54) which is provided as "s1423d".
std::vector<BenchmarkSpec> iscas89_suite();
const BenchmarkSpec& find_benchmark(const std::string& name);

/// Deterministically generate a benchmark circuit whose unit-delay longest
/// path has exactly spec.longest_path_stages stages.
GateNetlist generate_benchmark(const BenchmarkSpec& spec);

}  // namespace lcsf::timing
