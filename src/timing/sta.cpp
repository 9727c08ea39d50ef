#include "timing/sta.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <utility>

#include "timing/graph.hpp"

namespace lcsf::timing {

std::size_t GateNetlist::memory_bytes() const {
  std::size_t total = name.size() + gates.capacity() * sizeof(Gate);
  for (const Gate& g : gates) {
    total += g.inputs.capacity() * sizeof(std::size_t);
  }
  return total + (primary_inputs.capacity() + latch_outputs.capacity() +
                  latch_inputs.capacity()) *
                     sizeof(std::size_t);
}

TimingPath longest_path(const GateNetlist& nl) {
  if (nl.latch_inputs.empty()) {
    throw std::invalid_argument("longest_path: no latch inputs");
  }
  std::vector<TimingPath> paths = TimingGraph(nl).k_most_critical_paths(1);
  if (paths.empty()) {
    throw std::runtime_error("longest_path: no combinational path found");
  }
  return std::move(paths[0]);
}

std::vector<BenchmarkSpec> iscas89_suite() {
  // Stage counts from Tables 4/5; gate and latch counts shaped after the
  // real ISCAS-89 circuits.
  return {
      {"s27", 5, 13, 3, 27},        {"s208", 9, 96, 8, 208},
      {"s832", 9, 287, 5, 832},     {"s444", 12, 181, 21, 444},
      {"s1423", 21, 657, 74, 1423}, {"s1423d", 54, 657, 74, 1423},
      {"s9234", 58, 1000, 135, 9234},
  };
}

const BenchmarkSpec& find_benchmark(const std::string& name) {
  static const std::vector<BenchmarkSpec> suite = iscas89_suite();
  for (const auto& s : suite) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("find_benchmark: unknown circuit " + name);
}

GateNetlist generate_benchmark(const BenchmarkSpec& spec) {
  if (spec.longest_path_stages == 0 || spec.num_latches == 0) {
    throw std::invalid_argument("generate_benchmark: bad spec");
  }
  std::mt19937 rng(spec.seed);
  const auto& lib = cell_library();

  GateNetlist nl;
  nl.name = spec.name;

  auto new_net = [&nl]() { return nl.num_nets++; };

  // Primary inputs and latch outputs are the path start points.
  const std::size_t num_pi = 4;
  for (std::size_t k = 0; k < num_pi; ++k) {
    nl.primary_inputs.push_back(new_net());
  }
  for (std::size_t k = 0; k < spec.num_latches; ++k) {
    nl.latch_outputs.push_back(new_net());
  }

  // All nets created so far plus gate outputs; used for random side pins.
  std::vector<std::size_t> pool;
  for (std::size_t n = 0; n < nl.num_nets; ++n) pool.push_back(n);
  auto random_pool_net = [&]() {
    std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
    return pool[pick(rng)];
  };
  auto random_start_net = [&]() {
    std::uniform_int_distribution<std::size_t> pick(
        0, num_pi + spec.num_latches - 1);
    const std::size_t k = pick(rng);
    return k < num_pi ? nl.primary_inputs[k]
                      : nl.latch_outputs[k - num_pi];
  };
  std::uniform_int_distribution<std::size_t> pick_cell(0, lib.size() - 1);

  // The spine: a chain of exactly longest_path_stages gates from a latch
  // output to a latch input. Side pins connect to earlier nets only, so
  // the spine arrival grows by exactly one per gate.
  std::size_t prev = nl.latch_outputs[0];
  for (std::size_t s = 0; s < spec.longest_path_stages; ++s) {
    Gate g;
    g.cell = pick_cell(rng);
    const CellTemplate& cell = lib[g.cell];
    g.inputs.assign(cell.num_inputs, 0);
    g.inputs[0] = prev;
    for (std::size_t pin = 1; pin < cell.num_inputs; ++pin) {
      g.inputs[pin] = random_pool_net();
    }
    g.output = new_net();
    pool.push_back(g.output);
    prev = g.output;
    nl.gates.push_back(std::move(g));
  }
  nl.latch_inputs.push_back(prev);

  // Filler logic: shallow side chains ending at other latch inputs. Their
  // depth stays below the spine so the spine remains the longest path.
  const std::size_t filler =
      spec.total_gates > spec.longest_path_stages
          ? spec.total_gates - spec.longest_path_stages
          : 0;
  const std::size_t max_side_depth =
      spec.longest_path_stages > 2 ? spec.longest_path_stages - 2 : 1;
  std::uniform_int_distribution<std::size_t> pick_depth(1, max_side_depth);
  std::size_t emitted = 0;
  while (emitted < filler) {
    const std::size_t depth = std::min(pick_depth(rng), filler - emitted);
    // Chains start from PIs / latch outputs (arrival-0 nets).
    std::size_t chain_prev = random_start_net();
    for (std::size_t d = 0; d < depth; ++d) {
      Gate g;
      g.cell = pick_cell(rng);
      const CellTemplate& cell = lib[g.cell];
      g.inputs.assign(cell.num_inputs, 0);
      g.inputs[0] = chain_prev;
      for (std::size_t pin = 1; pin < cell.num_inputs; ++pin) {
        // Side pins restricted to arrival-0 nets to bound chain depth.
        g.inputs[pin] = random_start_net();
      }
      g.output = new_net();
      pool.push_back(g.output);
      chain_prev = g.output;
      nl.gates.push_back(std::move(g));
      ++emitted;
    }
    // Terminate the chain at a latch input. Once the circuit has more
    // chains than latches, latches are conceptually reused (multiple
    // combinational endpoints feeding the same latch through downstream
    // muxing): the endpoint is still registered so no generated logic is
    // invisible to STA. The old guard `if (latch_cursor < num_latches)`
    // silently dropped these endpoints, leaving dangling chains.
    nl.latch_inputs.push_back(chain_prev);
  }

  // Invariant: every gate either fans out to another gate or ends at a
  // registered latch input -- no dangling endpoints.
  std::vector<bool> consumed(nl.num_nets, false);
  for (const Gate& g : nl.gates) {
    for (std::size_t in : g.inputs) consumed[in] = true;
  }
  for (std::size_t n : nl.latch_inputs) consumed[n] = true;
  for (const Gate& g : nl.gates) {
    if (!consumed[g.output]) {
      throw std::logic_error("generate_benchmark: dangling gate output " +
                             std::to_string(g.output));
    }
  }
  return nl;
}

}  // namespace lcsf::timing
