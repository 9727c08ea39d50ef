#include "core/graph_analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "sim/diagnostics.hpp"

namespace lcsf::core {

using numeric::Vector;
using timing::RampParams;
using timing::ssta::CanonicalForm;

GraphAnalyzer::GraphAnalyzer(GraphSpec spec)
    : spec_(std::move(spec)), graph_(spec_.netlist) {
  obs::ScopedSpan span("core.graph_characterize");
  if (spec_.top_k == 0) {
    sim::throw_invalid_input("GraphAnalyzer: top_k must be positive");
  }
  paths_ = graph_.k_most_critical_paths(spec_.top_k);
  if (paths_.empty()) {
    sim::throw_invalid_input(
        "GraphAnalyzer: netlist has no latch-to-latch paths");
  }
  for (const auto& p : paths_) {
    subgraph_.insert(subgraph_.end(), p.gates.begin(), p.gates.end());
    endpoints_.push_back(p.end_net);
  }
  std::sort(subgraph_.begin(), subgraph_.end());
  subgraph_.erase(std::unique(subgraph_.begin(), subgraph_.end()),
                  subgraph_.end());
  std::sort(endpoints_.begin(), endpoints_.end());
  endpoints_.erase(std::unique(endpoints_.begin(), endpoints_.end()),
                   endpoints_.end());

  // Characterize each distinct (cell, effective load) block once; gates
  // instantiate the shared block ROM. The load of a gate is its wire plus
  // the input pin capacitance of every fanout gate (endpoint gates see a
  // latch D input, modeled as an INV pin).
  const auto& lib = timing::cell_library();
  const timing::GateNetlist& nl = spec_.netlist;
  const double latch_pin_cap =
      input_pin_cap(timing::find_cell("INV"), spec_.tech);
  std::map<std::pair<std::size_t, double>, std::size_t> block_index;
  // Blocks share the wire and differ only in port entries (driver chord,
  // fanout cap), so they share their PACT eigensolves.
  mor::PactMemo pact_memo;
  stages_.resize(subgraph_.size());
  for (std::size_t slot = 0; slot < subgraph_.size(); ++slot) {
    const std::size_t g = subgraph_[slot];
    const timing::Gate& gate = nl.gates[g];
    double cap = 0.0;
    for (const timing::Gate& h : nl.gates) {
      for (std::size_t in : h.inputs) {
        if (in == gate.output) cap += input_pin_cap(lib.at(h.cell), spec_.tech);
      }
    }
    if (cap <= 0.0) cap = latch_pin_cap;

    GateStage& gs = stages_[slot];
    gs.model.cell = &lib.at(gate.cell);
    gs.model.receiver_cap = cap;
    const auto key = std::make_pair(gate.cell, cap);
    if (auto it = block_index.find(key); it != block_index.end()) {
      gs.block = it->second;
      gs.model.load = stages_[blocks_[gs.block].stage_slot].model.load;
      continue;
    }
    gs.model.load = characterize_stage_load(*gs.model.cell, spec_.tech,
                                            spec_.wire_segments(), cap,
                                            spec_.rom_internal_modes,
                                            &pact_memo);
    gs.block = blocks_.size();
    blocks_.push_back({gate.cell, cap, slot});
    block_index.emplace(key, gs.block);
  }

  // The walk's visit order, and one backward pass for both last-use
  // tables: a gate's output is memoized only when the gate is visited
  // again (its entries go after its last visit), and a net's arrival is
  // dropped after its last read or write (endpoint arrivals stay until
  // the walk reads them).
  for (const timing::TimingPath& path : paths_) {
    for (std::size_t k = 0; k < path.gates.size(); ++k) {
      const timing::Gate& gate = nl.gates[path.gates[k]];
      visits_.push_back({path.gates[k], slot_of(path.gates[k]),
                         gate.inputs[path.switching_pin[k]], gate.output});
    }
  }
  std::vector<bool> gate_seen(nl.gates.size(), false);
  std::vector<bool> net_seen(nl.num_nets, false);
  for (std::size_t net : endpoints_) net_seen[net] = true;
  for (auto v = visits_.rbegin(); v != visits_.rend(); ++v) {
    v->memo = gate_seen[v->gate];
    v->drop_in = !net_seen[v->in_net];
    gate_seen[v->gate] = net_seen[v->in_net] = net_seen[v->out_net] = true;
  }
}

std::size_t GraphAnalyzer::memory_bytes() const {
  std::size_t total = sizeof(*this) + spec_.netlist.memory_bytes() +
                      graph_.memory_bytes();
  total += stages_.capacity() * sizeof(GateStage);
  for (const GateStage& s : stages_) {
    total += s.model.memory_bytes() - sizeof(StageModel);
  }
  total += blocks_.capacity() * sizeof(Block);
  total += subgraph_.capacity() * sizeof(std::size_t);
  total += endpoints_.capacity() * sizeof(std::size_t);
  total += visits_.capacity() * sizeof(Visit);
  for (const timing::TimingPath& p : paths_) {
    total += sizeof(p) + p.gates.capacity() * sizeof(std::size_t) +
             p.switching_pin.capacity() * sizeof(std::size_t);
  }
  return total;
}

std::size_t GraphAnalyzer::slot_of(std::size_t gate) const {
  const auto it =
      std::lower_bound(subgraph_.begin(), subgraph_.end(), gate);
  return static_cast<std::size_t>(it - subgraph_.begin());
}

StageCacheKey GraphAnalyzer::cache_key(std::size_t gate,
                                       const RampParams& in) const {
  const double q = spec_.ramp_bucket_quantum > 0.0
                       ? spec_.ramp_bucket_quantum
                       : 1e-15;
  return {gate, std::llround(in.m / q), std::llround(in.s / q), in.rising};
}

GraphAnalyzer::SampleResult GraphAnalyzer::evaluate(
    const GraphSample& sample, Workspace& ws) const {
  SampleResult res;
  stats::BatchSlot slot;
  evaluate({&sample, 1}, ws.batch(), {&res, 1}, {&slot, 1});
  if (slot.failed) throw sim::SimulationError(std::move(slot.diag));
  record_counters(res);
  return res;
}

void GraphAnalyzer::record_counters(const SampleResult& res) const {
  obs::add_counter("stats.graph.paths", paths_.size());
  obs::add_counter("stats.graph.stages_simulated", res.stages_simulated);
  obs::add_counter("stats.graph.stage_cache_hits", res.stage_cache_hits);
  obs::add_counter("stats.graph.merges", res.merges);
}

void GraphAnalyzer::evaluate(std::span<const GraphSample> samples,
                             BatchWorkspace& bws,
                             std::span<SampleResult> res,
                             std::span<stats::BatchSlot> out,
                             std::vector<RampParams>* stage_inputs) const {
  for (std::size_t l = 0; l < samples.size(); ++l) {
    if (samples[l].device.size() != subgraph_.size()) {
      throw std::invalid_argument("GraphAnalyzer: sample size mismatch");
    }
    bws.lane(l).stage_cache.clear();
    bws.lane(l).net_arrival.clear();
    res[l] = {};
    out[l] = {};
  }
  const StageWaveform start{spec_.input, spec_.input.to_source(spec_.tech.vdd)};
  // Lane l's arrival front at `net`: the statistical-max winner seen so
  // far (paths run most-critical first); start nets carry the stimulus.
  const auto arrival = [&](std::size_t l,
                           std::size_t net) -> const StageWaveform& {
    const auto& fronts = bws.lane(l).net_arrival;
    const auto it = fronts.find(net);
    return it == fronts.end() ? start : it->second;
  };
  // Statistical max at the output net: keep the later 50% arrival (its
  // waveform propagates downstream).
  const auto arrive = [&](std::size_t l, std::size_t net, StageWaveform w) {
    const auto [it, inserted] =
        bws.lane(l).net_arrival.try_emplace(net, std::move(w));
    if (inserted) return;
    ++res[l].merges;
    if (w.params.m > it->second.params.m) it->second = std::move(w);
  };

  for (const Visit& v : visits_) {
    if (stage_inputs != nullptr && !out[0].failed) {
      const StageWaveform& in = arrival(0, v.in_net);
      stage_inputs->push_back(timing::measure_ramp(
          in.wave.points(), spec_.tech.vdd, in.params.rising));
    }
    bws.block.clear();
    for (std::size_t l = 0; l < samples.size(); ++l) {
      if (out[l].failed) continue;
      const auto& memo = bws.lane(l).stage_cache;
      const auto it = memo.find(cache_key(v.gate, arrival(l, v.in_net).params));
      if (it == memo.end()) {
        bws.block.push_back(l);
        continue;
      }
      ++res[l].stage_cache_hits;
      arrive(l, v.out_net, it->second);
    }
    // The misses, one block per input direction (propagate_stage_batch
    // drives a block in the direction of its first lane).
    for (auto first = bws.block.begin(); first != bws.block.end();) {
      const bool rising = arrival(*first, v.in_net).params.rising;
      const auto last = std::partition(first, bws.block.end(), [&](auto l) {
        return arrival(l, v.in_net).params.rising == rising;
      });
      bws.ins.clear();
      bws.devs.clear();
      bws.wires.clear();
      for (auto l = first; l != last; ++l) {
        bws.ins.push_back(&arrival(*l, v.in_net));
        bws.devs.push_back(&samples[*l].device[v.slot]);
        bws.wires.push_back(&samples[*l].wire);
      }
      propagate_stage_batch(stages_[v.slot].model, spec_.tech,
                            spec_.sim_options(), v.gate, bws.ins, bws.devs,
                            bws.wires, bws.next, bws.meas, bws);
      for (std::size_t i = 0; first + i != last; ++i) {
        const std::size_t l = first[i];
        if (bws.meas[i].failed) {
          out[l].failed = true;
          out[l].diag = std::move(bws.meas[i].diag);
          continue;
        }
        ++res[l].stages_simulated;
        if (v.memo) {
          bws.lane(l).stage_cache.emplace(
              cache_key(v.gate, bws.ins[i]->params), bws.next[i]);
        }
        arrive(l, v.out_net, std::move(bws.next[i]));
      }
      first = last;
    }
    constexpr auto lo = std::numeric_limits<std::int64_t>::min();
    for (std::size_t l = 0; l < samples.size(); ++l) {
      SampleWorkspace& lane = bws.lane(l);
      if (!v.memo) {
        // The gate's last visit: no later lookup reads its entries.
        auto& memo = lane.stage_cache;
        memo.erase(memo.lower_bound({v.gate, lo, lo, false}),
                   memo.lower_bound({v.gate + 1, lo, lo, false}));
      }
      if (v.drop_in) lane.net_arrival.erase(v.in_net);
    }
  }

  for (std::size_t l = 0; l < samples.size(); ++l) {
    auto& fronts = bws.lane(l).net_arrival;
    if (!out[l].failed) {
      for (std::size_t net : endpoints_) {
        const RampParams& a = fronts.at(net).params;
        res[l].endpoints.push_back({net, a.m - spec_.input.m, a.s});
        res[l].max_delay = std::max(res[l].max_delay, a.m - spec_.input.m);
      }
    }
    fronts.clear();
  }
}

std::vector<double> GraphAnalyzer::per_path_delays(const GraphSample& sample,
                                                   Workspace& ws) const {
  if (sample.device.size() != subgraph_.size()) {
    throw std::invalid_argument("GraphAnalyzer: sample size mismatch");
  }
  BatchWorkspace& bws = ws.batch();
  std::vector<double> delays;
  delays.reserve(paths_.size());
  for (const timing::TimingPath& path : paths_) {
    StageWaveform cur{spec_.input, spec_.input.to_source(spec_.tech.vdd)};
    for (std::size_t g : path.gates) {
      // The stage on a one-lane block, throwing its classified failure.
      const StageWaveform* in = &cur;
      const timing::DeviceVariation* d = &sample.device[slot_of(g)];
      const interconnect::WireVariation* w = &sample.wire;
      propagate_stage_batch(stages_[slot_of(g)].model, spec_.tech,
                            spec_.sim_options(), g, {&in, 1}, {&d, 1},
                            {&w, 1}, bws.next, bws.meas, bws);
      if (bws.meas[0].failed) throw sim::SimulationError(bws.meas[0].diag);
      cur = std::move(bws.next[0]);
    }
    delays.push_back(cur.params.m - spec_.input.m);
  }
  return delays;
}

stats::BatchPerformanceFn GraphAnalyzer::block_walk(
    std::size_t threads, std::function<GraphSample(const Vector&)> to_sample,
    std::function<double(const SampleResult&)> value) const {
  auto pool = std::make_shared<LanePool<BatchWorkspace>>(threads);
  return [this, pool, to_sample = std::move(to_sample),
          value = std::move(value)](const std::vector<Vector>& w,
                                    std::size_t lane,
                                    std::vector<stats::BatchSlot>& out) {
    std::vector<GraphSample> block;
    block.reserve(w.size());
    for (const Vector& wl : w) block.push_back(to_sample(wl));
    std::vector<SampleResult> res(w.size());
    evaluate(block, pool->lane(lane), res, out);
    for (std::size_t l = 0; l < w.size(); ++l) {
      if (!out[l].failed) out[l].value = value(res[l]);
    }
  };
}

stats::MonteCarloResult GraphAnalyzer::monte_carlo(
    const PathVariationModel& model, const stats::RunOptions& opt) const {
  // Blocks of one keep one lane workspace per thread; a wider block
  // keeps one per block lane.
  stats::RunOptions one = opt;
  one.exec.batch = 1;
  return stats::Runner(one).run_monte_carlo(
      block_walk(opt.exec.threads,
                 [&](const Vector& w) { return sample_from_sources(model, w); },
                 [this](const SampleResult& r) {
                   record_counters(r);
                   return r.max_delay;
                 }),
      sources(model));
}

std::vector<timing::ssta::BlockDelayModel> GraphAnalyzer::block_models(
    const PathVariationModel& model) const {
  obs::ScopedSpan span("core.graph_block_models");
  const StageSimOptions sopt = spec_.sim_options();
  const double s_nom = spec_.input.s;

  // Every block at a rising input of the spec slew: one nominal probe,
  // then the Gradient-Analysis sensitivities about it.
  std::vector<timing::ssta::BlockDelayModel> out;
  out.reserve(blocks_.size());
  for (const Block& b : blocks_) {
    const StageModel& st = stages_[b.stage_slot].model;
    const DelaySlew nominal = stage_delay_slew(
        st, spec_.tech, sopt, b.stage_slot, s_nom, true, {}, {}, nullptr);
    const StageSensitivity sens = stage_sensitivity(
        st, spec_.tech, sopt, b.stage_slot, s_nom, true, model, nullptr);

    timing::ssta::BlockDelayModel m;
    m.cell = b.cell;
    m.load_cap = b.receiver_cap;
    m.input_slew = s_nom;
    m.nominal_delay = nominal.delay;
    m.nominal_slew = nominal.slew;
    m.d_delay_dl = sens.d_dl.delay;
    m.d_delay_vt = sens.d_vt.delay;
    m.d_delay_wire_w = sens.d_wire_w.delay;
    m.d_delay_wire_h = sens.d_wire_h.delay;
    m.d_delay_slew = sens.d_slew.delay;
    out.push_back(m);
  }
  return out;
}

std::vector<GraphAnalyzer::AnalyticEndpoint>
GraphAnalyzer::analytic_endpoints(const PathVariationModel& model) const {
  const auto blocks = block_models(model);
  const auto src = sources(model);
  const std::size_t nsrc = src.size();
  const std::size_t per_stage = model.sources_per_stage();

  // Subgraph fanin: the (gate -> switching input nets) edges the paths
  // actually use.
  std::map<std::size_t, std::vector<std::size_t>> fanin;
  for (const timing::TimingPath& path : paths_) {
    for (std::size_t k = 0; k < path.gates.size(); ++k) {
      const std::size_t g = path.gates[k];
      fanin[g].push_back(
          spec_.netlist.gates[g].inputs[path.switching_pin[k]]);
    }
  }
  for (auto& [g, nets] : fanin) {
    std::sort(nets.begin(), nets.end());
    nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  }

  // Canonical arrivals over the standard-normal source basis: sens[i] =
  // (delay per normalized unit) * sigma_i.
  std::map<std::size_t, CanonicalForm> arrival;
  for (std::size_t g : graph_.topo_order()) {
    const auto fit = fanin.find(g);
    if (fit == fanin.end()) continue;  // not on any enumerated path
    const std::size_t slot = slot_of(g);
    const timing::ssta::BlockDelayModel& bm = blocks[stages_[slot].block];

    CanonicalForm d = CanonicalForm::constant(bm.nominal_delay, nsrc);
    std::size_t idx = slot * per_stage;
    if (model.std_dl > 0.0) d.sens[idx++] = bm.d_delay_dl * model.std_dl;
    if (model.std_vt > 0.0) d.sens[idx++] = bm.d_delay_vt * model.std_vt;
    std::size_t gidx = per_stage * subgraph_.size();
    if (model.std_wire_w > 0.0) {
      d.sens[gidx++] = bm.d_delay_wire_w * model.std_wire_w;
    }
    if (model.std_wire_h > 0.0) {
      d.sens[gidx++] = bm.d_delay_wire_h * model.std_wire_h;
    }

    CanonicalForm merged;
    bool first = true;
    for (std::size_t in_net : fit->second) {
      const auto ait = arrival.find(in_net);
      const CanonicalForm a_in =
          ait != arrival.end()
              ? ait->second
              : CanonicalForm::constant(spec_.input.m, nsrc);
      const CanonicalForm cand = timing::ssta::sum(a_in, d);
      merged = first ? cand : timing::ssta::stat_max(merged, cand);
      first = false;
    }
    arrival[spec_.netlist.gates[g].output] = std::move(merged);
  }

  std::vector<AnalyticEndpoint> out;
  for (std::size_t net : endpoints_) {
    AnalyticEndpoint e;
    e.net = net;
    e.arrival = arrival.at(net);
    // Report the endpoint *delay* form (arrival minus the stimulus M).
    e.arrival.mean -= spec_.input.m;
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace lcsf::core
