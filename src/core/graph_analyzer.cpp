#include "core/graph_analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace lcsf::core {

using numeric::Vector;
using timing::RampParams;
using timing::ssta::CanonicalForm;

GraphAnalyzer::GraphAnalyzer(GraphSpec spec)
    : spec_(std::move(spec)), graph_(spec_.netlist) {
  obs::ScopedSpan span("core.graph_characterize");
  if (spec_.top_k == 0) {
    throw std::invalid_argument("GraphAnalyzer: top_k must be positive");
  }
  paths_ = graph_.k_most_critical_paths(spec_.top_k);
  if (paths_.empty()) {
    throw std::invalid_argument(
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
}

std::size_t GraphAnalyzer::memory_bytes() const {
  std::size_t total = sizeof(*this);
  total += stages_.capacity() * sizeof(GateStage);
  for (const GateStage& s : stages_) {
    total += s.model.memory_bytes() - sizeof(StageModel);
  }
  total += blocks_.capacity() * sizeof(Block);
  total += subgraph_.capacity() * sizeof(std::size_t);
  total += endpoints_.capacity() * sizeof(std::size_t);
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

StageWaveform GraphAnalyzer::simulate_slot(
    std::size_t slot, const StageWaveform& in,
    const timing::DeviceVariation& dev,
    const interconnect::WireVariation& wire, Workspace& ws) const {
  const timing::DeviceVariation* d = &dev;
  const interconnect::WireVariation* w = &wire;
  BatchWorkspace& bws = ws.batch();
  propagate_stage_batch(stages_[slot].model, spec_.tech, spec_.sim_options(),
                        subgraph_[slot], {&in, 1}, {&d, 1}, {&w, 1},
                        bws.next, bws.meas, bws);
  if (bws.meas[0].failed) throw sim::SimulationError(bws.meas[0].diag);
  return std::move(bws.next[0]);
}

GraphAnalyzer::SampleResult GraphAnalyzer::evaluate(
    const GraphSample& sample, Workspace& ws) const {
  if (sample.device.size() != subgraph_.size()) {
    throw std::invalid_argument("GraphAnalyzer: sample size mismatch");
  }
  SampleResult res;
  ws.stage_cache.clear();
  ws.net_arrival.clear();

  StageWaveform start;
  start.params = spec_.input;
  start.wave = spec_.input.to_source(spec_.tech.vdd);

  const timing::GateNetlist& nl = spec_.netlist;
  for (const timing::TimingPath& path : paths_) {
    for (std::size_t k = 0; k < path.gates.size(); ++k) {
      const std::size_t g = path.gates[k];
      const std::size_t in_net = nl.gates[g].inputs[path.switching_pin[k]];
      // The arrival front at the input net is the statistical-max winner
      // seen so far (paths run most-critical first); start nets carry the
      // shared stimulus.
      const StageWaveform* in = &start;
      if (auto it = ws.net_arrival.find(in_net);
          it != ws.net_arrival.end()) {
        in = &it->second;
      }
      const StageCacheKey key = cache_key(g, in->params);
      const StageWaveform* out = nullptr;
      if (auto it = ws.stage_cache.find(key); it != ws.stage_cache.end()) {
        out = &it->second;
        ++res.stage_cache_hits;
      } else {
        const std::size_t slot = slot_of(g);
        StageWaveform sw =
            simulate_slot(slot, *in, sample.device[slot], sample.wire, ws);
        out = &ws.stage_cache.emplace(key, std::move(sw)).first->second;
        ++res.stages_simulated;
      }
      // Statistical max at the output net: keep the later 50% arrival
      // (its waveform propagates downstream).
      const auto [it, inserted] =
          ws.net_arrival.emplace(nl.gates[g].output, *out);
      if (!inserted) {
        ++res.merges;
        if (out->params.m > it->second.params.m) it->second = *out;
      }
    }
  }

  for (std::size_t net : endpoints_) {
    const StageWaveform& a = ws.net_arrival.at(net);
    EndpointDelay e;
    e.net = net;
    e.delay = a.params.m - spec_.input.m;
    e.slew = a.params.s;
    res.max_delay = std::max(res.max_delay, e.delay);
    res.endpoints.push_back(e);
  }

  obs::add_counter("stats.graph.paths", paths_.size());
  obs::add_counter("stats.graph.stages_simulated", res.stages_simulated);
  obs::add_counter("stats.graph.stage_cache_hits", res.stage_cache_hits);
  obs::add_counter("stats.graph.merges", res.merges);
  return res;
}

std::vector<double> GraphAnalyzer::per_path_delays(const GraphSample& sample,
                                                   Workspace& ws) const {
  if (sample.device.size() != subgraph_.size()) {
    throw std::invalid_argument("GraphAnalyzer: sample size mismatch");
  }
  StageWaveform start;
  start.params = spec_.input;
  start.wave = spec_.input.to_source(spec_.tech.vdd);

  std::vector<double> delays;
  delays.reserve(paths_.size());
  for (const timing::TimingPath& path : paths_) {
    StageWaveform cur = start;
    for (std::size_t g : path.gates) {
      const std::size_t slot = slot_of(g);
      cur = simulate_slot(slot, cur, sample.device[slot], sample.wire, ws);
    }
    delays.push_back(cur.params.m - spec_.input.m);
  }
  return delays;
}

stats::MonteCarloResult GraphAnalyzer::monte_carlo(
    const PathVariationModel& model, const stats::RunOptions& opt) const {
  LanePool<SampleWorkspace> pool(opt.exec.threads);
  stats::LanedPerformanceFn f = [this, &model, &pool](const Vector& w,
                                                      std::size_t lane) {
    return evaluate(sample_from_sources(model, w), pool.lane(lane))
        .max_delay;
  };
  return stats::Runner(opt).run_monte_carlo(f, sources(model));
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
