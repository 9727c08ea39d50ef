#include "ledger.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/registry.hpp"
#include "teta/batch.hpp"
#include "teta/stage.hpp"

namespace lcsf::benchsuite {

using circuit::SourceWaveform;
using numeric::Vector;
using timing::RampParams;
using timing::Samples;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("no VmHWM in " + path);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Tracer --------------------------------------------------------------

Tracer::Tracer()
    : epoch_ns_(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count()) {
  spans_.reserve(1u << 16);
}

std::uint64_t Tracer::now_ns() const {
  const std::int64_t t =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return static_cast<std::uint64_t>(t - epoch_ns_);
}

Tracer::Scope::Scope(Tracer& t, const char* name)
    : t_(t), idx_(static_cast<int>(t.spans_.size())), saved_(t.current_) {
  t_.spans_.push_back({name, t_.now_ns(), 0, saved_});
  t_.current_ = idx_;
}

Tracer::Scope::~Scope() {
  t_.spans_[static_cast<std::size_t>(idx_)].end_ns = t_.now_ns();
  t_.current_ = saved_;
}

double Tracer::self_s(const std::string& name) const {
  std::vector<std::uint64_t> child(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      total += spans_[i].end_ns - spans_[i].start_ns - child[i];
    }
  }
  return static_cast<double>(total) * 1e-9;
}

double Tracer::total_s(const std::string& name) const {
  std::uint64_t total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.end_ns - s.start_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

// ---- characterization ----------------------------------------------------

namespace {

std::size_t segments_for(std::size_t linear_elements) {
  // Same rule as the analyzers: elements ~ segments (R) + segments + 1
  // (C) + receiver.
  return std::max<std::size_t>(
      1, linear_elements > 2 ? (linear_elements - 2) / 2 : 1);
}

}  // namespace

PathModels characterize_path(const core::PathSpec& spec, Tracer& tr) {
  Tracer::Scope span(tr, "mor.characterize");
  const std::size_t segments = segments_for(spec.linear_elements_per_stage);
  const auto& lib = timing::cell_library();
  const auto inv =
      static_cast<std::size_t>(&timing::find_cell("INV") - lib.data());
  std::map<std::pair<std::size_t, std::size_t>, mor::VariationalRom> roms;
  PathModels out;
  for (std::size_t k = 0; k < spec.cells.size(); ++k) {
    core::StageModel st;
    st.cell = &lib.at(spec.cells[k]);
    const std::size_t receiver =
        k + 1 < spec.cells.size() ? spec.cells[k + 1] : inv;
    st.receiver_cap = core::input_pin_cap(lib.at(receiver), spec.tech);
    const auto key = std::make_pair(spec.cells[k], receiver);
    if (auto it = roms.find(key); it != roms.end()) {
      st.load = it->second;
    } else {
      st.load = core::characterize_stage_load(*st.cell, spec.tech, segments,
                                              st.receiver_cap,
                                              spec.rom_internal_modes);
      roms.emplace(key, st.load);
      ++out.blocks;
    }
    out.stages.push_back(std::move(st));
  }
  return out;
}

GraphModels characterize_graph(const core::GraphAnalyzer& an, Tracer& tr) {
  Tracer::Scope span(tr, "mor.characterize");
  const core::GraphSpec& spec = an.spec();
  const timing::GateNetlist& nl = spec.netlist;
  const std::size_t segments = segments_for(spec.linear_elements_per_stage);
  const auto& lib = timing::cell_library();
  const double latch_pin_cap =
      core::input_pin_cap(timing::find_cell("INV"), spec.tech);
  std::map<std::pair<std::size_t, double>, std::size_t> block_slot;
  GraphModels out;
  for (const std::size_t g : an.subgraph_gates()) {
    const timing::Gate& gate = nl.gates[g];
    // The load of a gate: its wire plus every fanout pin (a latch D input,
    // modeled as an INV pin, for endpoint gates).
    double cap = 0.0;
    for (const timing::Gate& h : nl.gates) {
      for (const std::size_t in : h.inputs) {
        if (in == gate.output) {
          cap += core::input_pin_cap(lib.at(h.cell), spec.tech);
        }
      }
    }
    if (cap <= 0.0) cap = latch_pin_cap;
    core::StageModel st;
    st.cell = &lib.at(gate.cell);
    st.receiver_cap = cap;
    const auto key = std::make_pair(gate.cell, cap);
    if (auto it = block_slot.find(key); it != block_slot.end()) {
      st.load = out.slots[it->second].load;
    } else {
      st.load = core::characterize_stage_load(*st.cell, spec.tech, segments,
                                              cap, spec.rom_internal_modes);
      block_slot.emplace(key, out.slots.size());
      ++out.blocks;
    }
    out.slots.push_back(std::move(st));
  }
  return out;
}

// ---- per-sample replays --------------------------------------------------

ReplayCounts& ReplayCounts::operator+=(const ReplayCounts& o) {
  samples += o.samples;
  stage_sims += o.stage_sims;
  memo_hits += o.memo_hits;
  merges += o.merges;
  lockstep += o.lockstep;
  window_retry += o.window_retry;
  chord_iters += o.chord_iters;
  dropped_poles += o.dropped_poles;
  mismatches += o.mismatches;
  return *this;
}

namespace {

Vector normalized_wire(const circuit::Technology& tech,
                       const interconnect::WireVariation& wire) {
  return Vector{
      tech.wire_tol.width > 0.0 ? wire.width / tech.wire_tol.width : 0.0,
      tech.wire_tol.ild_thickness > 0.0
          ? wire.ild_thickness / tech.wire_tol.ild_thickness
          : 0.0};
}

/// The per-lane stage circuit, built exactly as the engines build it.
void build_stage(const core::StageModel& st, const circuit::Technology& tech,
                 const SourceWaveform& input,
                 const timing::DeviceVariation& dev, teta::StageCircuit& out) {
  out = teta::StageCircuit{};
  const std::size_t port = out.add_port();
  (void)out.add_port();  // far port (receiver side), observed
  const std::size_t in = out.add_input(input);
  const std::size_t vdd = out.add_rail(tech.vdd);
  const std::size_t gnd = out.add_rail(0.0);
  timing::instantiate_cell(*st.cell, tech, out, port, in, vdd, gnd, dev);
  out.freeze_device_capacitances();
}

teta::TetaOptions teta_options(double dt, double tstop, double vdd,
                               const sim::RecoveryOptions& recovery) {
  teta::TetaOptions o;
  o.dt = dt;
  o.tstop = tstop;
  o.vdd = vdd;
  o.recovery = recovery;
  return o;
}

/// Counters the engines record through obs while a replay runs.
void add_engine_counts(const obs::Registry& reg, ReplayCounts& c,
                       std::size_t* scalar_in_batch) {
  const obs::Snapshot snap = reg.snapshot();
  auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  c.chord_iters += counter("teta.chord_iterations");
  c.dropped_poles += counter("mor.dropped_poles");
  if (scalar_in_batch != nullptr) {
    const auto it = snap.timers.find("teta.stage_batch/teta.stage");
    *scalar_in_batch = it == snap.timers.end() ? 0 : it->second.count;
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

ReplayCounts replay_path(const core::PathAnalyzer& an, const PathModels& pm,
                         const core::PathVariationModel& model,
                         const stats::MonteCarloResult& mc, std::size_t block,
                         Tracer& tr) {
  const core::PathSpec& spec = an.spec();
  const circuit::Technology& tech = spec.tech;
  const double vdd = tech.vdd;
  const core::StageSimOptions sopt{spec.dt, spec.stage_window, spec.recovery};
  const teta::TetaOptions topt =
      teta_options(spec.dt, spec.stage_window, vdd, spec.recovery);
  const teta::TetaOptions dc_opt =
      teta_options(spec.dt, spec.dt, vdd, spec.recovery);
  const std::size_t nstages = pm.stages.size();

  ReplayCounts counts;
  obs::Registry reg;  // engine counters of the ledger pass only
  std::size_t batch_lanes = 0;

  core::BatchWorkspace bws;
  // Probe scratch, separate so the ledger pass never sees probe state.
  teta::BatchTetaWorkspace probe_bws;
  std::vector<teta::TetaWorkspace> probe_ws(block);
  std::vector<teta::TetaResult> probe_res(block);

  const std::size_t n = mc.samples.size();
  for (std::size_t b0 = 0; b0 < n; b0 += block) {
    const std::size_t nl = std::min(block, n - b0);
    std::vector<core::PathSample> samples(nl);
    {
      Tracer::Scope span(tr, "core.sample");
      for (std::size_t l = 0; l < nl; ++l) {
        samples[l] = an.sample_from_sources(model, mc.samples[b0 + l]);
      }
    }
    // Per-lane propagation state (run_chain_batch's locals).
    std::vector<SourceWaveform> wave(nl, spec.input.to_source(vdd));
    std::vector<double> m_current(nl, spec.input.m);
    std::vector<RampParams> out_params(nl);
    std::vector<unsigned char> alive(nl, 1);
    // Lanes that ran the lockstep batch, kept per stage for the probes.
    std::vector<std::vector<teta::StageCircuit>> probe_stage(nstages);
    std::vector<std::vector<mor::PoleResidueModel>> probe_load(nstages);

    {
      Tracer::Scope block_span(tr, "replay.block");
      obs::ScopedContext obs_scope(&reg, 0);
      bool rising = spec.input.rising;
      std::vector<std::size_t> idx;
      std::vector<SourceWaveform> local;
      std::vector<double> shifts;
      std::vector<Samples> souts;
      std::vector<RampParams> meas;
      for (std::size_t k = 0; k < nstages; ++k) {
        const core::StageModel& st = pm.stages[k];
        const bool out_rising = rising != st.cell->inverting;
        {
          Tracer::Scope span(tr, "core.propagate");
          idx.clear();
          local.clear();
          shifts.clear();
          for (std::size_t l = 0; l < nl; ++l) {
            if (alive[l] == 0) continue;
            // Localize time so the transition sits at ~1/4 of the window.
            const double shift =
                std::max(0.0, m_current[l] - 0.25 * spec.stage_window);
            local.push_back(shift > 0.0
                                ? SourceWaveform::pwl(core::shifted_samples(
                                      wave[l].points(), -shift))
                                : wave[l]);
            idx.push_back(l);
            shifts.push_back(shift);
          }
        }
        if (idx.empty()) break;
        const std::size_t nb = idx.size();
        bws.fallback.assign(nb, 0);
        souts.assign(nb, Samples{});
        meas.assign(nb, RampParams{});
        {
          Tracer::Scope span(tr, "mor.evaluate");
          bws.w.resize(nb);
          bws.wptr.clear();
          bws.romptr.clear();
          for (std::size_t s = 0; s < nb; ++s) {
            bws.w[s] = normalized_wire(tech, samples[idx[s]].wire);
            bws.wptr.push_back(&bws.w[s]);
            bws.romptr.push_back(&bws.lane(s).rom);
          }
          st.load.evaluate_into_batch(bws.wptr, bws.romptr);
        }
        bws.z.resize(nb);
        for (std::size_t s = 0; s < nb; ++s) {
          core::SampleWorkspace& ws = bws.lane(s);
          try {
            mor::PoleResidueModel raw;
            {
              Tracer::Scope span(tr, "mor.poleres");
              raw = mor::extract_pole_residue(ws.rom, ws.poleres);
            }
            Tracer::Scope span(tr, "mor.stabilize");
            bws.z[s] = mor::stabilize(
                raw, nullptr, mor::StabilizePolicy::kDirectCompensation);
          } catch (const std::runtime_error&) {
            bws.fallback[s] = 1;
          }
        }
        {
          Tracer::Scope span(tr, "teta.build");
          bws.stages.resize(nb);
          for (std::size_t s = 0; s < nb; ++s) {
            if (bws.fallback[s] != 0) continue;
            build_stage(st, tech, local[s], samples[idx[s]].device[k],
                        bws.stages[s]);
          }
        }
        bws.teta_lanes.clear();
        bws.slot.clear();
        for (std::size_t s = 0; s < nb; ++s) {
          if (bws.fallback[s] != 0) continue;
          core::SampleWorkspace& ws = bws.lane(s);
          bws.teta_lanes.push_back(
              {&bws.stages[s], &bws.z[s], &ws.teta, &ws.teta_result});
          bws.slot.push_back(s);
          probe_stage[k].push_back(bws.stages[s]);
          probe_load[k].push_back(bws.z[s]);
        }
        if (!bws.teta_lanes.empty()) {
          Tracer::Scope span(tr, "teta.batch");
          teta::simulate_stage_batch(bws.teta_lanes, topt, bws.teta);
        }
        if (bws.teta_lanes.size() >= 2) batch_lanes += bws.teta_lanes.size();
        for (const std::size_t s : bws.slot) {
          const teta::TetaResult& res = bws.lane(s).teta_result;
          if (!res.converged) {
            bws.fallback[s] = 1;
            continue;
          }
          Tracer::Scope span(tr, "timing.measure");
          try {
            Samples so = res.waveform(1);  // far port
            RampParams p = timing::measure_ramp(so, vdd, out_rising);
            p.m += shifts[s];
            meas[s] = p;
            souts[s] = core::shifted_samples(so, shifts[s]);
          } catch (const std::runtime_error&) {
            bws.fallback[s] = 1;  // transition incomplete at window 1.0
          }
        }
        for (std::size_t s = 0; s < nb; ++s) {
          if (bws.fallback[s] == 0) continue;
          Tracer::Scope span(tr, "core.fallback");
          ++counts.window_retry;
          const std::size_t l = idx[s];
          try {
            meas[s] = core::measure_stage_with_retry(
                st, tech, sopt, k, local[s], shifts[s],
                samples[l].device[k], samples[l].wire, out_rising, &souts[s],
                &bws.lane(s));
          } catch (const sim::SimulationError&) {
            alive[l] = 0;
          }
        }
        {
          Tracer::Scope span(tr, "core.propagate");
          for (std::size_t s = 0; s < nb; ++s) {
            const std::size_t l = idx[s];
            if (alive[l] == 0) continue;
            // Propagate the fine-resolution PWL (adaptively compressed).
            wave[l] =
                SourceWaveform::pwl(teta::compress_pwl(souts[s], 1e-4 * vdd));
            m_current[l] = meas[s].m;
            out_params[l] = meas[s];
          }
        }
        counts.stage_sims += nb;
        rising = out_rising;
      }
    }
    for (std::size_t l = 0; l < nl; ++l) {
      ++counts.samples;
      if (alive[l] == 0 ||
          !same_bits(out_params[l].m - spec.input.m, mc.values[b0 + l])) {
        ++counts.mismatches;
      }
    }

    // Probes on the same lanes: DC setup alone (one step), and the pooled
    // scalar engine for the batch-vs-scalar reference.
    for (std::size_t k = 0; k < nstages; ++k) {
      const std::size_t np = probe_stage[k].size();
      if (np == 0) continue;
      std::vector<teta::BatchLane> lanes;
      for (std::size_t s = 0; s < np; ++s) {
        lanes.push_back({&probe_stage[k][s], &probe_load[k][s], &probe_ws[s],
                         &probe_res[s]});
      }
      {
        Tracer::Scope span(tr, "probe.teta.setup_dc");
        teta::simulate_stage_batch(lanes, dc_opt, probe_bws);
      }
      Tracer::Scope span(tr, "probe.teta.scalar");
      for (std::size_t s = 0; s < np; ++s) {
        teta::simulate_stage(probe_stage[k][s], probe_load[k][s], topt,
                             probe_ws[s], probe_res[s]);
      }
    }
  }
  std::size_t scalar_in_batch = 0;
  add_engine_counts(reg, counts, &scalar_in_batch);
  counts.lockstep = batch_lanes - std::min(batch_lanes, scalar_in_batch);
  return counts;
}

ReplayCounts replay_graph(const core::GraphAnalyzer& an,
                          const GraphModels& gm,
                          const core::PathVariationModel& model,
                          const stats::MonteCarloResult& mc, Tracer& tr) {
  const core::GraphSpec& spec = an.spec();
  const circuit::Technology& tech = spec.tech;
  const timing::GateNetlist& nl = spec.netlist;
  const double vdd = tech.vdd;
  const core::StageSimOptions sopt{spec.dt, spec.stage_window, spec.recovery};
  const teta::TetaOptions topt =
      teta_options(spec.dt, spec.stage_window, vdd, spec.recovery);
  const teta::TetaOptions dc_opt =
      teta_options(spec.dt, spec.dt, vdd, spec.recovery);
  const std::vector<std::size_t>& subgraph = an.subgraph_gates();
  const double q =
      spec.ramp_bucket_quantum > 0.0 ? spec.ramp_bucket_quantum : 1e-15;

  ReplayCounts counts;
  obs::Registry reg;
  core::SampleWorkspace ws;
  teta::TetaWorkspace probe_ws;
  teta::TetaResult probe_res;
  std::map<core::StageCacheKey, core::StageWaveform> memo;
  std::map<std::size_t, core::StageWaveform> arrival;

  for (std::size_t si = 0; si < mc.samples.size(); ++si) {
    std::vector<teta::StageCircuit> probe_stage;
    std::vector<mor::PoleResidueModel> probe_load;
    double max_delay = 0.0;
    bool failed = false;
    {
      Tracer::Scope sample_span(tr, "replay.sample");
      obs::ScopedContext obs_scope(&reg, 0);
      core::GraphSample sample;
      {
        Tracer::Scope span(tr, "core.sample");
        sample = an.sample_from_sources(model, mc.samples[si]);
      }
      core::StageWaveform start;
      {
        Tracer::Scope span(tr, "core.memo");
        memo.clear();
        arrival.clear();
        start.params = spec.input;
        start.wave = spec.input.to_source(vdd);
      }
      for (const timing::TimingPath& path : an.paths()) {
        for (std::size_t k = 0; k < path.gates.size() && !failed; ++k) {
          const std::size_t g = path.gates[k];
          const core::StageWaveform* in = &start;
          const core::StageWaveform* out = nullptr;
          core::StageCacheKey key;
          {
            Tracer::Scope span(tr, "core.memo");
            const std::size_t in_net =
                nl.gates[g].inputs[path.switching_pin[k]];
            if (auto it = arrival.find(in_net); it != arrival.end()) {
              in = &it->second;
            }
            key = core::StageCacheKey{g, std::llround(in->params.m / q),
                                      std::llround(in->params.s / q),
                                      in->params.rising};
            if (auto it = memo.find(key); it != memo.end()) {
              out = &it->second;
              ++counts.memo_hits;
            }
          }
          if (out == nullptr) {
            const auto slot = static_cast<std::size_t>(
                std::lower_bound(subgraph.begin(), subgraph.end(), g) -
                subgraph.begin());
            const core::StageModel& st = gm.slots[slot];
            const timing::DeviceVariation& dev = sample.device[slot];
            SourceWaveform local;
            double shift = 0.0;
            {
              Tracer::Scope span(tr, "core.propagate");
              shift = std::max(0.0, in->params.m - 0.25 * spec.stage_window);
              local = shift > 0.0 ? SourceWaveform::pwl(core::shifted_samples(
                                        in->wave.points(), -shift))
                                  : in->wave;
            }
            const bool out_rising = in->params.rising != st.cell->inverting;
            core::StageWaveform sw;
            Samples souts;
            bool fallback = false;
            {
              Tracer::Scope span(tr, "mor.evaluate");
              st.load.evaluate_into(normalized_wire(tech, sample.wire),
                                    ws.rom);
            }
            mor::PoleResidueModel z;
            try {
              mor::PoleResidueModel raw;
              {
                Tracer::Scope span(tr, "mor.poleres");
                raw = mor::extract_pole_residue(ws.rom, ws.poleres);
              }
              Tracer::Scope span(tr, "mor.stabilize");
              z = mor::stabilize(raw, nullptr,
                                 mor::StabilizePolicy::kDirectCompensation);
            } catch (const std::runtime_error&) {
              fallback = true;
            }
            if (!fallback) {
              teta::StageCircuit circuit;
              {
                Tracer::Scope span(tr, "teta.build");
                build_stage(st, tech, local, dev, circuit);
              }
              {
                Tracer::Scope span(tr, "teta.scalar");
                teta::simulate_stage(circuit, z, topt, ws.teta,
                                     ws.teta_result);
              }
              if (!ws.teta_result.converged) {
                fallback = true;
              } else {
                Tracer::Scope span(tr, "timing.measure");
                try {
                  Samples so = ws.teta_result.waveform(1);  // far port
                  sw.params = timing::measure_ramp(so, vdd, out_rising);
                  sw.params.m += shift;
                  souts = core::shifted_samples(so, shift);
                } catch (const std::runtime_error&) {
                  fallback = true;
                }
              }
              probe_stage.push_back(std::move(circuit));
              probe_load.push_back(std::move(z));
            }
            if (fallback) {
              Tracer::Scope span(tr, "core.fallback");
              ++counts.window_retry;
              try {
                sw.params = core::measure_stage_with_retry(
                    st, tech, sopt, g, local, shift, dev, sample.wire,
                    out_rising, &souts, &ws);
              } catch (const sim::SimulationError&) {
                failed = true;
                break;
              }
            }
            {
              Tracer::Scope span(tr, "core.propagate");
              sw.wave =
                  SourceWaveform::pwl(teta::compress_pwl(souts, 1e-4 * vdd));
            }
            ++counts.stage_sims;
            Tracer::Scope span(tr, "core.memo");
            out = &memo.emplace(key, std::move(sw)).first->second;
          }
          // Statistical max at the output net: the later 50% arrival wins.
          Tracer::Scope span(tr, "core.memo");
          const auto [it, inserted] =
              arrival.emplace(nl.gates[g].output, *out);
          if (!inserted) {
            ++counts.merges;
            if (out->params.m > it->second.params.m) it->second = *out;
          }
        }
      }
      if (!failed) {
        Tracer::Scope span(tr, "core.memo");
        for (const std::size_t net : an.endpoint_nets()) {
          max_delay =
              std::max(max_delay, arrival.at(net).params.m - spec.input.m);
        }
      }
    }
    ++counts.samples;
    if (failed || !same_bits(max_delay, mc.values[si])) ++counts.mismatches;

    Tracer::Scope span(tr, "probe.teta.setup_dc");
    for (std::size_t s = 0; s < probe_stage.size(); ++s) {
      teta::simulate_stage(probe_stage[s], probe_load[s], dc_opt, probe_ws,
                           probe_res);
    }
  }
  add_engine_counts(reg, counts, nullptr);
  return counts;
}

SpiceCompare spice_compare(const core::PathAnalyzer& an,
                           const core::PathVariationModel& model,
                           std::size_t n, std::uint64_t seed, Tracer& tr) {
  stats::RunOptions opt;
  opt.samples = n;
  opt.seed = seed;
  opt.exec.threads = 1;
  const stats::MonteCarloResult mc = an.monte_carlo(model, opt);
  SpiceCompare out;
  obs::Registry reg;
  core::SampleWorkspace ws;
  (void)an.framework_delay(an.sample_from_sources(model, mc.samples[0]), ws);
  for (std::size_t i = 0; i < mc.samples.size(); ++i) {
    const core::PathSample ps = an.sample_from_sources(model, mc.samples[i]);
    double fw = 0.0;
    double sp = 0.0;
    {
      Tracer::Scope span(tr, "framework.sample");
      const double t0 = now_s();
      fw = an.framework_delay(ps, ws).delay;
      out.framework_s += now_s() - t0;
    }
    {
      Tracer::Scope span(tr, "spice.sample");
      obs::ScopedContext obs_scope(&reg, 0);
      const double t0 = now_s();
      sp = an.spice_delay(ps).delay;
      out.spice_s += now_s() - t0;
    }
    out.max_rel_err = std::max(out.max_rel_err, std::fabs(fw - sp) / sp);
    ++out.samples;
  }
  const obs::Snapshot snap = reg.snapshot();
  auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  out.newton_iters = counter("spice.newton_iterations");
  out.steps = counter("spice.steps");
  out.lu_refactors = counter("spice.lu_refactors");
  out.lu_full_factors = counter("spice.lu_full_factors");
  return out;
}

}  // namespace lcsf::benchsuite
