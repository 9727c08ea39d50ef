#include "core/path.hpp"

#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "interconnect/coupled_lines.hpp"
#include "obs/span.hpp"
#include "spice/transient.hpp"

namespace lcsf::core {

using circuit::kGround;
using circuit::SourceWaveform;
using numeric::Vector;
using timing::RampParams;

PathSpec PathSpec::from_benchmark(const circuit::Technology& tech,
                                  const timing::GateNetlist& nl,
                                  const timing::TimingPath& path,
                                  std::size_t linear_elements) {
  PathSpec spec;
  spec.tech = tech;
  spec.linear_elements_per_stage = linear_elements;
  for (std::size_t g : path.gates) {
    spec.cells.push_back(nl.gates[g].cell);
  }
  return spec;
}

PathAnalyzer::PathAnalyzer(PathSpec spec) : spec_(std::move(spec)) {
  obs::ScopedSpan span("core.characterize");
  if (spec_.cells.empty()) {
    throw std::invalid_argument("PathAnalyzer: empty path");
  }
  const auto& lib = timing::cell_library();
  // Stages with the same (driver cell, receiver cell) have identical
  // effective loads; characterize each combination once.
  std::map<std::pair<std::size_t, std::size_t>, mor::VariationalRom>
      rom_cache;
  // Every stage's wire is the same, so distinct (cell, receiver) blocks
  // differ only in port entries and share their PACT eigensolves.
  mor::PactMemo pact_memo;
  for (std::size_t k = 0; k < spec_.cells.size(); ++k) {
    StageModel st;
    st.cell = &lib.at(spec_.cells[k]);

    const std::size_t receiver_idx =
        (k + 1 < spec_.cells.size())
            ? spec_.cells[k + 1]
            : static_cast<std::size_t>(
                  &timing::find_cell("INV") - lib.data());
    const timing::CellTemplate& receiver = lib.at(receiver_idx);
    st.receiver_cap = input_pin_cap(receiver, spec_.tech);

    const auto cache_key = std::make_pair(spec_.cells[k], receiver_idx);
    if (auto it = rom_cache.find(cache_key); it != rom_cache.end()) {
      st.load = it->second;
      stages_.push_back(std::move(st));
      continue;
    }

    st.load = characterize_stage_load(*st.cell, spec_.tech,
                                      spec_.wire_segments(), st.receiver_cap,
                                      spec_.rom_internal_modes, &pact_memo);
    rom_cache.emplace(cache_key, st.load);
    stages_.push_back(std::move(st));
  }
}

PathDelayResult PathAnalyzer::framework_delay(const PathSample& sample)
    const {
  SampleWorkspace ws;
  return framework_delay(sample, ws);
}

PathDelayResult PathAnalyzer::framework_delay(const PathSample& sample,
                                              SampleWorkspace& ws) const {
  return chain_delay(sample, ws.batch());
}

PathDelayResult PathAnalyzer::chain_delay(
    const PathSample& sample, BatchWorkspace& bws,
    std::vector<RampParams>* stage_inputs) const {
  if (sample.device.size() != stages_.size()) {
    throw std::invalid_argument("framework_delay: sample size mismatch");
  }
  stats::BatchSlot slot;
  RampParams output;
  run_chain_batch({&sample, 1}, bws, {&slot, 1}, &output, stage_inputs);
  if (slot.failed) throw sim::SimulationError(std::move(slot.diag));
  return {slot.value, output.s};
}

void PathAnalyzer::run_chain_batch(std::span<const PathSample> samples,
                                   BatchWorkspace& bws,
                                   std::span<stats::BatchSlot> out,
                                   RampParams* output,
                                   std::vector<RampParams>* stage_inputs)
    const {
  const double vdd = spec_.tech.vdd;
  // The arrival front of the live lanes; bws.live maps each to its sample.
  bws.front.assign(samples.size(),
                   StageWaveform{spec_.input, spec_.input.to_source(vdd)});
  bws.live.resize(samples.size());
  std::iota(bws.live.begin(), bws.live.end(), std::size_t{0});
  for (std::size_t k = 0; k < stages_.size() && !bws.live.empty(); ++k) {
    if (stage_inputs != nullptr && bws.live[0] == 0) {
      // Ramp-equivalent parameters of this stage's input (for GA).
      stage_inputs->push_back(timing::measure_ramp(
          bws.front[0].wave.points(), vdd, bws.front[0].params.rising));
    }
    bws.devs.clear();
    bws.wires.clear();
    for (const std::size_t l : bws.live) {
      bws.devs.push_back(&samples[l].device[k]);
      bws.wires.push_back(&samples[l].wire);
    }
    propagate_stage_batch(stages_[k], spec_.tech, spec_.sim_options(), k,
                          bws.front, bws.devs, bws.wires, bws.next, bws.meas,
                          bws);
    std::size_t n = 0;
    for (std::size_t i = 0; i < bws.live.size(); ++i) {
      const std::size_t l = bws.live[i];
      if (bws.meas[i].failed) {
        out[l].failed = true;
        out[l].diag = std::move(bws.meas[i].diag);
        continue;
      }
      bws.live[n] = l;
      std::swap(bws.front[n], bws.next[i]);
      ++n;
    }
    bws.live.resize(n);
    bws.front.resize(n);
  }
  for (std::size_t i = 0; i < bws.live.size(); ++i) {
    out[bws.live[i]].value = bws.front[i].params.m - spec_.input.m;
  }
  if (output != nullptr && !bws.live.empty() && bws.live[0] == 0) {
    *output = bws.front[0].params;
  }
}

PathDelayResult PathAnalyzer::spice_delay(const PathSample& sample) const {
  if (sample.device.size() != stages_.size()) {
    throw std::invalid_argument("spice_delay: sample size mismatch");
  }
  const double vdd_v = spec_.tech.vdd;
  const circuit::WireGeometry geom =
      interconnect::apply_variation(spec_.tech.wire, sample.wire);
  const auto pul = interconnect::sakurai_parasitics(geom);
  const double seg_r = pul.resistance * 1e-6;
  const double seg_c = pul.ground_capacitance * 1e-6;
  const std::size_t segments = spec_.wire_segments();

  circuit::Netlist nl;
  const auto vdd = nl.add_node("vdd");
  nl.add_vsource(vdd, kGround, SourceWaveform::dc(vdd_v));
  const auto in0 = nl.add_node("in0");
  nl.add_vsource(in0, kGround, spec_.input.to_source(vdd_v));

  circuit::NodeId prev = in0;
  circuit::NodeId last_far = prev;
  for (std::size_t k = 0; k < stages_.size(); ++k) {
    const timing::CellTemplate& cell = *stages_[k].cell;
    const auto out = nl.add_node("s" + std::to_string(k) + "_out");
    // Side inputs tied to the sensitizing rails.
    std::vector<circuit::NodeId> ins(cell.num_inputs);
    ins[0] = prev;
    for (std::size_t pin = 1; pin < cell.num_inputs; ++pin) {
      ins[pin] = cell.side_values[pin] ? vdd : kGround;
    }
    timing::instantiate_cell(cell, spec_.tech, nl, out, ins, vdd,
                             sample.device[k]);
    // Wire ladder to the next stage.
    circuit::NodeId node = out;
    nl.add_capacitor(node, kGround, 0.5 * seg_c);
    for (std::size_t s = 0; s < segments; ++s) {
      const auto next = nl.add_node();
      nl.add_resistor(node, next, seg_r);
      nl.add_capacitor(next, kGround,
                       s + 1 == segments ? 0.5 * seg_c : seg_c);
      node = next;
    }
    // Interior stages are loaded by the next cell's real gate caps (added
    // by freeze_device_capacitances); only the last stage's receiver needs
    // an explicit model.
    if (k + 1 == stages_.size()) {
      nl.add_capacitor(node, kGround, stages_[k].receiver_cap);
    }
    last_far = node;
    prev = node;
  }
  nl.freeze_device_capacitances();

  spice::TransientSimulator sim(nl);
  spice::TransientOptions opt;
  opt.dt = spec_.dt;
  opt.recovery = spec_.recovery;
  // The whole transition must march down the path inside one window.
  opt.tstop = spec_.input.m + 0.5 * spec_.input.s +
              static_cast<double>(stages_.size()) * spec_.stage_window;
  spice::TransientResult res = sim.run(opt);
  if (!res.converged) {
    sim::SimDiagnostics diag = res.diag;
    diag.detail = "whole-path SPICE: " + diag.detail;
    throw sim::SimulationError(std::move(diag));
  }
  bool rising = spec_.input.rising;
  for (const StageModel& st : stages_) {
    rising = st.cell->inverting ? !rising : rising;
  }
  const RampParams out =
      timing::measure_ramp(res.waveform(last_far), vdd_v, rising);
  PathDelayResult r;
  r.delay = out.m - spec_.input.m;
  r.output_slew = out.s;
  return r;
}

stats::MonteCarloResult PathAnalyzer::monte_carlo_over(
    const stats::RunOptions& opt,
    const std::vector<stats::VariationSource>& variates,
    const std::function<PathSample(const Vector&)>& to_sample) const {
  LanePool<BatchWorkspace> pool(opt.exec.threads);
  stats::LanedPerformanceFn f = [&](const Vector& v, std::size_t lane) {
    return chain_delay(to_sample(v), pool.lane(lane)).delay;
  };
  stats::BatchPerformanceFn fb = [&](const std::vector<Vector>& v,
                                     std::size_t lane,
                                     std::vector<stats::BatchSlot>& out) {
    std::vector<PathSample> block;
    block.reserve(v.size());
    for (const Vector& vi : v) block.push_back(to_sample(vi));
    run_chain_batch(block, pool.lane(lane), out);
  };
  return stats::Runner(opt).run_monte_carlo(f, fb, variates);
}

stats::MonteCarloResult PathAnalyzer::monte_carlo(
    const PathVariationModel& model, const stats::RunOptions& opt) const {
  return monte_carlo_over(opt, sources(model), [&](const Vector& w) {
    return sample_from_sources(model, w);
  });
}

stats::IsYieldEstimate PathAnalyzer::yield_importance(
    const PathVariationModel& model, double clock_period,
    const stats::RunOptions& opt) const {
  LanePool<BatchWorkspace> pool(opt.exec.threads);
  stats::LanedPerformanceFn f = [this, &model, &pool](const Vector& w,
                                                      std::size_t lane) {
    return chain_delay(sample_from_sources(model, w), pool.lane(lane)).delay;
  };
  return stats::Runner(opt).run_yield_is(f, sources(model), clock_period);
}

PathAnalyzer::CorrelatedMcResult PathAnalyzer::monte_carlo_correlated(
    const PathVariationModel& model, double rho,
    const stats::RunOptions& opt) const {
  const auto src = sources(model);
  const std::size_t nsrc = src.size();
  if (nsrc == 0) {
    sim::throw_invalid_input("monte_carlo_correlated: no sources");
  }

  // Correlation structure: the per-stage device sources of the same kind
  // share a common factor with pairwise correlation rho (spatially
  // correlated manufacturing); different kinds and the global wire
  // sources stay independent. Build the block covariance and run PCA.
  const std::size_t per_stage = model.sources_per_stage();
  numeric::Matrix cov(nsrc, nsrc);
  for (std::size_t i = 0; i < nsrc; ++i) {
    for (std::size_t j = 0; j < nsrc; ++j) {
      double c = 0.0;
      if (i == j) {
        c = 1.0;
      } else if (per_stage > 0 && i < per_stage * stages_.size() &&
                 j < per_stage * stages_.size() &&
                 (i % per_stage) == (j % per_stage)) {
        c = rho;  // same parameter kind, different stage
      }
      cov(i, j) = c * src[i].sigma * src[j].sigma;
    }
  }
  stats::Pca pca(cov, Vector(nsrc, 0.0));
  const std::size_t nfactors = pca.factors_for(0.95);

  // Sample the leading independent factors; reverse-transform to the
  // physical sources (Sec. 4.1.1's "by-product reverse transformation").
  CorrelatedMcResult res;
  res.mc = monte_carlo_over(
      opt, std::vector<stats::VariationSource>(nfactors),
      [&](const Vector& z) {
        return sample_from_sources(model, pca.from_factors(z));
      });
  res.total_sources = nsrc;
  res.factors_used = nfactors;
  return res;
}

PathAnalyzer::GaResult PathAnalyzer::gradient_analysis(
    const PathVariationModel& model) const {
  SampleWorkspace ws;  // shared by the nominal chain and every probe
  const auto src = sources(model);
  const std::size_t nsrc = src.size();
  const std::size_t per_stage = model.sources_per_stage();
  // Sensitivity state propagated along the path (Eq. 31).
  Vector dm(nsrc, 0.0);
  Vector ds(nsrc, 0.0);

  // Nominal chain with the true propagated waveform: gives the unbiased
  // nominal delay (the paper's GA means coincide with MC means) and the
  // per-stage nominal input slews about which the derivatives are taken.
  std::vector<RampParams> stage_in;
  PathSample nominal_sample;
  nominal_sample.device.resize(stages_.size());
  const PathDelayResult nominal_chain =
      chain_delay(nominal_sample, ws.batch(), &stage_in);
  std::size_t sims = stages_.size();
  bool rising = spec_.input.rising;

  for (std::size_t k = 0; k < stages_.size(); ++k) {
    // Stage transfer sensitivities at the saturated-ramp abstraction
    // (Eq. 30), scattered into the source layout of sample_from_sources.
    const StageSensitivity sens =
        stage_sensitivity(stages_[k], spec_.tech, spec_.sim_options(), k,
                          stage_in[k].s, rising, model, &ws);
    sims += sens.simulations;
    Vector dD_dw(nsrc, 0.0), dF_dw(nsrc, 0.0);
    const auto put = [&](const DelaySlew& d, std::size_t l) {
      dD_dw[l] = d.delay;
      dF_dw[l] = d.slew;
    };
    std::size_t idx = k * per_stage;
    std::size_t gidx = per_stage * stages_.size();
    if (model.std_dl > 0.0) put(sens.d_dl, idx++);
    if (model.std_vt > 0.0) put(sens.d_vt, idx++);
    if (model.std_wire_w > 0.0) put(sens.d_wire_w, gidx++);
    if (model.std_wire_h > 0.0) put(sens.d_wire_h, gidx++);

    // Recurrence of Eq. 31 with dM_out/dM_in = 1 (time invariance):
    //   dM_out/dw = dD/dw + dM_in/dw + dD/dS dS_in/dw
    //   dS_out/dw = dF/dw + dF/dS dS_in/dw.
    for (std::size_t l = 0; l < nsrc; ++l) {
      dm[l] = dm[l] + dD_dw[l] + sens.d_slew.delay * ds[l];
      ds[l] = dF_dw[l] + sens.d_slew.slew * ds[l];
    }
    rising = rising != stages_[k].cell->inverting;
  }

  // Eq. 24 over the normalized sources (the probe's derivatives are per
  // normalized unit).
  double var = 0.0;
  for (std::size_t l = 0; l < nsrc; ++l) {
    var += src[l].sigma * src[l].sigma * dm[l] * dm[l];
  }

  GaResult res;
  res.nominal_delay = nominal_chain.delay;
  res.stddev = std::sqrt(var);
  res.simulations = sims;
  res.gradient = dm;
  return res;
}

PathAnalyzer::CornerResult PathAnalyzer::worst_case_corner(
    const PathVariationModel& model, double k_sigma) const {
  const auto ga = gradient_analysis(model);
  const auto src = sources(model);
  CornerResult res;
  res.corner.resize(src.size());
  for (std::size_t l = 0; l < src.size(); ++l) {
    const double direction = ga.gradient[l] >= 0.0 ? 1.0 : -1.0;
    res.corner[l] = direction * k_sigma * src[l].sigma;
  }
  res.delay =
      framework_delay(sample_from_sources(model, res.corner)).delay;
  return res;
}

std::size_t PathAnalyzer::total_linear_elements() const {
  // Per stage: wire R (segments) + wire C (segments + 1) + receiver cap.
  return stages_.size() * (2 * spec_.wire_segments() + 2);
}

std::size_t PathAnalyzer::memory_bytes() const {
  std::size_t total =
      sizeof(*this) + stages_.capacity() * sizeof(StageModel);
  for (const StageModel& s : stages_) {
    total += s.memory_bytes() - sizeof(StageModel);
  }
  return total;
}

}  // namespace lcsf::core
