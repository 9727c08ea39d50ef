#include "core/path.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "interconnect/coupled_lines.hpp"
#include "obs/span.hpp"
#include "spice/transient.hpp"
#include "stats/pca.hpp"

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
  // The path as a one-path graph: net k drives gate k, whose output is
  // net k + 1, and every side input sits on one undriven net. So stage k
  // is loaded by cell k + 1's input pin, the last stage by a latch pin.
  GraphSpec chain;
  static_cast<StageSpec&>(chain) = spec_;
  chain.top_k = 1;
  const std::size_t n = spec_.cells.size();
  chain.netlist.num_nets = n + 2;
  chain.netlist.primary_inputs = {0};
  chain.netlist.latch_inputs = {n};
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t cell = spec_.cells[k];
    timing::Gate gate{cell, {}, k + 1};
    gate.inputs.assign(timing::cell_library().at(cell).num_inputs, n + 1);
    gate.inputs[0] = k;
    chain.netlist.gates.push_back(std::move(gate));
  }
  graph_ = std::make_unique<GraphAnalyzer>(std::move(chain));
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
  if (sample.device.size() != num_stages()) {
    throw std::invalid_argument("framework_delay: sample size mismatch");
  }
  GraphAnalyzer::SampleResult res;
  stats::BatchSlot slot;
  graph_->evaluate({&sample, 1}, bws, {&res, 1}, {&slot, 1}, stage_inputs);
  if (slot.failed) throw sim::SimulationError(std::move(slot.diag));
  return {res.endpoints[0].delay, res.endpoints[0].slew};
}

PathDelayResult PathAnalyzer::spice_delay(const PathSample& sample) const {
  if (sample.device.size() != num_stages()) {
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
  bool rising = spec_.input.rising;
  for (std::size_t k = 0; k < num_stages(); ++k) {
    const timing::CellTemplate& cell = *stage_model(k).cell;
    rising = rising != cell.inverting;
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
    if (k + 1 == num_stages()) {
      nl.add_capacitor(node, kGround, stage_model(k).receiver_cap);
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
              static_cast<double>(num_stages()) * spec_.stage_window;
  spice::TransientResult res = sim.run(opt);
  if (!res.converged) {
    sim::SimDiagnostics diag = res.diag;
    diag.detail = "whole-path SPICE: " + diag.detail;
    throw sim::SimulationError(std::move(diag));
  }
  const RampParams out =
      timing::measure_ramp(res.waveform(last_far), vdd_v, rising);
  PathDelayResult r;
  r.delay = out.m - spec_.input.m;
  r.output_slew = out.s;
  return r;
}

stats::BatchPerformanceFn PathAnalyzer::block_walk(
    std::size_t threads,
    std::function<PathSample(const Vector&)> to_sample) const {
  return graph_->block_walk(
      threads, std::move(to_sample),
      [](const GraphAnalyzer::SampleResult& r) {
        return r.endpoints[0].delay;
      });
}

stats::MonteCarloResult PathAnalyzer::monte_carlo(
    const PathVariationModel& model, const stats::RunOptions& opt) const {
  const auto to_sample = [&](const Vector& w) {
    return sample_from_sources(model, w);
  };
  return stats::Runner(opt).run_monte_carlo(
      block_walk(opt.exec.threads, to_sample), sources(model));
}

stats::IsYieldEstimate PathAnalyzer::yield_importance(
    const PathVariationModel& model, double clock_period,
    const stats::RunOptions& opt) const {
  const auto to_sample = [&](const Vector& w) {
    return sample_from_sources(model, w);
  };
  return stats::Runner(opt).run_yield_is(
      block_walk(opt.exec.threads, to_sample), sources(model), clock_period);
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
      } else if (per_stage > 0 && i < per_stage * num_stages() &&
                 j < per_stage * num_stages() &&
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
  res.mc = stats::Runner(opt).run_monte_carlo(
      block_walk(opt.exec.threads,
                 [&](const Vector& z) {
                   return sample_from_sources(model, pca.from_factors(z));
                 }),
      std::vector<stats::VariationSource>(nfactors));
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
  nominal_sample.device.resize(num_stages());
  const PathDelayResult nominal_chain =
      chain_delay(nominal_sample, ws.batch(), &stage_in);
  std::size_t sims = num_stages();
  bool rising = spec_.input.rising;

  for (std::size_t k = 0; k < num_stages(); ++k) {
    // Stage transfer sensitivities at the saturated-ramp abstraction
    // (Eq. 30), scattered into the source layout of sample_from_sources.
    const StageSensitivity sens =
        stage_sensitivity(stage_model(k), spec_.tech, spec_.sim_options(), k,
                          stage_in[k].s, rising, model, &ws);
    sims += sens.simulations;
    Vector dD_dw(nsrc, 0.0), dF_dw(nsrc, 0.0);
    const auto put = [&](const DelaySlew& d, std::size_t l) {
      dD_dw[l] = d.delay;
      dF_dw[l] = d.slew;
    };
    std::size_t idx = k * per_stage;
    std::size_t gidx = per_stage * num_stages();
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
    rising = rising != stage_model(k).cell->inverting;
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
    const PathVariationModel& model, const GaResult& ga,
    double k_sigma) const {
  const auto src = sources(model);
  if (ga.gradient.size() != src.size()) {
    throw std::invalid_argument("worst_case_corner: GA of another model");
  }
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

std::size_t PathAnalyzer::memory_bytes() const {
  return sizeof(*this) + spec_.cells.capacity() * sizeof(std::size_t) +
         graph_->memory_bytes();
}

}  // namespace lcsf::core
