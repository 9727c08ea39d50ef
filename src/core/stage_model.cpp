#include "core/stage_model.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "interconnect/coupled_lines.hpp"

namespace lcsf::core {

using circuit::kGround;
using circuit::SourceWaveform;
using numeric::Vector;
using timing::RampParams;
using timing::Samples;

std::vector<stats::VariationSource> PathVariationModel::sources(
    std::size_t stages) const {
  std::vector<stats::VariationSource> src;
  for (std::size_t k = 0; k < stages; ++k) {
    if (std_dl > 0.0) src.push_back({.sigma = std_dl});
    if (std_vt > 0.0) src.push_back({.sigma = std_vt});
  }
  if (std_wire_w > 0.0) src.push_back({.sigma = std_wire_w});
  if (std_wire_h > 0.0) src.push_back({.sigma = std_wire_h});
  return src;
}

PathSample sample_from_sources(const PathVariationModel& model,
                               const circuit::Technology& tech,
                               std::size_t stages, const Vector& w) {
  if (w.size() !=
      model.sources_per_stage() * stages + model.global_sources()) {
    throw std::invalid_argument("sample_from_sources: wrong source count");
  }
  // The normalized -> physical map (measure_stage_batch holds the wire's
  // inverse for the ROM): w = 1 is the 3-sigma tolerance of `tech`.
  PathSample s;
  s.device.resize(stages);
  std::size_t idx = 0;
  for (timing::DeviceVariation& d : s.device) {
    if (model.std_dl > 0.0) {
      d.delta_l = w[idx++] * tech.sigma3_dl_frac * tech.lmin;
    }
    if (model.std_vt > 0.0) {
      d.delta_vt = w[idx++] * tech.sigma3_vt_frac * tech.nmos.vt0;
    }
  }
  if (model.std_wire_w > 0.0) s.wire.width = w[idx++] * tech.wire_tol.width;
  if (model.std_wire_h > 0.0) {
    s.wire.ild_thickness = w[idx++] * tech.wire_tol.ild_thickness;
  }
  return s;
}

double input_pin_cap(const timing::CellTemplate& cell,
                     const circuit::Technology& tech) {
  double cap = 0.0;
  for (const auto& t : cell.transistors) {
    if (t.gate.kind == timing::CellNode::Kind::kInput &&
        t.gate.index == 0) {
      const circuit::Mosfet m =
          t.type == circuit::MosType::kNmos
              ? tech.make_nmos(0, 0, 0, t.w_over_l)
              : tech.make_pmos(0, 0, 0, t.w_over_l);
      // Miller factor on the receiver's gate-drain cap (it sees part of
      // the opposing output swing while the receiver switches).
      cap += m.cgs() + 1.5 * m.cgd();
    }
  }
  return cap;
}

namespace {

/// Chord conductances of one driver cell (port 0 = its output).
Vector driver_chords(const timing::CellTemplate& cell,
                     const circuit::Technology& tech) {
  teta::StageCircuit probe;
  const std::size_t out = probe.add_port();
  const std::size_t in = probe.add_input(SourceWaveform::dc(0.0));
  const std::size_t vdd = probe.add_rail(tech.vdd);
  const std::size_t gnd = probe.add_rail(0.0);
  timing::instantiate_cell(cell, tech, probe, out, in, vdd, gnd);
  return probe.port_chord_conductances(tech.vdd);
}

/// Build the stage's wire as a ports-first pencil: near end (driver) and
/// far end (receiver) are the two ports; the receiver pin cap loads the
/// far end.
interconnect::PortedPencil stage_wire_pencil(
    const circuit::WireGeometry& geom, std::size_t segments,
    double receiver_cap) {
  interconnect::CoupledLineSpec spec;
  spec.num_lines = 1;
  spec.segment_length = 1e-6;
  spec.length = static_cast<double>(segments) * 1e-6;
  spec.geometry = geom;
  auto bundle = interconnect::build_coupled_lines(spec);
  bundle.netlist.add_capacitor(bundle.far_ends[0], kGround, receiver_cap);
  return interconnect::build_ported_pencil(
      bundle.netlist, {bundle.near_ends[0], bundle.far_ends[0]});
}

}  // namespace

mor::VariationalRom characterize_stage_load(const timing::CellTemplate& cell,
                                            const circuit::Technology& tech,
                                            std::size_t segments,
                                            double receiver_cap,
                                            std::size_t rom_internal_modes,
                                            mor::PactMemo* memo) {
  // Effective-load pre-characterization (Table 1): chords folded in,
  // variational over the global wire parameters (W, H) in normalized
  // 3-sigma-tolerance units.
  const Vector chords = driver_chords(cell, tech);
  const Vector gout{chords[0], 0.0};
  const circuit::Technology tech_copy = tech;
  const double rc = receiver_cap;
  const std::size_t segs = segments;
  mor::PencilFamily family = [tech_copy, rc, segs, gout](const Vector& w) {
    interconnect::WireVariation wv;
    wv.width = w[0] * tech_copy.wire_tol.width;
    wv.ild_thickness = w[1] * tech_copy.wire_tol.ild_thickness;
    const circuit::WireGeometry geom =
        interconnect::apply_variation(tech_copy.wire, wv);
    return mor::with_port_conductance(stage_wire_pencil(geom, segs, rc),
                                      gout);
  };
  mor::VariationalOptions vopt;
  vopt.method = mor::ReductionMethod::kPact;
  vopt.library = mor::LibraryMode::kFullReduction;
  vopt.pact.internal_modes = rom_internal_modes;
  vopt.fd_step = 0.2;
  return mor::build_variational_rom(family, 2, vopt, memo);
}

Samples shifted_samples(const Samples& w, double dt0) {
  Samples out;
  out.reserve(w.size());
  for (const auto& [t, v] : w) out.emplace_back(t + dt0, v);
  return out;
}

SampleWorkspace::SampleWorkspace() = default;
SampleWorkspace::~SampleWorkspace() = default;

BatchWorkspace& SampleWorkspace::batch() {
  if (!batch_) {
    batch_ = std::make_unique<BatchWorkspace>();
    batch_->slot0 = this;
  }
  return *batch_;
}

SampleWorkspace& BatchWorkspace::lane(std::size_t k) {
  if (k == 0 && slot0 != nullptr) return *slot0;
  while (lanes.size() <= k) {
    lanes.push_back(std::make_unique<SampleWorkspace>());
  }
  return *lanes[k];
}

namespace {

/// Diagnostics of a failure the engines do not classify (an incomplete
/// transition, a foreign std::runtime_error).
sim::SimDiagnostics unclassified(const char* what) {
  sim::SimDiagnostics d;
  d.kind = sim::FailureKind::kOther;
  d.detail = what;
  return d;
}

}  // namespace

void measure_stage_batch(
    const StageModel& st, const circuit::Technology& tech,
    const StageSimOptions& opt, std::size_t label,
    std::span<const SourceWaveform* const> inputs,
    std::span<const double> shifts,
    std::span<const timing::DeviceVariation* const> devs,
    std::span<const interconnect::WireVariation* const> wires,
    bool out_rising, std::vector<Samples>* out_samples,
    std::vector<StageMeasurement>& out, BatchWorkspace& bws) {
  const std::size_t nl = inputs.size();
  out.assign(nl, StageMeasurement{});
  if (out_samples != nullptr) out_samples->resize(nl);

  // Normalized wire samples, then one streamed ROM evaluation for the
  // whole block (per-lane bitwise identical to evaluate_into).
  bws.w.resize(nl);
  bws.wptr.clear();
  bws.romptr.clear();
  for (std::size_t l = 0; l < nl; ++l) {
    bws.w[l] = Vector{tech.wire_tol.width > 0.0
                          ? wires[l]->width / tech.wire_tol.width
                          : 0.0,
                      tech.wire_tol.ild_thickness > 0.0
                          ? wires[l]->ild_thickness /
                                tech.wire_tol.ild_thickness
                          : 0.0};
    bws.wptr.push_back(&bws.w[l]);
    bws.romptr.push_back(&bws.lane(l).rom);
  }
  st.load.evaluate_into_batch(bws.wptr, bws.romptr);

  // Pole/residue extraction stays per-lane (dense eigensolves do not gain
  // from lockstep). The load does not depend on the window, so a lane
  // whose load fails to extract has failed the whole ladder already.
  // `fallback` marks the lanes still pending a (wider) window.
  bws.z.resize(nl);
  bws.fallback.assign(nl, 1);
  for (std::size_t l = 0; l < nl; ++l) {
    SampleWorkspace& ws = bws.lane(l);
    try {
      bws.z[l] =
          mor::stabilize(mor::extract_pole_residue(ws.rom, ws.poleres),
                         nullptr, mor::StabilizePolicy::kDirectCompensation);
      continue;
    } catch (const sim::SimulationError& e) {
      out[l].diag = e.diagnostics();
    } catch (const std::runtime_error& e) {
      out[l].diag = unclassified(e.what());
    }
    bws.fallback[l] = 0;
    out[l].failed = true;
  }

  // Per-lane stage circuits, shared by every rung of the ladder. A
  // sampled device the circuit cannot hold (a non-positive effective
  // length) fails its lane, like an extraction failure, not the block.
  bws.stages.clear();
  bws.stages.resize(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    if (bws.fallback[l] == 0) continue;
    teta::StageCircuit& stage = bws.stages[l];
    try {
      const std::size_t sout = stage.add_port();
      (void)stage.add_port();  // far port (receiver side), observed
      const std::size_t in = stage.add_input(*inputs[l]);
      const std::size_t vdd = stage.add_rail(tech.vdd);
      const std::size_t gnd = stage.add_rail(0.0);
      timing::instantiate_cell(*st.cell, tech, stage, sout, in, vdd, gnd,
                               *devs[l]);
      stage.freeze_device_capacitances();
      continue;
    } catch (const sim::SimulationError& e) {
      out[l].diag = e.diagnostics();
    } catch (const std::runtime_error& e) {
      out[l].diag = unclassified(e.what());
    }
    bws.fallback[l] = 0;
    out[l].failed = true;
  }

  // The window ladder: each rung runs the still-pending lanes as one
  // block (lockstep when it holds two or more) at a doubled window. Only
  // an incomplete transition climbs: a failed transient would repeat its
  // dt and trajectory in a wider window and fail again at the same step.
  teta::TetaOptions topt;
  topt.dt = opt.dt;
  topt.vdd = tech.vdd;
  topt.recovery = opt.recovery;
  for (const double scale : {1.0, 2.0, 4.0}) {
    bws.teta_lanes.clear();
    bws.slot.clear();
    for (std::size_t l = 0; l < nl; ++l) {
      if (bws.fallback[l] == 0) continue;
      SampleWorkspace& ws = bws.lane(l);
      bws.teta_lanes.push_back(
          {&bws.stages[l], &bws.z[l], &ws.teta, &ws.teta_result});
      bws.slot.push_back(l);
    }
    if (bws.slot.empty()) break;
    topt.tstop = opt.stage_window * scale;
    teta::simulate_stage_batch(bws.teta_lanes, topt, bws.teta);
    for (const std::size_t l : bws.slot) {
      const teta::TetaResult& res = bws.lane(l).teta_result;
      if (!res.converged) {
        out[l].diag = res.diag;
        out[l].failed = true;
        bws.fallback[l] = 0;
        continue;
      }
      try {
        Samples so = res.waveform(1);  // far port
        RampParams p = timing::measure_ramp(so, tech.vdd, out_rising);
        p.m += shifts[l];
        out[l].params = p;
        out[l].diag = {};
        if (out_samples != nullptr) {
          (*out_samples)[l] = shifted_samples(so, shifts[l]);
        }
        bws.fallback[l] = 0;
      } catch (const std::runtime_error& e) {
        // measure_ramp: the transition did not complete in the window.
        out[l].diag = unclassified(e.what());
      }
    }
  }

  for (std::size_t l = 0; l < nl; ++l) {
    if (bws.fallback[l] != 0) out[l].failed = true;
    if (out[l].failed) {
      out[l].diag.detail = "stage " + std::to_string(label) +
                           " did not complete: " + out[l].diag.detail;
    }
  }
}

RampParams measure_stage_with_retry(
    const StageModel& st, const circuit::Technology& tech,
    const StageSimOptions& opt, std::size_t label,
    const SourceWaveform& input, double shift,
    const timing::DeviceVariation& dev,
    const interconnect::WireVariation& wire, bool out_rising,
    Samples* out_samples, SampleWorkspace* ws) {
  if (ws == nullptr) {
    SampleWorkspace scratch;
    return measure_stage_with_retry(st, tech, opt, label, input, shift, dev,
                                    wire, out_rising, out_samples, &scratch);
  }
  BatchWorkspace& bws = ws->batch();
  const SourceWaveform* in = &input;
  const timing::DeviceVariation* d = &dev;
  const interconnect::WireVariation* w = &wire;
  measure_stage_batch(st, tech, opt, label, {&in, 1}, {&shift, 1}, {&d, 1},
                      {&w, 1}, out_rising,
                      out_samples != nullptr ? &bws.souts : nullptr, bws.meas,
                      bws);
  if (bws.meas[0].failed) throw sim::SimulationError(bws.meas[0].diag);
  if (out_samples != nullptr) *out_samples = std::move(bws.souts[0]);
  return bws.meas[0].params;
}

void propagate_stage_batch(
    const StageModel& st, const circuit::Technology& tech,
    const StageSimOptions& opt, std::size_t label,
    std::span<const StageWaveform* const> in,
    std::span<const timing::DeviceVariation* const> devs,
    std::span<const interconnect::WireVariation* const> wires,
    std::vector<StageWaveform>& out, std::vector<StageMeasurement>& meas,
    BatchWorkspace& bws) {
  const std::size_t nl = in.size();
  bws.local.resize(nl);
  bws.inputs.resize(nl);
  bws.shifts.resize(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    // Localize time so the transition sits at ~1/4 of the stage window.
    const double shift =
        std::max(0.0, in[l]->params.m - 0.25 * opt.stage_window);
    bws.shifts[l] = shift;
    bws.inputs[l] = &in[l]->wave;
    if (shift > 0.0) {
      bws.local[l] = SourceWaveform::pwl(
          shifted_samples(in[l]->wave.points(), -shift));
      bws.inputs[l] = &bws.local[l];
    }
  }
  const bool out_rising = in[0]->params.rising != st.cell->inverting;
  measure_stage_batch(st, tech, opt, label, bws.inputs, bws.shifts, devs,
                      wires, out_rising, &bws.souts, meas, bws);
  out.resize(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    if (meas[l].failed) continue;
    // Propagate the fine-resolution PWL (adaptively compressed).
    out[l].params = meas[l].params;
    out[l].wave = SourceWaveform::pwl(
        teta::compress_pwl(bws.souts[l], 1e-4 * tech.vdd));
  }
}

DelaySlew stage_delay_slew(const StageModel& st,
                           const circuit::Technology& tech,
                           const StageSimOptions& opt, std::size_t label,
                           double s_in, bool rising_in,
                           const timing::DeviceVariation& dev,
                           const interconnect::WireVariation& wire,
                           SampleWorkspace* ws) {
  const double m_local = 0.25 * opt.stage_window;
  const RampParams in{m_local, s_in, rising_in};
  const RampParams out = measure_stage_with_retry(
      st, tech, opt, label, in.to_source(tech.vdd), 0.0, dev, wire,
      rising_in != st.cell->inverting, nullptr, ws);
  return {out.m - m_local, out.s};
}

StageSensitivity stage_sensitivity(const StageModel& st,
                                   const circuit::Technology& tech,
                                   const StageSimOptions& opt,
                                   std::size_t label, double s_in,
                                   bool rising_in,
                                   const PathVariationModel& model,
                                   SampleWorkspace* ws) {
  StageSensitivity sens;
  const auto probe = [&](double s, const PathSample& at) {
    ++sens.simulations;
    return stage_delay_slew(st, tech, opt, label, s, rising_in,
                            at.device[0], at.wire, ws);
  };
  const auto central = [](const DelaySlew& plus, const DelaySlew& minus,
                          double h) {
    return DelaySlew{(plus.delay - minus.delay) / (2 * h),
                     (plus.slew - minus.slew) / (2 * h)};
  };

  const PathSample nominal{{timing::DeviceVariation{}}, {}};
  const double hs = 0.1 * std::max(s_in, 10 * opt.dt);
  const DelaySlew slew_plus = probe(s_in + hs, nominal);
  const DelaySlew slew_minus = probe(s_in - hs, nominal);
  sens.d_slew = central(slew_plus, slew_minus, hs);

  // Each enabled source alone at +/- h_w, through the one source map.
  const double h_w = 0.2;
  using Kind = std::pair<double PathVariationModel::*,
                         DelaySlew StageSensitivity::*>;
  for (const auto& [sigma, d] :
       {Kind{&PathVariationModel::std_dl, &StageSensitivity::d_dl},
        Kind{&PathVariationModel::std_vt, &StageSensitivity::d_vt},
        Kind{&PathVariationModel::std_wire_w, &StageSensitivity::d_wire_w},
        Kind{&PathVariationModel::std_wire_h,
             &StageSensitivity::d_wire_h}}) {
    if (!(model.*sigma > 0.0)) continue;
    PathVariationModel alone;
    alone.*sigma = 1.0;
    const DelaySlew plus =
        probe(s_in, sample_from_sources(alone, tech, 1, {h_w}));
    const DelaySlew minus =
        probe(s_in, sample_from_sources(alone, tech, 1, {-h_w}));
    sens.*d = central(plus, minus, h_w);
  }
  return sens;
}

}  // namespace lcsf::core
