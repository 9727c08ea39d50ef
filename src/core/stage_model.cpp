#include "core/stage_model.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "runtime/thread_pool.hpp"
#include "interconnect/coupled_lines.hpp"

namespace lcsf::core {

using circuit::kGround;
using circuit::SourceWaveform;
using numeric::Vector;
using timing::RampParams;
using timing::Samples;

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

Samples simulate_stage_model(const StageModel& st,
                             const circuit::Technology& tech,
                             const StageSimOptions& opt,
                             const SourceWaveform& input,
                             const timing::DeviceVariation& dev,
                             const interconnect::WireVariation& wire,
                             double window_scale, SampleWorkspace* ws) {
  // Normalized wire sample for the ROM library.
  const Vector w{tech.wire_tol.width > 0.0
                     ? wire.width / tech.wire_tol.width
                     : 0.0,
                 tech.wire_tol.ild_thickness > 0.0
                     ? wire.ild_thickness / tech.wire_tol.ild_thickness
                     : 0.0};
  mor::PoleResidueModel z;
  if (ws != nullptr) {
    // Pooled path: evaluate the variational ROM and extract poles through
    // the per-lane workspace -- bitwise identical to the plain path.
    st.load.evaluate_into(w, ws->rom);
    z = mor::stabilize(mor::extract_pole_residue(ws->rom, ws->poleres),
                       nullptr, mor::StabilizePolicy::kDirectCompensation);
  } else {
    mor::ReducedModel rom = st.load.evaluate(w);
    z = mor::stabilize(mor::extract_pole_residue(rom), nullptr,
                       mor::StabilizePolicy::kDirectCompensation);
  }

  teta::StageCircuit stage;
  const std::size_t out = stage.add_port();
  (void)stage.add_port();  // far port (receiver side), observed
  const std::size_t in = stage.add_input(input);
  const std::size_t vdd = stage.add_rail(tech.vdd);
  const std::size_t gnd = stage.add_rail(0.0);
  timing::instantiate_cell(*st.cell, tech, stage, out, in, vdd, gnd, dev);
  stage.freeze_device_capacitances();

  teta::TetaOptions topt;
  topt.dt = opt.dt;
  topt.tstop = opt.stage_window * window_scale;
  topt.vdd = tech.vdd;
  topt.recovery = opt.recovery;
  if (ws != nullptr) {
    teta::simulate_stage(stage, z, topt, ws->teta, ws->teta_result);
    const teta::TetaResult& res = ws->teta_result;
    if (!res.converged) {
      throw sim::SimulationError(res.diag);
    }
    return res.waveform(1);  // far port
  }
  teta::TetaResult res = teta::simulate_stage(stage, z, topt);
  if (!res.converged) {
    throw sim::SimulationError(res.diag);
  }
  return res.waveform(1);  // far port
}

RampParams measure_stage_with_retry(
    const StageModel& st, const circuit::Technology& tech,
    const StageSimOptions& opt, std::size_t label,
    const SourceWaveform& input, double shift,
    const timing::DeviceVariation& dev,
    const interconnect::WireVariation& wire, bool out_rising,
    Samples* out_samples, SampleWorkspace* ws) {
  // The stage window is a heuristic; if the output transition does not
  // complete inside it, re-simulate with a doubled window (bounded).
  sim::SimDiagnostics last;
  for (double scale : {1.0, 2.0, 4.0}) {
    try {
      Samples out =
          simulate_stage_model(st, tech, opt, input, dev, wire, scale, ws);
      RampParams p = timing::measure_ramp(out, tech.vdd, out_rising);
      p.m += shift;
      if (out_samples != nullptr) *out_samples = shifted_samples(out, shift);
      return p;
    } catch (const sim::SimulationError& e) {
      last = e.diagnostics();
    } catch (const std::runtime_error& e) {
      // measure_ramp: the transition never completed in the window.
      last = {};
      last.kind = sim::FailureKind::kOther;
      last.detail = e.what();
    }
  }
  last.detail = "stage " + std::to_string(label) +
                " did not complete: " + last.detail;
  throw sim::SimulationError(std::move(last));
}

Samples shifted_samples(const Samples& w, double dt0) {
  Samples out;
  out.reserve(w.size());
  for (const auto& [t, v] : w) out.emplace_back(t + dt0, v);
  return out;
}

SampleWorkspace& BatchWorkspace::lane(std::size_t k) {
  while (lanes.size() <= k) {
    lanes.push_back(std::make_unique<SampleWorkspace>());
  }
  return *lanes[k];
}

void measure_stage_batch(const StageModel& st,
                         const circuit::Technology& tech,
                         const StageSimOptions& opt, std::size_t label,
                         const std::vector<const SourceWaveform*>& inputs,
                         const std::vector<double>& shifts,
                         const std::vector<const timing::DeviceVariation*>& devs,
                         const std::vector<const interconnect::WireVariation*>& wires,
                         bool out_rising, std::vector<Samples>* out_samples,
                         std::vector<StageMeasurement>& out,
                         BatchWorkspace& bws) {
  const std::size_t nl = inputs.size();
  out.assign(nl, StageMeasurement{});
  if (out_samples != nullptr) out_samples->resize(nl);
  bws.fallback.assign(nl, 0);

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
  // from lockstep); a lane whose load fails to extract falls back -- the
  // scalar rerun repeats the failure with the ladder's diagnostics.
  bws.z.resize(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    SampleWorkspace& ws = bws.lane(l);
    try {
      bws.z[l] =
          mor::stabilize(mor::extract_pole_residue(ws.rom, ws.poleres),
                         nullptr, mor::StabilizePolicy::kDirectCompensation);
    } catch (const std::runtime_error&) {
      bws.fallback[l] = 1;
    }
  }

  // Per-lane stage circuits, built exactly as simulate_stage_model does.
  bws.stages.clear();
  bws.stages.resize(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    if (bws.fallback[l] != 0) continue;
    teta::StageCircuit& stage = bws.stages[l];
    const std::size_t sout = stage.add_port();
    (void)stage.add_port();  // far port (receiver side), observed
    const std::size_t in = stage.add_input(*inputs[l]);
    const std::size_t vdd = stage.add_rail(tech.vdd);
    const std::size_t gnd = stage.add_rail(0.0);
    timing::instantiate_cell(*st.cell, tech, stage, sout, in, vdd, gnd,
                             *devs[l]);
    stage.freeze_device_capacitances();
  }

  // Lockstep leg at window scale 1.0 (the retry ladder's first rung).
  teta::TetaOptions topt;
  topt.dt = opt.dt;
  topt.tstop = opt.stage_window;
  topt.vdd = tech.vdd;
  topt.recovery = opt.recovery;
  bws.teta_lanes.clear();
  bws.slot.clear();
  for (std::size_t l = 0; l < nl; ++l) {
    if (bws.fallback[l] != 0) continue;
    SampleWorkspace& ws = bws.lane(l);
    bws.teta_lanes.push_back(
        {&bws.stages[l], &bws.z[l], &ws.teta, &ws.teta_result});
    bws.slot.push_back(l);
  }
  if (!bws.teta_lanes.empty()) {
    teta::simulate_stage_batch(bws.teta_lanes, topt, bws.teta);
  }
  for (std::size_t s = 0; s < bws.slot.size(); ++s) {
    const std::size_t l = bws.slot[s];
    const teta::TetaResult& res = bws.lane(l).teta_result;
    if (!res.converged) {
      bws.fallback[l] = 1;
      continue;
    }
    try {
      Samples so = res.waveform(1);  // far port
      RampParams p = timing::measure_ramp(so, tech.vdd, out_rising);
      p.m += shifts[l];
      out[l].params = p;
      if (out_samples != nullptr) {
        (*out_samples)[l] = shifted_samples(so, shifts[l]);
      }
    } catch (const std::runtime_error&) {
      // Transition incomplete at scale 1.0: the ladder widens the window.
      bws.fallback[l] = 1;
    }
  }

  // Fallback lanes rerun the full scalar retry ladder, whose first rung
  // repeats the failed lockstep attempt bitwise and then widens the
  // window -- so per-lane values and diagnostics match a scalar call.
  for (std::size_t l = 0; l < nl; ++l) {
    if (bws.fallback[l] == 0) continue;
    Samples* osp = out_samples != nullptr ? &(*out_samples)[l] : nullptr;
    try {
      out[l].params = measure_stage_with_retry(
          st, tech, opt, label, *inputs[l], shifts[l], *devs[l], *wires[l],
          out_rising, osp, &bws.lane(l));
    } catch (const sim::SimulationError& e) {
      out[l].failed = true;
      out[l].diag = e.diagnostics();
    }
  }
}

LaneWorkspaces::LaneWorkspaces(std::size_t threads)
    : lanes_(std::max<std::size_t>(
          1, threads == 0 ? runtime::ThreadPool::default_threads() : threads)) {}

SampleWorkspace& LaneWorkspaces::lane(std::size_t k) {
  if (!lanes_[k]) {
    lanes_[k] = std::make_unique<SampleWorkspace>();
  }
  return *lanes_[k];
}

LaneBatchWorkspaces::LaneBatchWorkspaces(std::size_t threads)
    : lanes_(std::max<std::size_t>(
          1, threads == 0 ? runtime::ThreadPool::default_threads() : threads)) {}

BatchWorkspace& LaneBatchWorkspaces::lane(std::size_t k) {
  if (!lanes_[k]) {
    lanes_[k] = std::make_unique<BatchWorkspace>();
  }
  return *lanes_[k];
}

}  // namespace lcsf::core
