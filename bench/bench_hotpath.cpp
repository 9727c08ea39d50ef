// Per-sample Monte-Carlo hot-path throughput. A single logic stage is set
// up exactly like PathAnalyzer builds one (INV driver, chord-folded
// variational wire ROM, PACT order 6), and the same deterministic sample
// set is then evaluated twice through the full per-sample pipeline
// (variational ROM evaluation -> pole/residue extraction -> stabilize ->
// TETA transient):
//
//   baseline : the pre-PR-4 engine, reproduced verbatim below from the
//              tree at the start of this PR (namespace prepr). It rebuilds
//              the convolver, both SC factorizations and every per-step
//              vector from scratch -- roughly a dozen heap round-trips per
//              timestep -- exactly as the shipped code did.
//   pooled   : the workspace-pooled engine (the Monte-Carlo lane path:
//              evaluate_into + workspace extraction + TetaWorkspace),
//              which is allocation-free after warm-up.
//   batched  : the lockstep SoA engine (core::measure_stage_batch): blocks
//              of K samples march through the TETA timestep loop together,
//              every per-step kernel vectorizing across samples
//              (docs/performance.md).
//
// All legs perform the same per-sample floating-point operation sequence,
// so the results must be bitwise identical (the PR 1 invariant, extended
// to the batched path); the bench fails if they are not. It emits a
// machine-readable BENCH_hotpath.json consumed by tools/bench_compare.py
// and the ci.sh bench stage.
//
// Usage: bench_hotpath [output.json]   (default BENCH_hotpath.json)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "circuit/technology.hpp"
#include "core/path.hpp"
#include "mor/poleres.hpp"
#include "mor/variational.hpp"
#include "numeric/fp_compare.hpp"
#include "numeric/lu.hpp"
#include "stats/random.hpp"
#include "teta/convolution.hpp"
#include "teta/stage.hpp"
#include "timing/cells.hpp"
#include "timing/waveform.hpp"

namespace {

using namespace lcsf;
using numeric::Vector;

// ---------------------------------------------------------------------
// The pre-PR TETA engine, copied verbatim from src/teta/stage.cpp as it
// stood before the workspace rewrite. This is the frozen baseline the
// acceptance speedup is measured against; keep it untouched.
// ---------------------------------------------------------------------
namespace prepr {

using circuit::Mosfet;
using numeric::LuFactorization;
using numeric::Matrix;
using teta::RecursiveConvolver;
using teta::StageCircuit;
using teta::StageNodeKind;
using teta::TetaOptions;
using teta::TetaResult;

struct Indexer {
  std::vector<int> node_to_unknown;  // -1 when known (input/rail)
  std::size_t num_unknowns = 0;
  std::size_t num_ports = 0;

  explicit Indexer(const StageCircuit& s) {
    node_to_unknown.assign(s.num_nodes(), -1);
    num_ports = s.num_ports();
    std::size_t next_internal = num_ports;
    for (std::size_t n = 0; n < s.num_nodes(); ++n) {
      switch (s.kind(n)) {
        case StageNodeKind::kPort:
          node_to_unknown[n] = static_cast<int>(s.kind_index(n));
          break;
        case StageNodeKind::kInternal:
          node_to_unknown[n] = static_cast<int>(next_internal++);
          break;
        default:
          break;
      }
    }
    num_unknowns = next_internal;
  }
};

TetaResult simulate_stage_once(const StageCircuit& stage,
                               const mor::PoleResidueModel& load,
                               const TetaOptions& opt) {
  TetaResult res;
  const Indexer idx(stage);
  const std::size_t n = idx.num_unknowns;
  const std::size_t np = idx.num_ports;

  RecursiveConvolver conv(load, opt.dt);
  const double clamp = opt.damping_frac * opt.vdd;

  auto known_voltage = [&](std::size_t node, double t) {
    switch (stage.kind(node)) {
      case StageNodeKind::kInput:
        return stage.input_wave(node).value(t);
      case StageNodeKind::kRail:
        return stage.rail_voltage(node);
      default:
        throw std::logic_error("known_voltage: unknown node");
    }
  };

  const Vector gsc = stage.port_chord_conductances(opt.vdd);

  Matrix a_dc(n, n);
  Matrix a_tr(n, n);
  struct KnownCoupling {
    std::size_t row;
    std::size_t node;
    double g;
  };
  std::vector<KnownCoupling> chord_known;

  std::vector<double> chords(stage.mosfets().size());
  for (std::size_t d = 0; d < stage.mosfets().size(); ++d) {
    const Mosfet& m = stage.mosfets()[d];
    const double g = StageCircuit::chord_conductance(m, opt.vdd);
    chords[d] = g;
    const int ud = idx.node_to_unknown[static_cast<std::size_t>(m.drain)];
    const int us = idx.node_to_unknown[static_cast<std::size_t>(m.source)];
    auto stamp = [&](Matrix& a) {
      if (ud >= 0) a(ud, ud) += g;
      if (us >= 0) a(us, us) += g;
      if (ud >= 0 && us >= 0) {
        a(ud, us) -= g;
        a(us, ud) -= g;
      }
    };
    stamp(a_dc);
    stamp(a_tr);
    if (ud >= 0 && us < 0) {
      chord_known.push_back({static_cast<std::size_t>(ud),
                             static_cast<std::size_t>(m.source), g});
    }
    if (us >= 0 && ud < 0) {
      chord_known.push_back({static_cast<std::size_t>(us),
                             static_cast<std::size_t>(m.drain), g});
    }
  }

  Matrix y_h;
  Matrix y_dc;
  try {
    y_h = numeric::inverse(conv.step_impedance());
    y_dc = numeric::inverse(conv.dc_impedance());
  } catch (const std::runtime_error&) {
    res.diag.kind = sim::FailureKind::kSingularSystem;
    res.diag.detail = "singular load impedance";
    return res;
  }
  for (std::size_t i = 0; i < np; ++i) {
    for (std::size_t j = 0; j < np; ++j) {
      a_dc(i, j) += y_dc(i, j);
      a_tr(i, j) += y_h(i, j);
    }
    a_dc(i, i) -= gsc[i];
    a_tr(i, i) -= gsc[i];
  }

  const double ceff = 2.0 / opt.dt;
  struct CapState {
    int ua, ub;          // unknown indices or -1
    std::size_t na, nb;  // node ids
    double geq;
    double u_prev = 0.0;
    double i_prev = 0.0;
  };
  std::vector<CapState> caps;
  for (const auto& c : stage.capacitors()) {
    CapState cs;
    cs.na = static_cast<std::size_t>(c.a);
    cs.nb = static_cast<std::size_t>(c.b);
    cs.ua = idx.node_to_unknown[cs.na];
    cs.ub = idx.node_to_unknown[cs.nb];
    cs.geq = ceff * c.farads;
    if (cs.ua >= 0) a_tr(cs.ua, cs.ua) += cs.geq;
    if (cs.ub >= 0) a_tr(cs.ub, cs.ub) += cs.geq;
    if (cs.ua >= 0 && cs.ub >= 0) {
      a_tr(cs.ua, cs.ub) -= cs.geq;
      a_tr(cs.ub, cs.ua) -= cs.geq;
    }
    caps.push_back(cs);
  }

  std::unique_ptr<LuFactorization> lu_dc;
  std::unique_ptr<LuFactorization> lu_tr;
  try {
    lu_dc = std::make_unique<LuFactorization>(a_dc);
    lu_tr = std::make_unique<LuFactorization>(a_tr);
  } catch (const std::runtime_error& e) {
    res.diag.kind = sim::FailureKind::kSingularSystem;
    res.diag.detail = std::string("singular SC system: ") + e.what();
    return res;
  }

  auto node_voltages = [&](const Vector& x, double t) {
    Vector v(stage.num_nodes(), 0.0);
    for (std::size_t nn = 0; nn < stage.num_nodes(); ++nn) {
      const int u = idx.node_to_unknown[nn];
      v[nn] = (u >= 0) ? x[static_cast<std::size_t>(u)]
                       : known_voltage(nn, t);
    }
    return v;
  };

  auto add_device_norton = [&](const Vector& vnode, Vector& rhs) {
    for (std::size_t d = 0; d < stage.mosfets().size(); ++d) {
      const Mosfet& m = stage.mosfets()[d];
      const double vg = vnode[static_cast<std::size_t>(m.gate)];
      const double vd = vnode[static_cast<std::size_t>(m.drain)];
      const double vs = vnode[static_cast<std::size_t>(m.source)];
      const double ids = circuit::mosfet_eval(m, vg, vd, vs).ids;
      const double j = ids - chords[d] * (vd - vs);
      const int ud = idx.node_to_unknown[static_cast<std::size_t>(m.drain)];
      const int us = idx.node_to_unknown[static_cast<std::size_t>(m.source)];
      if (ud >= 0) rhs[static_cast<std::size_t>(ud)] -= j;
      if (us >= 0) rhs[static_cast<std::size_t>(us)] += j;
    }
  };

  Vector x(n, 0.0);
  {
    Matrix base(n, n);
    for (std::size_t i = 0; i < np; ++i) {
      for (std::size_t j = 0; j < np; ++j) base(i, j) = y_dc(i, j);
      base(i, i) -= gsc[i];
    }
    constexpr double kGminDc = 1e-9;
    for (std::size_t i = 0; i < n; ++i) base(i, i) += kGminDc;

    bool ok = false;
    for (int it = 0; it < opt.max_sc_iters; ++it) {
      Matrix a = base;
      Vector rhs(n, 0.0);
      const Vector vnode = node_voltages(x, 0.0);
      for (const Mosfet& m : stage.mosfets()) {
        const double vg = vnode[static_cast<std::size_t>(m.gate)];
        const double vd = vnode[static_cast<std::size_t>(m.drain)];
        const double vs = vnode[static_cast<std::size_t>(m.source)];
        const auto op = circuit::mosfet_eval(m, vg, vd, vs);
        const double ieq = op.ids - op.gm * (vg - vs) - op.gds * (vd - vs);
        const int rd = idx.node_to_unknown[static_cast<std::size_t>(m.drain)];
        const int rs =
            idx.node_to_unknown[static_cast<std::size_t>(m.source)];
        const struct {
          int node;
          double coeff;
        } cols[3] = {{m.gate, op.gm},
                     {m.drain, op.gds},
                     {m.source, -(op.gm + op.gds)}};
        for (int sign : {+1, -1}) {
          const int row = (sign > 0) ? rd : rs;
          if (row < 0) continue;
          const auto r = static_cast<std::size_t>(row);
          for (const auto& cc : cols) {
            const int col =
                idx.node_to_unknown[static_cast<std::size_t>(cc.node)];
            const double val = sign * cc.coeff;
            if (numeric::exact_zero(val)) continue;
            if (col >= 0) {
              a(r, static_cast<std::size_t>(col)) += val;
            } else {
              rhs[r] -= val *
                        vnode[static_cast<std::size_t>(cc.node)];
            }
          }
          rhs[r] -= sign * ieq;
        }
      }
      Vector xn = LuFactorization(std::move(a)).solve(rhs);
      double dmax = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        double d = xn[i] - x[i];
        dmax = std::max(dmax, std::abs(d));
        x[i] += std::clamp(d, -clamp, clamp);
      }
      ++res.total_sc_iterations;
      if (dmax < opt.vtol) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      res.diag.kind = sim::FailureKind::kDcFailure;
      res.diag.detail = "Newton failed at DC";
      res.diag.iterations = res.total_sc_iterations;
      return res;
    }
  }

  {
    Vector vp(np);
    for (std::size_t p = 0; p < np; ++p) vp[p] = x[p];
    conv.initialize_dc(y_dc * vp);
  }
  {
    const Vector vn = node_voltages(x, 0.0);
    for (auto& cs : caps) {
      cs.u_prev = vn[cs.na] - vn[cs.nb];
      cs.i_prev = 0.0;
    }
  }

  auto store = [&](double t) {
    res.time.push_back(t);
    Vector vp(np);
    for (std::size_t p = 0; p < np; ++p) vp[p] = x[p];
    res.port_voltages.push_back(std::move(vp));
  };
  store(0.0);

  const auto nsteps =
      static_cast<std::size_t>(std::ceil(opt.tstop / opt.dt - 1e-9));
  for (std::size_t step = 1; step <= nsteps; ++step) {
    const double t = static_cast<double>(step) * opt.dt;

    Vector rhs_const(n, 0.0);
    for (const auto& kc : chord_known) {
      rhs_const[kc.row] += kc.g * known_voltage(kc.node, t);
    }
    for (const auto& cs : caps) {
      const double h = cs.geq * cs.u_prev + cs.i_prev;
      const double ka =
          cs.ua < 0 ? cs.geq * known_voltage(cs.na, t) : 0.0;
      const double kb =
          cs.ub < 0 ? cs.geq * known_voltage(cs.nb, t) : 0.0;
      if (cs.ua >= 0) rhs_const[cs.ua] += h + kb;
      if (cs.ub >= 0) rhs_const[cs.ub] += -h + ka;
    }
    const Vector hist = conv.history();
    const Vector yhist = y_h * hist;
    for (std::size_t p = 0; p < np; ++p) rhs_const[p] += yhist[p];

    bool ok = false;
    for (int it = 0; it < opt.max_sc_iters; ++it) {
      Vector rhs = rhs_const;
      add_device_norton(node_voltages(x, t), rhs);
      Vector xn = lu_tr->solve(rhs);
      double dmax = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        double d = xn[i] - x[i];
        dmax = std::max(dmax, std::abs(d));
        x[i] += std::clamp(d, -clamp, clamp);
      }
      ++res.total_sc_iterations;
      if (dmax < opt.vtol) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      res.diag.kind = sim::FailureKind::kNewtonNonConvergence;
      res.diag.failure_time = t;
      res.diag.detail =
          "SC iteration limit " + std::to_string(opt.max_sc_iters) + " hit";
      res.diag.iterations = res.total_sc_iterations;
      res.diag.max_abs_v = numeric::max_abs(x);
      return res;
    }
    if (const double mv = numeric::max_abs(x); mv > opt.vblowup) {
      res.diag.kind = sim::FailureKind::kBlowUp;
      res.diag.failure_time = t;
      res.diag.detail = "port/internal voltage blew up (unstable load?)";
      res.diag.iterations = res.total_sc_iterations;
      res.diag.max_abs_v = mv;
      return res;
    }

    {
      Vector vp(np);
      for (std::size_t p = 0; p < np; ++p) vp[p] = x[p];
      Vector i_load = y_h * vp;
      for (std::size_t p = 0; p < np; ++p) i_load[p] -= yhist[p];
      conv.advance(i_load);
    }
    const Vector vn = node_voltages(x, t);
    for (auto& cs : caps) {
      const double u_new = vn[cs.na] - vn[cs.nb];
      const double i_new = cs.geq * (u_new - cs.u_prev) - cs.i_prev;
      cs.u_prev = u_new;
      cs.i_prev = i_new;
    }
    store(t);
  }

  res.converged = true;
  res.diag.iterations = res.total_sc_iterations;
  return res;
}

TetaResult simulate_stage(const StageCircuit& stage,
                          const mor::PoleResidueModel& load,
                          const TetaOptions& opt) {
  if (load.num_ports() != stage.num_ports()) {
    sim::throw_invalid_input("simulate_stage: port count mismatch");
  }
  if (load.count_unstable() > 0) {
    TetaResult res;
    res.diag.kind = sim::FailureKind::kUnstableMacromodel;
    res.diag.detail = std::to_string(load.count_unstable()) +
                      " right-half-plane pole(s), max Re = " +
                      std::to_string(load.max_unstable_real()) +
                      (opt.reject_unstable_load ? " (rejected by policy)"
                                                : "; stabilize() the load");
    return res;
  }

  TetaOptions attempt = opt;
  long iterations = 0;
  for (int retry = 0;; ++retry) {
    TetaResult res = simulate_stage_once(stage, load, attempt);
    iterations += res.total_sc_iterations;
    res.total_sc_iterations = iterations;
    res.diag.iterations = iterations;
    res.diag.retries_used = retry;
    if (res.converged || retry >= opt.recovery.max_dt_retries ||
        res.diag.kind == sim::FailureKind::kSingularSystem) {
      return res;
    }
    attempt.dt *= 0.5;
    attempt.damping_frac *= opt.recovery.damping_factor;
  }
}

}  // namespace prepr

// ---------------------------------------------------------------------
// Stage harness: one INV stage whose load is characterized by
// core::characterize_stage_load, as PathAnalyzer characterizes it
// (chord-folded 1-line wire pencil, receiver pin cap, PACT order 6,
// variational over normalized wire W/H).
// ---------------------------------------------------------------------

teta::StageCircuit make_stage(const timing::CellTemplate& cell,
                              const circuit::Technology& tech,
                              const circuit::SourceWaveform& input,
                              const timing::DeviceVariation& dev) {
  teta::StageCircuit stage;
  const std::size_t out = stage.add_port();
  (void)stage.add_port();  // far port (receiver side), observed
  const std::size_t in = stage.add_input(input);
  const std::size_t vdd = stage.add_rail(tech.vdd);
  const std::size_t gnd = stage.add_rail(0.0);
  timing::instantiate_cell(cell, tech, stage, out, in, vdd, gnd, dev);
  stage.freeze_device_capacitances();
  return stage;
}

double far_delay(const teta::TetaResult& res, double vdd) {
  if (!res.converged) {
    throw std::runtime_error("bench_hotpath TETA: " + res.failure());
  }
  return timing::measure_ramp(res.waveform(1), vdd, /*rising=*/false).m;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_hotpath.json";
  const bool quick = bench::quick_mode();
  const std::size_t nsamples = quick ? 8 : 64;

  bench::print_header(
      "Hot-path per-sample throughput (pre-PR vs pooled vs batched)");

  const circuit::Technology tech = circuit::technology_180nm();
  const timing::CellTemplate& cell = timing::find_cell("INV");
  const std::size_t segments = 4;  // PathSpec linear_elements_per_stage=10
  const double rcap = core::input_pin_cap(cell, tech);
  const mor::VariationalRom rom =
      core::characterize_stage_load(cell, tech, segments, rcap, 6);
  const circuit::SourceWaveform input =
      circuit::SourceWaveform::ramp(0.0, tech.vdd, 0.2e-9, 0.1e-9);

  teta::TetaOptions opt;
  opt.dt = 0.5e-12;  // fine-resolution waveform propagation
  // Quick mode scales the transient length along with the sample count,
  // so a quick run is genuinely cheap; the transition (input ramp at
  // 0.2 ns) still completes well inside the shorter window.
  opt.tstop = quick ? 1.0e-9 : 2.0e-9;
  opt.vdd = tech.vdd;
  const auto nsteps =
      static_cast<std::size_t>(std::ceil(opt.tstop / opt.dt - 1e-9));

  // The deterministic variate set all pipelines consume (counter-based
  // streams, exactly like stats::Runner): per-sample device dl/vt
  // plus global wire W/H, each at sigma = 1/3 in 3-sigma units, mapped to
  // physical units by core::sample_from_sources. The wire draw is
  // physical (what a PathSample carries); the normalized ROM coordinates
  // are derived from it with core::measure_stage_batch's rule, so the
  // scalar and batched legs consume bitwise-identical ROM inputs.
  const core::PathVariationModel all_sources{1.0, 1.0, 1.0, 1.0};
  struct Draw {
    timing::DeviceVariation dev;
    interconnect::WireVariation wire;  // physical global wire variation
    Vector w;  // normalized wire (W, H) for the ROM library
  };
  std::vector<Draw> samples;
  samples.reserve(nsamples);
  for (std::size_t s = 0; s < nsamples; ++s) {
    stats::SplitMix64 stream = stats::sample_stream(97, s);
    auto normal = [&stream] {
      return stats::to_normal(stream.uniform_open(), 0.0, 1.0 / 3.0);
    };
    const core::PathSample ps = core::sample_from_sources(
        all_sources, tech, 1, {normal(), normal(), normal(), normal()});
    Draw d;
    d.dev = ps.device[0];
    d.wire = ps.wire;
    d.w = Vector{tech.wire_tol.width > 0.0
                     ? d.wire.width / tech.wire_tol.width
                     : 0.0,
                 tech.wire_tol.ild_thickness > 0.0
                     ? d.wire.ild_thickness / tech.wire_tol.ild_thickness
                     : 0.0};
    samples.push_back(std::move(d));
  }

  // Baseline: the pre-PR pipeline. Fresh ReducedModel per evaluate, fresh
  // extraction intermediates, and the frozen pre-PR TETA engine above.
  auto run_baseline = [&](const Draw& d) {
    const teta::StageCircuit stage = make_stage(cell, tech, input, d.dev);
    const auto z = mor::stabilize(
        mor::extract_pole_residue(rom.evaluate(d.w)), nullptr,
        mor::StabilizePolicy::kDirectCompensation);
    return far_delay(prepr::simulate_stage(stage, z, opt), tech.vdd);
  };
  std::vector<double> base_d(nsamples);
  (void)run_baseline(samples[0]);  // warm caches fairly
  bench::Stopwatch sw_base;
  for (std::size_t s = 0; s < nsamples; ++s) {
    base_d[s] = run_baseline(samples[s]);
  }
  const double t_base = sw_base.seconds();

  // Pooled: the Monte-Carlo lane pipeline -- one SampleWorkspace reused
  // across all samples, exactly as PathAnalyzer hands each thread lane.
  core::PathAnalyzer::SampleWorkspace ws;
  auto run_pooled = [&](const Draw& d) {
    const teta::StageCircuit stage = make_stage(cell, tech, input, d.dev);
    rom.evaluate_into(d.w, ws.rom);
    const auto z =
        mor::stabilize(mor::extract_pole_residue(ws.rom, ws.poleres),
                       nullptr, mor::StabilizePolicy::kDirectCompensation);
    teta::simulate_stage(stage, z, opt, ws.teta, ws.teta_result);
    return far_delay(ws.teta_result, tech.vdd);
  };
  std::vector<double> pooled_d(nsamples);
  (void)run_pooled(samples[0]);  // warm-up fills the pools
  bench::Stopwatch sw_pooled;
  for (std::size_t s = 0; s < nsamples; ++s) {
    pooled_d[s] = run_pooled(samples[s]);
  }
  const double t_pooled = sw_pooled.seconds();

  // Batched: the lockstep SoA pipeline, exactly as the batch-dispatched
  // Monte-Carlo drivers call it (core::measure_stage_batch over K-sample
  // blocks, one BatchWorkspace reused across blocks).
  const std::size_t kbatch = 8;
  core::StageModel smodel;
  smodel.cell = &cell;
  smodel.load = rom;
  smodel.receiver_cap = rcap;
  core::StageSimOptions sopt;
  sopt.dt = opt.dt;
  sopt.stage_window = opt.tstop;
  core::BatchWorkspace bws;
  std::vector<const circuit::SourceWaveform*> binputs;
  std::vector<double> bshifts;
  std::vector<const timing::DeviceVariation*> bdevs;
  std::vector<const interconnect::WireVariation*> bwires;
  std::vector<core::StageMeasurement> meas;
  std::vector<double> batched_d(nsamples);
  auto run_batched_block = [&](std::size_t s0, std::size_t cnt) {
    binputs.assign(cnt, &input);
    bshifts.assign(cnt, 0.0);
    bdevs.clear();
    bwires.clear();
    for (std::size_t b = 0; b < cnt; ++b) {
      bdevs.push_back(&samples[s0 + b].dev);
      bwires.push_back(&samples[s0 + b].wire);
    }
    core::measure_stage_batch(smodel, tech, sopt, 0, binputs, bshifts,
                              bdevs, bwires, /*out_rising=*/false, nullptr,
                              meas, bws);
    for (std::size_t b = 0; b < cnt; ++b) {
      if (meas[b].failed) {
        throw std::runtime_error("bench_hotpath batched: " +
                                 meas[b].diag.message());
      }
      batched_d[s0 + b] = meas[b].params.m;
    }
  };
  run_batched_block(0, std::min(kbatch, nsamples));  // warm-up fills SoA
  bench::Stopwatch sw_batched;
  for (std::size_t s0 = 0; s0 < nsamples; s0 += kbatch) {
    run_batched_block(s0, std::min(kbatch, nsamples - s0));
  }
  const double t_batched = sw_batched.seconds();

  bool identical = true;
  for (std::size_t s = 0; s < nsamples; ++s) {
    if (numeric::exact_eq(base_d[s], pooled_d[s]) &&
        numeric::exact_eq(base_d[s], batched_d[s])) {
      continue;
    }
    identical = false;
    std::printf("MISMATCH sample %zu: baseline %.17g pooled %.17g "
                "batched %.17g\n",
                s, base_d[s], pooled_d[s], batched_d[s]);
  }

  const double n = static_cast<double>(nsamples);
  const double rate_base = n / t_base;
  const double rate_pooled = n / t_pooled;
  const double rate_batched = n / t_batched;
  const double speedup = rate_pooled / rate_base;
  const double batched_speedup = rate_batched / rate_pooled;

  std::printf("samples            : %zu (%s), %zu transient steps each\n",
              nsamples, quick ? "quick" : "full", nsteps);
  std::printf("baseline (pre-PR)  : %8.3f ms/sample  (%7.2f samples/s)\n",
              1e3 * t_base / n, rate_base);
  std::printf("pooled workspace   : %8.3f ms/sample  (%7.2f samples/s)\n",
              1e3 * t_pooled / n, rate_pooled);
  std::printf("batched SoA (K=%zu) : %8.3f ms/sample  (%7.2f samples/s)\n",
              kbatch, 1e3 * t_batched / n, rate_batched);
  std::printf("speedup            : %.2fx (pooled vs baseline)\n", speedup);
  std::printf("batched speedup    : %.2fx (batched vs pooled)\n",
              batched_speedup);
  std::printf("bitwise identical  : %s\n", identical ? "yes" : "NO");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_hotpath: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"hotpath\",\n"
               "  \"quick\": %s,\n"
               "  \"config\": {\n"
               "    \"wire_segments\": %zu,\n"
               "    \"samples\": %zu,\n"
               "    \"dt\": %g,\n"
               "    \"transient_steps\": %zu,\n"
               "    \"batch\": %zu\n"
               "  },\n"
               "  \"metrics\": {\n"
               "    \"baseline_ms_per_sample\": %.6f,\n"
               "    \"baseline_samples_per_sec\": %.6f,\n"
               "    \"pooled_ms_per_sample\": %.6f,\n"
               "    \"pooled_samples_per_sec\": %.6f,\n"
               "    \"speedup\": %.6f,\n"
               "    \"batched_ms_per_sample\": %.6f,\n"
               "    \"batched_samples_per_sec\": %.6f,\n"
               "    \"batched_speedup_vs_pooled\": %.6f\n"
               "  },\n"
               "  \"bitwise_identical\": %s\n"
               "}\n",
               quick ? "true" : "false", segments, nsamples, opt.dt, nsteps,
               kbatch, 1e3 * t_base / n, rate_base, 1e3 * t_pooled / n,
               rate_pooled, speedup, 1e3 * t_batched / n, rate_batched,
               batched_speedup, identical ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return identical ? 0 : 1;
}
