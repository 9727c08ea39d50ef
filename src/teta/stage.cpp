#include "teta/stage.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numeric/fp_compare.hpp"
#include "numeric/lu.hpp"
#include "teta/convolution.hpp"
#include "teta/stage_detail.hpp"

namespace lcsf::teta {

using circuit::Mosfet;
using numeric::Matrix;
using numeric::Vector;

std::size_t StageCircuit::add_node(StageNodeKind kind, std::size_t kindex) {
  kinds_.push_back(kind);
  kind_index_.push_back(kindex);
  return kinds_.size() - 1;
}

std::size_t StageCircuit::add_port() {
  return add_node(StageNodeKind::kPort, num_ports_++);
}

std::size_t StageCircuit::add_internal() {
  return add_node(StageNodeKind::kInternal, 0);  // index assigned later
}

std::size_t StageCircuit::add_input(circuit::SourceWaveform wave) {
  inputs_.push_back(std::move(wave));
  return add_node(StageNodeKind::kInput, inputs_.size() - 1);
}

std::size_t StageCircuit::add_rail(double voltage) {
  rails_.push_back(voltage);
  return add_node(StageNodeKind::kRail, rails_.size() - 1);
}

void StageCircuit::add_mosfet(Mosfet m) {
  if (frozen_) {
    throw std::logic_error("StageCircuit: frozen; cannot add devices");
  }
  const auto check = [this](int n) {
    if (n < 0 || static_cast<std::size_t>(n) >= kinds_.size()) {
      throw std::out_of_range("StageCircuit: bad device terminal");
    }
  };
  check(m.drain);
  check(m.gate);
  check(m.source);
  mosfets_.push_back(std::move(m));
}

void StageCircuit::add_capacitor(std::size_t a, std::size_t b,
                                 double farads) {
  if (a >= kinds_.size() || b >= kinds_.size() || a == b) {
    sim::throw_invalid_input("StageCircuit: bad capacitor nodes");
  }
  if (!std::isfinite(farads) || farads < 0.0) {
    sim::throw_invalid_input(
        "StageCircuit: capacitance must be finite and >= 0");
  }
  caps_.push_back({static_cast<int>(a), static_cast<int>(b), farads});
}

void StageCircuit::freeze_device_capacitances() {
  if (frozen_) return;
  frozen_ = true;
  for (const Mosfet& m : mosfets_) {
    const auto g = static_cast<std::size_t>(m.gate);
    const auto d = static_cast<std::size_t>(m.drain);
    const auto s = static_cast<std::size_t>(m.source);
    if (g != s) add_capacitor(g, s, m.cgs());
    if (g != d) add_capacitor(g, d, m.cgd());
    // Drain junction cap to the ground rail if one exists; otherwise skip
    // (the load model usually carries the port ground capacitance).
    for (std::size_t n = 0; n < kinds_.size(); ++n) {
      if (kinds_[n] == StageNodeKind::kRail &&
          numeric::exact_zero(rails_[kind_index_[n]])) {
        if (d != n) add_capacitor(d, n, m.cdb());
        break;
      }
    }
  }
}

double StageCircuit::rail_voltage(std::size_t n) const {
  if (kinds_.at(n) != StageNodeKind::kRail) {
    sim::throw_invalid_input("StageCircuit: not a rail node");
  }
  return rails_[kind_index_[n]];
}

const circuit::SourceWaveform& StageCircuit::input_wave(std::size_t n) const {
  if (kinds_.at(n) != StageNodeKind::kInput) {
    sim::throw_invalid_input("StageCircuit: not an input node");
  }
  return inputs_[kind_index_[n]];
}

double StageCircuit::chord_conductance(const Mosfet& m, double vdd) {
  // Maximum output conductance of the level-1 device over the signal range
  // occurs in deep triode at full gate drive: g = beta (Vdd - VT).
  // Deliberately evaluated at *nominal* parameters (delta_l, delta_vt
  // ignored): the paper keeps the chord models constant under parameter
  // fluctuations so the variational load library is characterized once.
  const double beta = m.model.kp * m.w / m.l;
  const double vgst = vdd - m.model.vt0;
  return beta * std::max(vgst, 0.1 * vdd);
}

Vector StageCircuit::port_chord_conductances(double vdd) const {
  Vector g(num_ports_, 0.0);
  for (const Mosfet& m : mosfets_) {
    const double gch = chord_conductance(m, vdd);
    for (int t : {m.drain, m.source}) {
      const auto n = static_cast<std::size_t>(t);
      if (kinds_[n] == StageNodeKind::kPort) {
        g[kind_index_[n]] += gch;
      }
    }
  }
  return g;
}

namespace {

/// Unknown indexing for the SC linear system: ports first (load-port
/// order), then internal nodes. Writes into a reusable map so the hot path
/// allocates nothing; returns the number of unknowns.
std::size_t build_unknown_map(const StageCircuit& s,
                              std::vector<int>& node_to_unknown) {
  node_to_unknown.assign(s.num_nodes(), -1);
  std::size_t next_internal = s.num_ports();
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
  return next_internal;
}

}  // namespace

std::vector<std::pair<double, double>> TetaResult::waveform(
    std::size_t port) const {
  const std::size_t np = time.empty() ? 0 : port_voltages.size() / time.size();
  if (port >= np) {
    sim::throw_invalid_input("TetaResult::waveform: port " +
                             std::to_string(port) + " out of range (" +
                             std::to_string(np) + " stored)");
  }
  std::vector<std::pair<double, double>> w;
  w.reserve(time.size());
  for (std::size_t k = 0; k < time.size(); ++k) {
    w.emplace_back(time[k], port_voltages[k * np + port]);
  }
  return w;
}

namespace detail {

bool setup_and_dc(const StageCircuit& stage,
                  const mor::PoleResidueModel& load, const TetaOptions& opt,
                  TetaWorkspace& ws, TetaResult& res) {
  res.converged = false;
  res.diag = sim::SimDiagnostics{};
  res.time.clear();
  res.port_voltages.clear();
  const std::size_t n = build_unknown_map(stage, ws.node_to_unknown);
  const std::vector<int>& node_to_unknown = ws.node_to_unknown;
  const std::size_t np = stage.num_ports();

  RecursiveConvolver& conv = ws.conv;
  conv.reset(load, opt.dt);
  const double clamp = opt.damping_frac * opt.vdd;

  // Known node voltages at time t.
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

  // ---- Constant system matrices -------------------------------------
  // A_dc: chords + Y_dc (caps open).  A_tr: chords + cap companions + Y_h.
  // Both subtract the port chord diagonal that is already inside the
  // reduced load (it was folded in before reduction, Table 1 step 2).
  const Vector gsc = stage.port_chord_conductances(opt.vdd);

  Matrix& a_dc = ws.a_dc;
  Matrix& a_tr = ws.a_tr;
  a_dc.assign(n, n);
  a_tr.assign(n, n);
  // Contributions of known-node chord couplings: list of (row, node, g).
  std::vector<TetaWorkspace::KnownCoupling>& chord_known = ws.chord_known;
  chord_known.clear();

  // Per device, once per transient: the chord conductance and the
  // level-1 constants the DC Newton and every chord iteration read.
  std::vector<double>& chords = ws.chords;
  chords.assign(stage.mosfets().size(), 0.0);
  ws.devices.clear();
  for (std::size_t d = 0; d < stage.mosfets().size(); ++d) {
    const Mosfet& m = stage.mosfets()[d];
    const double g = StageCircuit::chord_conductance(m, opt.vdd);
    chords[d] = g;
    ws.devices.push_back(circuit::MosfetConstants::of(m));
    const int ud = node_to_unknown[static_cast<std::size_t>(m.drain)];
    const int us = node_to_unknown[static_cast<std::size_t>(m.source)];
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

  // Load admittance blocks (in-place equivalent of numeric::inverse).
  Matrix& y_h = ws.y_h;
  Matrix& y_dc = ws.y_dc;
  try {
    ws.ident.assign(np, np);
    for (std::size_t i = 0; i < np; ++i) ws.ident(i, i) = 1.0;
    ws.lu_imp.refactor(conv.step_impedance());
    ws.lu_imp.solve_into(ws.ident, y_h, ws.col_b, ws.col_x);
    ws.lu_imp.refactor(conv.dc_impedance());
    ws.lu_imp.solve_into(ws.ident, y_dc, ws.col_b, ws.col_x);
  } catch (const std::runtime_error&) {
    res.diag.kind = sim::FailureKind::kSingularSystem;
    res.diag.detail = "singular load impedance";
    return false;
  }
  for (std::size_t i = 0; i < np; ++i) {
    for (std::size_t j = 0; j < np; ++j) {
      a_dc(i, j) += y_dc(i, j);
      a_tr(i, j) += y_h(i, j);
    }
    // Chord diagonal already inside the load model.
    a_dc(i, i) -= gsc[i];
    a_tr(i, i) -= gsc[i];
  }

  // Cap companions in the transient matrix.
  const double ceff = 2.0 / opt.dt;
  std::vector<TetaWorkspace::CapState>& caps = ws.caps;
  caps.clear();
  for (const auto& c : stage.capacitors()) {
    TetaWorkspace::CapState cs;
    cs.na = static_cast<std::size_t>(c.a);
    cs.nb = static_cast<std::size_t>(c.b);
    cs.ua = node_to_unknown[cs.na];
    cs.ub = node_to_unknown[cs.nb];
    cs.geq = ceff * c.farads;
    if (cs.ua >= 0) a_tr(cs.ua, cs.ua) += cs.geq;
    if (cs.ub >= 0) a_tr(cs.ub, cs.ub) += cs.geq;
    if (cs.ua >= 0 && cs.ub >= 0) {
      a_tr(cs.ua, cs.ub) -= cs.geq;
      a_tr(cs.ub, cs.ua) -= cs.geq;
    }
    caps.push_back(cs);
  }

  // One factorization for the whole transient -- the linear-centric core.
  // refactor() reuses the pivot/storage from the previous sample instead of
  // reconstructing the factorization objects.
  try {
    ws.lu_dc.refactor(a_dc);
    ws.lu_tr.refactor(a_tr);
  } catch (const std::runtime_error& e) {
    res.diag.kind = sim::FailureKind::kSingularSystem;
    res.diag.detail = std::string("singular SC system: ") + e.what();
    return false;
  }

  // Full node voltages from the unknown vector at time t, written into the
  // reusable ws.vnode buffer.
  auto node_voltages = [&](const Vector& xv, double t) -> const Vector& {
    Vector& v = ws.vnode;
    v.resize(stage.num_nodes());
    for (std::size_t nn = 0; nn < stage.num_nodes(); ++nn) {
      const int u = node_to_unknown[nn];
      v[nn] = (u >= 0) ? xv[static_cast<std::size_t>(u)]
                       : known_voltage(nn, t);
    }
    return v;
  };

  // ---- DC operating point (t = 0) ------------------------------------
  // The one-time DC initialization uses plain Newton: fixed chords stall
  // on pass-transistor nodes whose devices all pinch off (contraction
  // factor -> 1), while Newton converges quadratically. The linear-centric
  // fixed-chord property only matters for the transient loop, where the
  // capacitor companions keep the SC iteration strongly contractive.
  Vector& x = ws.x;
  x.assign(n, 0.0);
  {
    Matrix& base = ws.dc_base;
    base.assign(n, n);
    for (std::size_t i = 0; i < np; ++i) {
      for (std::size_t j = 0; j < np; ++j) base(i, j) = y_dc(i, j);
      base(i, i) -= gsc[i];
    }
    constexpr double kGminDc = 1e-9;  // floats pinch-off-isolated nodes
    for (std::size_t i = 0; i < n; ++i) base(i, i) += kGminDc;

    bool ok = false;
    for (int it = 0; it < opt.max_sc_iters; ++it) {
      Matrix& a = ws.dc_a;
      a = base;
      Vector& rhs = ws.rhs;
      rhs.assign(n, 0.0);
      const Vector& vnode = node_voltages(x, 0.0);
      for (std::size_t d = 0; d < stage.mosfets().size(); ++d) {
        const Mosfet& m = stage.mosfets()[d];
        const double vg = vnode[static_cast<std::size_t>(m.gate)];
        const double vd = vnode[static_cast<std::size_t>(m.drain)];
        const double vs = vnode[static_cast<std::size_t>(m.source)];
        const auto op = circuit::mosfet_eval(ws.devices[d], vg, vd, vs);
        const double ieq = op.ids - op.gm * (vg - vs) - op.gds * (vd - vs);
        const int rd = node_to_unknown[static_cast<std::size_t>(m.drain)];
        const int rs =
            node_to_unknown[static_cast<std::size_t>(m.source)];
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
                node_to_unknown[static_cast<std::size_t>(cc.node)];
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
      // The chord iteration at paper speed: refactor the fixed-shape Newton
      // matrix in place instead of constructing a factorization per pass.
      ws.lu_newton.refactor(a);
      Vector& xn = ws.xn;
      ws.lu_newton.solve_into(rhs, xn);
      double dmax = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        double d = xn[i] - x[i];
        dmax = std::max(dmax, std::abs(d));
        x[i] += std::clamp(d, -clamp, clamp);
      }
      ++res.total_sc_iterations;
      if (dmax < opt.vtol) {
        // std::max drops a NaN step; the clamped update keeps it in x.
        ok = std::all_of(x.begin(), x.end(),
                         [](double v) { return std::isfinite(v); });
        break;
      }
    }
    if (!ok) {
      res.diag.kind = sim::FailureKind::kDcFailure;
      res.diag.detail = "Newton failed at DC";
      res.diag.iterations = res.total_sc_iterations;
      return false;
    }
  }

  // Initialize convolver history with the DC load current.
  {
    Vector& vp = ws.vp;
    vp.resize(np);
    for (std::size_t p = 0; p < np; ++p) vp[p] = x[p];
    numeric::mul_into(y_dc, vp, ws.i_load);
    conv.initialize_dc(ws.i_load);
  }
  // Initialize cap states.
  {
    const Vector& vn = node_voltages(x, 0.0);
    for (auto& cs : caps) {
      cs.u_prev = vn[cs.na] - vn[cs.nb];
      cs.i_prev = 0.0;
    }
  }
  return true;
}

}  // namespace detail

TetaResult simulate_stage(const StageCircuit& stage,
                          const mor::PoleResidueModel& load,
                          const TetaOptions& opt) {
  TetaWorkspace ws;
  return simulate_stage(stage, load, opt, ws);
}

TetaResult simulate_stage(const StageCircuit& stage,
                          const mor::PoleResidueModel& load,
                          const TetaOptions& opt, TetaWorkspace& ws) {
  TetaResult res;
  simulate_stage(stage, load, opt, ws, res);
  return res;
}

void simulate_stage(const StageCircuit& stage,
                    const mor::PoleResidueModel& load, const TetaOptions& opt,
                    TetaWorkspace& ws, TetaResult& out) {
  simulate_stage_batch({{&stage, &load, &ws, &out}}, opt, ws.one_lane);
}

std::vector<std::pair<double, double>> compress_pwl(
    const std::vector<std::pair<double, double>>& samples, double vtol) {
  if (samples.size() <= 2) return samples;
  std::vector<std::pair<double, double>> out;
  out.push_back(samples.front());
  std::size_t anchor = 0;
  for (std::size_t k = 2; k < samples.size(); ++k) {
    // Check all samples strictly between anchor and k against the chord.
    const auto [t0, v0] = samples[anchor];
    const auto [t1, v1] = samples[k];
    bool within = true;
    for (std::size_t m = anchor + 1; m < k && within; ++m) {
      const auto [tm, vm] = samples[m];
      const double frac = (tm - t0) / (t1 - t0);
      const double lin = v0 + frac * (v1 - v0);
      within = std::abs(lin - vm) <= vtol;
    }
    if (!within) {
      anchor = k - 1;
      out.push_back(samples[anchor]);
    }
  }
  out.push_back(samples.back());
  return out;
}

}  // namespace lcsf::teta
