#include "spice/transient.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "circuit/mosfet.hpp"
#include "numeric/fp_compare.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace lcsf::spice {

using circuit::kGround;
using circuit::NodeId;
using numeric::SparseLu;
using numeric::SparseMatrix;
using numeric::Vector;

namespace {
constexpr int kGroundMark = -1;
// DC approximation of an inductor: a strong short [S].
constexpr double kInductorDcShort = 1e3;

// Index of node n in the stored node vectors; throws kInvalidInput when
// none are stored or n lies outside them.
std::size_t stored_node(const std::vector<Vector>& stored, NodeId n) {
  if (stored.empty()) {
    sim::throw_invalid_input("TransientResult: no stored waveforms");
  }
  const std::size_t nodes = stored.back().size();
  if (n < 0 || static_cast<std::size_t>(n) >= nodes) {
    sim::throw_invalid_input("TransientResult: node " + std::to_string(n) +
                             " out of range (" + std::to_string(nodes) +
                             " stored)");
  }
  return static_cast<std::size_t>(n);
}
}  // namespace

std::vector<std::pair<double, double>> TransientResult::waveform(
    NodeId n) const {
  // `time` is populated even when store_waveforms was off; indexing
  // node_voltages by time's length would read out of bounds then.
  if (node_voltages.size() != time.size()) {
    sim::throw_invalid_input("TransientResult: no stored waveforms");
  }
  const std::size_t node = stored_node(node_voltages, n);
  std::vector<std::pair<double, double>> w;
  w.reserve(time.size());
  for (std::size_t k = 0; k < time.size(); ++k) {
    w.emplace_back(time[k], node_voltages[k][node]);
  }
  return w;
}

double TransientResult::final_voltage(NodeId n) const {
  const std::size_t node = stored_node(node_voltages, n);
  return node_voltages.back()[node];
}

TransientSimulator::TransientSimulator(const circuit::Netlist& nl) : nl_(nl) {
  node_to_unknown_.assign(nl.node_count(), 0);
  node_to_unknown_[kGround] = kGroundMark;
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const auto& v = nl.vsources()[k];
    if (v.neg != kGround) {
      sim::throw_invalid_input(
          "TransientSimulator: only grounded voltage sources supported");
    }
    if (v.pos == kGround) {
      sim::throw_invalid_input("TransientSimulator: source shorted");
    }
    if (node_to_unknown_[v.pos] < 0) {
      sim::throw_invalid_input(
          "TransientSimulator: node driven by two sources");
    }
    node_to_unknown_[v.pos] = -2 - static_cast<int>(k);
  }
  num_node_unknowns_ = 0;
  for (std::size_t n = 1; n < nl.node_count(); ++n) {
    if (node_to_unknown_[n] >= 0) {
      node_to_unknown_[n] = static_cast<int>(num_node_unknowns_++);
    }
  }
  num_unknowns_ = num_node_unknowns_;
}

void TransientSimulator::add_macromodel(MacromodelStamp stamp) {
  if (structure_built_) {
    throw std::logic_error("add_macromodel: simulation already started");
  }
  if (!stamp.g.square() || stamp.g.rows() != stamp.c.rows() ||
      stamp.ports.size() > stamp.g.rows()) {
    sim::throw_invalid_input("add_macromodel: inconsistent dimensions");
  }
  macromodels_.push_back(std::move(stamp));
}

void TransientSimulator::build_structure() {
  if (structure_built_) return;
  structure_built_ = true;

  num_unknowns_ = num_node_unknowns_;
  // Assign unknown indices to macromodel internal variables.
  std::vector<std::size_t> mm_base;
  for (const auto& mm : macromodels_) {
    mm_base.push_back(num_unknowns_);
    num_unknowns_ += mm.num_internal();
  }

  auto add_pair = [this](std::vector<Entry>& uu, std::vector<KnownEntry>& uk,
                         int row_code, int col_code, double val) {
    if (row_code < 0 || numeric::exact_zero(val)) return;  // ground or known row: no eqn
    const auto row = static_cast<std::size_t>(row_code);
    if (col_code >= 0) {
      uu.push_back({row, static_cast<std::size_t>(col_code), val});
    } else if (col_code <= -2) {
      uk.push_back({row, static_cast<std::size_t>(-2 - col_code), val});
    }
    // ground column: contributes nothing
  };

  auto stamp_two_terminal = [&](std::vector<Entry>& uu,
                                std::vector<KnownEntry>& uk, NodeId a,
                                NodeId b, double val) {
    const int ca = node_to_unknown_[a];
    const int cb = node_to_unknown_[b];
    add_pair(uu, uk, ca, ca, val);
    add_pair(uu, uk, cb, cb, val);
    add_pair(uu, uk, ca, cb, -val);
    add_pair(uu, uk, cb, ca, -val);
  };

  for (const auto& r : nl_.resistors()) {
    stamp_two_terminal(g_uu_, g_uk_, r.a, r.b, 1.0 / r.ohms);
  }
  for (const auto& c : nl_.capacitors()) {
    stamp_two_terminal(c_uu_, c_uk_, c.a, c.b, c.farads);
  }
  for (const auto& l : nl_.inductors()) {
    inductors_.push_back({l.a, l.b, l.henries});
  }

  for (std::size_t m = 0; m < macromodels_.size(); ++m) {
    const auto& mm = macromodels_[m];
    const std::size_t np = mm.ports.size();
    auto code_of = [&](std::size_t k) -> int {
      if (k < np) return node_to_unknown_[mm.ports[k]];
      return static_cast<int>(mm_base[m] + (k - np));
    };
    for (std::size_t i = 0; i < mm.g.rows(); ++i) {
      for (std::size_t j = 0; j < mm.g.cols(); ++j) {
        add_pair(g_uu_, g_uk_, code_of(i), code_of(j), mm.g(i, j));
        add_pair(c_uu_, c_uk_, code_of(i), code_of(j), mm.c(i, j));
      }
    }
  }
}

Vector TransientSimulator::known_voltages(double t, double scale) const {
  Vector vk(nl_.vsources().size());
  for (std::size_t k = 0; k < vk.size(); ++k) {
    vk[k] = scale * nl_.vsources()[k].wave.value(t);
  }
  return vk;
}

Vector TransientSimulator::isource_rhs(double t, double scale) const {
  Vector b(num_unknowns_, 0.0);
  for (const auto& i : nl_.isources()) {
    const double val = scale * i.wave.value(t);
    const int into = node_to_unknown_[i.into];
    const int from = node_to_unknown_[i.from];
    if (into >= 0) b[static_cast<std::size_t>(into)] += val;
    if (from >= 0) b[static_cast<std::size_t>(from)] -= val;
  }
  return b;
}

const Vector& TransientSimulator::assemble_node_voltages(const Vector& x,
                                                         const Vector& vk) {
  Vector& v = vnode_scratch_;
  v.assign(nl_.node_count(), 0.0);
  for (std::size_t n = 0; n < nl_.node_count(); ++n) {
    const int code = node_to_unknown_[n];
    if (code >= 0) {
      v[n] = x[static_cast<std::size_t>(code)];
    } else if (code <= -2) {
      v[n] = vk[static_cast<std::size_t>(-2 - code)];
    }
  }
  return v;
}

double TransientSimulator::newton_iteration(double ceff, const Vector& vk,
                                            const Vector& rhs_const,
                                            const TransientOptions& opt,
                                            Vector& x) {
  SparseMatrix& a = a_scratch_;
  if (a.size() != num_unknowns_) {
    a = SparseMatrix(num_unknowns_);
  } else {
    a.clear();
  }
  for (const auto& e : g_uu_) a.add(e.row, e.col, e.val);
  if (!numeric::exact_zero(ceff)) {
    for (const auto& e : c_uu_) a.add(e.row, e.col, ceff * e.val);
  }
  for (std::size_t i = 0; i < num_unknowns_; ++i) a.add(i, i, opt.gmin);

  Vector& b = b_scratch_;
  b = rhs_const;

  // Inductor companions: geq = dt/2L for trapezoidal steps; a strong short
  // at DC (conventional-simulator initial condition).
  for (const auto& l : inductors_) {
    const double geq =
        (!numeric::exact_zero(ceff)) ? 1.0 / (ceff * l.henries) : kInductorDcShort;
    const int ca = node_to_unknown_[l.a];
    const int cb = node_to_unknown_[l.b];
    if (ca >= 0) a.add(static_cast<std::size_t>(ca),
                       static_cast<std::size_t>(ca), geq);
    if (cb >= 0) a.add(static_cast<std::size_t>(cb),
                       static_cast<std::size_t>(cb), geq);
    if (ca >= 0 && cb >= 0) {
      a.add(static_cast<std::size_t>(ca), static_cast<std::size_t>(cb),
            -geq);
      a.add(static_cast<std::size_t>(cb), static_cast<std::size_t>(ca),
            -geq);
    }
    // Known-node columns move to the RHS.
    if (ca >= 0 && cb <= -2) {
      b[static_cast<std::size_t>(ca)] +=
          geq * vk[static_cast<std::size_t>(-2 - cb)];
    }
    if (cb >= 0 && ca <= -2) {
      b[static_cast<std::size_t>(cb)] +=
          geq * vk[static_cast<std::size_t>(-2 - ca)];
    }
  }

  // Nonlinear device stamps, re-linearized at the current iterate -- the
  // conventional Newton approach the paper contrasts with chord models.
  const Vector& vnode = assemble_node_voltages(x, vk);
  for (const auto& m : nl_.mosfets()) {
    const double vg = vnode[static_cast<std::size_t>(m.gate)];
    const double vd = vnode[static_cast<std::size_t>(m.drain)];
    const double vs = vnode[static_cast<std::size_t>(m.source)];
    const auto op = circuit::mosfet_eval(m, vg, vd, vs);
    const double ieq = op.ids - op.gm * (vg - vs) - op.gds * (vd - vs);

    const int rd = node_to_unknown_[m.drain];
    const int rs = node_to_unknown_[m.source];
    // Column contributions: +gm at gate, +gds at drain, -(gm+gds) at source.
    const struct {
      NodeId node;
      double coeff;
    } cols[3] = {{m.gate, op.gm}, {m.drain, op.gds},
                 {m.source, -(op.gm + op.gds)}};
    for (int sign : {+1, -1}) {
      const int row = (sign > 0) ? rd : rs;
      if (row < 0) continue;
      const auto r = static_cast<std::size_t>(row);
      for (const auto& cc : cols) {
        const int col = node_to_unknown_[cc.node];
        const double val = sign * cc.coeff;
        if (numeric::exact_zero(val)) continue;
        if (col >= 0) {
          a.add(r, static_cast<std::size_t>(col), val);
        } else if (col <= -2) {
          b[r] -= val * vk[static_cast<std::size_t>(-2 - col)];
        }
      }
      b[r] -= sign * ieq;
    }
  }

  obs::add_counter("spice.newton_iterations");
  if (lu_scratch_.refactor(a)) {
    obs::add_counter("spice.lu_refactors");
  } else {
    obs::add_counter("spice.lu_full_factors");
  }
  Vector& xn = xn_scratch_;
  lu_scratch_.solve_into(b, xn);

  double dmax = 0.0;
  for (std::size_t i = 0; i < num_unknowns_; ++i) {
    double d = xn[i] - x[i];
    // A NaN step must reach newton_loop's non-finite check: std::max keeps
    // a NaN dmax but would drop a NaN d.
    dmax = std::isnan(d) ? d : std::max(dmax, std::abs(d));
    d = std::clamp(d, -opt.damping, opt.damping);
    x[i] += d;
  }
  return dmax;
}

bool TransientSimulator::newton_loop(double ceff, const Vector& vk,
                                     const Vector& rhs_const,
                                     const TransientOptions& opt, Vector& x,
                                     long* iter_accum) {
  for (int it = 0; it < opt.max_newton; ++it) {
    const double dmax = newton_iteration(ceff, vk, rhs_const, opt, x);
    if (iter_accum != nullptr) ++(*iter_accum);
    if (!std::isfinite(dmax)) return false;
    if (dmax < opt.vtol) return true;
  }
  return false;
}

Vector TransientSimulator::dc_operating_point(const TransientOptions& opt) {
  obs::ScopedSpan span("spice.dc");
  obs::add_counter("spice.dc_solves");
  build_structure();
  Vector x(num_unknowns_, 0.0);

  auto try_solve = [&](double scale, Vector& xv) {
    const Vector vk = known_voltages(0.0, scale);
    Vector rhs = isource_rhs(0.0, scale);
    for (const auto& e : g_uk_) {
      rhs[e.row] -= e.val * vk[e.vsrc];
    }
    return newton_loop(0.0, vk, rhs, opt, xv, nullptr);
  };

  if (try_solve(1.0, x)) {
    return assemble_node_voltages(x, known_voltages(0.0, 1.0));
  }
  // Source-stepping homotopy.
  x.assign(num_unknowns_, 0.0);
  bool ok = true;
  for (int step = 1; step <= 20 && ok; ++step) {
    ok = try_solve(step / 20.0, x);
  }
  if (!ok) {
    // Gmin-stepping homotopy: a strong conductance floor makes every node
    // well-determined; relax it gradually while carrying the solution.
    x.assign(num_unknowns_, 0.0);
    ok = true;
    TransientOptions gopt = opt;
    for (double gmin : {1e-2, 1e-4, 1e-6, 1e-8, 1e-10, opt.gmin}) {
      gopt.gmin = gmin;
      const Vector vk = known_voltages(0.0, 1.0);
      Vector rhs = isource_rhs(0.0, 1.0);
      for (const auto& e : g_uk_) rhs[e.row] -= e.val * vk[e.vsrc];
      ok = newton_loop(0.0, vk, rhs, gopt, x, nullptr);
      if (!ok) break;
    }
  }
  if (!ok) {
    throw sim::SimulationError(
        sim::FailureKind::kDcFailure,
        "dc_operating_point: Newton failed even with source/gmin stepping");
  }
  return assemble_node_voltages(x, known_voltages(0.0, 1.0));
}

TransientResult TransientSimulator::run(const TransientOptions& opt) {
  obs::ScopedSpan span("spice.transient");
  build_structure();
  TransientResult res;

  // DC start point.
  Vector x(num_unknowns_, 0.0);
  {
    TransientOptions dcopt = opt;
    try {
      const Vector vfull = dc_operating_point(dcopt);
      for (std::size_t n = 0; n < nl_.node_count(); ++n) {
        const int code = node_to_unknown_[n];
        if (code >= 0) x[static_cast<std::size_t>(code)] = vfull[n];
      }
    } catch (const std::runtime_error& e) {
      res.diag.kind = sim::FailureKind::kDcFailure;
      res.diag.detail = e.what();
      return res;
    }
  }

  // Committed dynamic state. The capacitor companion currents and inductor
  // branch states are *physical* quantities (C dv/dt resp. i_L, u_L), so
  // a retried step may integrate from them with a different dt.
  struct DynState {
    Vector x;
    Vector ic;  ///< capacitor currents C dv/dt at the committed time
    std::vector<double> il, ul;
    Vector vk_prev;
  };
  DynState st;
  st.x = x;
  st.ic.assign(num_unknowns_, 0.0);
  st.vk_prev = known_voltages(0.0, 1.0);
  st.il.assign(inductors_.size(), 0.0);
  st.ul.assign(inductors_.size(), 0.0);
  {
    // Inductor branch states from the DC short approximation.
    const Vector& v0 = assemble_node_voltages(st.x, st.vk_prev);
    for (std::size_t k = 0; k < inductors_.size(); ++k) {
      st.ul[k] = v0[static_cast<std::size_t>(inductors_[k].a)] -
                 v0[static_cast<std::size_t>(inductors_[k].b)];
      st.il[k] = kInductorDcShort * st.ul[k];
    }
  }

  // One trapezoidal step advancing `s` from its committed time to t1 with
  // local step h = t1 - t0; commits into `s` only on success.
  auto try_step = [&](DynState& s, double t0, double t1,
                      double damping) -> sim::SimDiagnostics {
    sim::SimDiagnostics d;
    const double ceff = 2.0 / (t1 - t0);
    const Vector vk = known_voltages(t1, 1.0);
    const Vector x_prev = s.x;

    // Constant part of the RHS for this timestep (trapezoidal companions).
    Vector rhs = isource_rhs(t1, 1.0);
    for (const auto& e : g_uk_) rhs[e.row] -= e.val * vk[e.vsrc];
    for (const auto& e : c_uk_) {
      rhs[e.row] -= ceff * e.val * (vk[e.vsrc] - s.vk_prev[e.vsrc]);
    }
    for (const auto& e : c_uu_) rhs[e.row] += ceff * e.val * x_prev[e.col];
    for (std::size_t i = 0; i < num_unknowns_; ++i) rhs[i] += s.ic[i];
    // Inductor history: i^{n+1} = geq u^{n+1} + (i^n + geq u^n).
    for (std::size_t k = 0; k < inductors_.size(); ++k) {
      const double geq = 1.0 / (ceff * inductors_[k].henries);
      const double hist = s.il[k] + geq * s.ul[k];
      const int ca = node_to_unknown_[inductors_[k].a];
      const int cb = node_to_unknown_[inductors_[k].b];
      if (ca >= 0) rhs[static_cast<std::size_t>(ca)] -= hist;
      if (cb >= 0) rhs[static_cast<std::size_t>(cb)] += hist;
    }

    TransientOptions sopt = opt;
    sopt.damping = damping;
    Vector xn = s.x;
    if (!newton_loop(ceff, vk, rhs, sopt, xn, &res.total_newton_iterations)) {
      d.kind = sim::FailureKind::kNewtonNonConvergence;
      d.failure_time = t1;
      d.detail = "iteration limit " + std::to_string(opt.max_newton) +
                 (macromodels_.empty()
                      ? " hit"
                      : " hit (nonpassive/unstable macromodel load?)");
      const double mv = numeric::max_abs(xn);
      d.max_abs_v = std::isfinite(mv) ? mv : opt.vblowup;
      return d;
    }
    const double mv = numeric::max_abs(xn);
    if (!(mv <= opt.vblowup)) {
      d.kind = sim::FailureKind::kBlowUp;
      d.failure_time = t1;
      d.max_abs_v = mv;
      d.detail = macromodels_.empty() ? "solution blew up"
                                      : "solution blew up "
                                        "(unstable macromodel)";
      return d;
    }

    // Commit: capacitor currents i' = ceff (C dx) - i, inductor states.
    Vector ic_new(num_unknowns_, 0.0);
    for (const auto& e : c_uu_) {
      ic_new[e.row] += ceff * e.val * (xn[e.col] - x_prev[e.col]);
    }
    for (const auto& e : c_uk_) {
      ic_new[e.row] += ceff * e.val * (vk[e.vsrc] - s.vk_prev[e.vsrc]);
    }
    for (std::size_t i = 0; i < num_unknowns_; ++i) ic_new[i] -= s.ic[i];
    s.ic = std::move(ic_new);
    s.x = xn;
    {
      const Vector& vn = assemble_node_voltages(s.x, vk);
      for (std::size_t k = 0; k < inductors_.size(); ++k) {
        const double geq = 1.0 / (ceff * inductors_[k].henries);
        const double u_new = vn[static_cast<std::size_t>(inductors_[k].a)] -
                             vn[static_cast<std::size_t>(inductors_[k].b)];
        s.il[k] += geq * (u_new + s.ul[k]);
        s.ul[k] = u_new;
      }
    }
    s.vk_prev = vk;
    return d;  // kind == kNone
  };

  // Bounded recovery: advance across [t0, t1]; on failure, halve the
  // interval and retry both halves with tightened damping, recursing up to
  // the configured budget. The committed state is restored on failure so
  // an enclosing level retries from a consistent point.
  const auto recurse = [&](auto&& self, DynState& s, double t0, double t1,
                           double damping, int depth) -> sim::SimDiagnostics {
    sim::SimDiagnostics d = try_step(s, t0, t1, damping);
    if (!d.failed() || depth >= opt.recovery.max_dt_retries) return d;
    ++res.diag.retries_used;
    const double esc = damping * opt.recovery.damping_factor;
    const double mid = 0.5 * (t0 + t1);
    DynState backup = s;
    d = self(self, s, t0, mid, esc, depth + 1);
    if (!d.failed()) d = self(self, s, mid, t1, esc, depth + 1);
    if (d.failed()) s = std::move(backup);
    return d;
  };

  auto store = [&](double t) {
    res.time.push_back(t);
    if (opt.store_waveforms) {
      res.node_voltages.push_back(assemble_node_voltages(st.x, st.vk_prev));
    }
  };
  store(0.0);

  const auto nsteps = static_cast<std::size_t>(
      std::ceil(opt.tstop / opt.dt - 1e-9));
  for (std::size_t step = 1; step <= nsteps; ++step) {
    const double t0 = static_cast<double>(step - 1) * opt.dt;
    const double t = static_cast<double>(step) * opt.dt;
    const sim::SimDiagnostics d = recurse(recurse, st, t0, t, opt.damping, 0);
    if (d.failed()) {
      const int retries = res.diag.retries_used;
      res.diag = d;
      res.diag.retries_used = retries;
      res.diag.iterations = res.total_newton_iterations;
      obs::add_counter("spice.steps", static_cast<std::uint64_t>(step - 1));
      return res;
    }
    store(t);
  }

  res.converged = true;
  res.diag.iterations = res.total_newton_iterations;
  obs::add_counter("spice.steps", static_cast<std::uint64_t>(nsteps));
  return res;
}

}  // namespace lcsf::spice
