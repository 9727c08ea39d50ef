#include "teta/batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "circuit/mosfet.hpp"
#include "numeric/simd.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "teta/convolution.hpp"
#include "teta/stage_detail.hpp"

namespace lcsf::teta {

using circuit::Mosfet;
using numeric::Matrix;

namespace {

/// Counts one failed transient, in total and under its failure kind
/// (teta.failed.<failure_kind_name>).
void count_failure(sim::FailureKind kind) {
  obs::add_counter("teta.failed_transients");
  obs::add_counter(std::string("teta.failed.") + sim::failure_kind_name(kind));
}

/// Lanes run in lockstep only when every per-step loop has identical trip
/// counts and index maps: same node kinds (hence the same unknown map),
/// same device terminals, same capacitor endpoints, same pole count.
/// Parameter *values* (chords, caps, residues) are free to differ.
bool same_shape(const StageCircuit& a, const StageCircuit& b,
                const mor::PoleResidueModel& la,
                const mor::PoleResidueModel& lb) {
  if (a.num_nodes() != b.num_nodes() || a.num_ports() != b.num_ports() ||
      la.num_poles() != lb.num_poles()) {
    return false;
  }
  for (std::size_t n = 0; n < a.num_nodes(); ++n) {
    if (a.kind(n) != b.kind(n) || a.kind_index(n) != b.kind_index(n)) {
      return false;
    }
  }
  if (a.mosfets().size() != b.mosfets().size()) return false;
  for (std::size_t d = 0; d < a.mosfets().size(); ++d) {
    const Mosfet& ma = a.mosfets()[d];
    const Mosfet& mb = b.mosfets()[d];
    if (ma.drain != mb.drain || ma.gate != mb.gate ||
        ma.source != mb.source) {
      return false;
    }
  }
  if (a.capacitors().size() != b.capacitors().size()) return false;
  for (std::size_t c = 0; c < a.capacitors().size(); ++c) {
    if (a.capacitors()[c].a != b.capacitors()[c].a ||
        a.capacitors()[c].b != b.capacitors()[c].b) {
      return false;
    }
  }
  return true;
}

/// Exchanges slots `a` and `c` of a `B`-wide block: every lane-inner
/// buffer that carries a lane's state from one step to the next, and the
/// slot's lane. The per-step scratch is rebuilt before each use.
void swap_slots(BatchTetaWorkspace& bws, std::span<std::size_t> live,
                std::size_t a, std::size_t c, std::size_t B) {
  for (std::vector<double>* v :
       {&bws.x, &bws.xprev, &bws.xprev2, &bws.d_re, &bws.d_im, &bws.ca_re,
        &bws.ca_im, &bws.cb_re, &bws.cb_im, &bws.w_re, &bws.w_im, &bws.r_re,
        &bws.r_im, &bws.st_re, &bws.st_im, &bws.ip, &bws.ck_g, &bws.cap_geq,
        &bws.cap_u, &bws.cap_i}) {
    for (std::size_t r = 0; r < v->size(); r += B) {
      std::swap((*v)[r + a], (*v)[r + c]);
    }
  }
  std::swap(bws.y_h[a], bws.y_h[c]);
  std::swap(bws.alive[a], bws.alive[c]);
  std::swap(live[a], live[c]);
}

}  // namespace

namespace detail {

template <std::size_t kLanes>
void step_loop(const BatchLane* lanes, std::span<std::size_t> live,
               const TetaOptions& opt, BatchTetaWorkspace& bws) {
  const std::size_t B = kLanes != 0 ? kLanes : live.size();
  const StageCircuit& rstage = *lanes[live[0]].stage;
  const TetaWorkspace& rws = *lanes[live[0]].ws;
  const std::vector<int>& node_to_unknown = rws.node_to_unknown;
  const std::size_t n = rws.x.size();
  const std::size_t np = rstage.num_ports();
  const std::size_t nn = rstage.num_nodes();
  const std::size_t nk = rws.conv.num_poles();
  const std::size_t nck = rws.chord_known.size();
  const std::size_t ncp = rws.caps.size();
  const double dt = opt.dt;
  const double clamp = opt.damping_frac * opt.vdd;

  // ---- Pack: AoS lane state -> lane-inner SoA ------------------------
  bws.x.resize(n * B);
  bws.xprev.resize(n * B);
  bws.xprev2.resize(n * B);
  bws.xa.resize(n * B);
  bws.fa.resize(n * B);
  bws.xn.resize(n * B);
  bws.rhs.resize(n * B);
  bws.rhs_const.resize(n * B);
  bws.vknown.assign(nn * B, 0.0);
  bws.hist.resize(np * B);
  bws.yhist.resize(np * B);
  bws.vp.resize(np * B);
  bws.il.resize(np * B);
  bws.acc.resize(B);
  bws.d_re.resize(nk * B);
  bws.d_im.resize(nk * B);
  bws.ca_re.resize(nk * B);
  bws.ca_im.resize(nk * B);
  bws.cb_re.resize(nk * B);
  bws.cb_im.resize(nk * B);
  bws.w_re.resize(nk * B);
  bws.w_im.resize(nk * B);
  bws.r_re.resize(nk * np * np * B);
  bws.r_im.resize(nk * np * np * B);
  bws.st_re.resize(nk * np * B);
  bws.st_im.resize(nk * np * B);
  bws.ip.resize(np * B);
  bws.ck_g.resize(nck * B);
  bws.cap_geq.resize(ncp * B);
  bws.cap_u.resize(ncp * B);
  bws.cap_i.resize(ncp * B);
  bws.y_h.resize(B);
  bws.alive.assign(B, 1);
  bws.sc_done.resize(B);
  bws.known_nodes.clear();
  for (std::size_t node = 0; node < nn; ++node) {
    if (node_to_unknown[node] < 0) bws.known_nodes.push_back(node);
  }
  // Lanes share device terminals: resolve each terminal's voltage row (x
  // for an unknown, vknown for a known node) and rhs row once per block.
  const auto v_row = [&](int node) -> const double* {
    const int u = node_to_unknown[static_cast<std::size_t>(node)];
    return u >= 0 ? &bws.x[static_cast<std::size_t>(u) * B]
                  : &bws.vknown[static_cast<std::size_t>(node) * B];
  };
  const auto rhs_row = [&](int node) -> double* {
    const int u = node_to_unknown[static_cast<std::size_t>(node)];
    return u >= 0 ? &bws.rhs[static_cast<std::size_t>(u) * B] : nullptr;
  };
  bws.terminals.clear();
  for (const Mosfet& m : rstage.mosfets()) {
    bws.terminals.push_back({v_row(m.gate), v_row(m.drain), v_row(m.source),
                             rhs_row(m.drain), rhs_row(m.source)});
  }

  for (std::size_t b = 0; b < B; ++b) {
    const TetaWorkspace& w = *lanes[live[b]].ws;
    for (std::size_t i = 0; i < n; ++i) {
      bws.x[i * B + b] = w.x[i];
      bws.xprev[i * B + b] = w.x[i];  // no slope before the first step
      bws.xprev2[i * B + b] = w.x[i];
    }
    // Coefficients are *copied* from the lane's initialized convolver;
    // recomputing them here would redo complex divisions whose bit
    // patterns RecursiveConvolver fixes.
    for (std::size_t k = 0; k < nk; ++k) {
      const numeric::Complex dk = w.conv.decay(k);
      const numeric::Complex cak = w.conv.ca(k);
      const numeric::Complex cbk = w.conv.cb(k);
      bws.d_re[k * B + b] = dk.real();
      bws.d_im[k * B + b] = dk.imag();
      bws.ca_re[k * B + b] = cak.real();
      bws.ca_im[k * B + b] = cak.imag();
      bws.cb_re[k * B + b] = cbk.real();
      bws.cb_im[k * B + b] = cbk.imag();
      // w = ca - cb/dt, hoisted out of the history kernel: componentwise
      // operations on constants, so per-transient equals per-step.
      bws.w_re[k * B + b] = cak.real() - cbk.real() / dt;
      bws.w_im[k * B + b] = cak.imag() - cbk.imag() / dt;
      const numeric::ComplexMatrix& rk = w.conv.residue(k);
      for (std::size_t i = 0; i < np; ++i) {
        for (std::size_t j = 0; j < np; ++j) {
          const numeric::Complex rij = rk(i, j);
          bws.r_re[((k * np + i) * np + j) * B + b] = rij.real();
          bws.r_im[((k * np + i) * np + j) * B + b] = rij.imag();
        }
      }
      const numeric::CVector& st = w.conv.state(k);
      for (std::size_t j = 0; j < np; ++j) {
        bws.st_re[(k * np + j) * B + b] = st[j].real();
        bws.st_im[(k * np + j) * B + b] = st[j].imag();
      }
    }
    for (std::size_t j = 0; j < np; ++j) {
      bws.ip[j * B + b] = w.conv.committed_current()[j];
    }
    for (std::size_t c = 0; c < nck; ++c) {
      bws.ck_g[c * B + b] = w.chord_known[c].g;
    }
    for (std::size_t c = 0; c < ncp; ++c) {
      bws.cap_geq[c * B + b] = w.caps[c].geq;
      bws.cap_u[c * B + b] = w.caps[c].u_prev;
      bws.cap_i[c * B + b] = w.caps[c].i_prev;
    }
    bws.y_h[b] = &w.y_h;
  }

  const auto nsteps =
      static_cast<std::size_t>(std::ceil(opt.tstop / opt.dt - 1e-9));
  auto store_lane = [&](std::size_t b, double t) {
    TetaResult& res = *lanes[live[b]].out;
    res.time.push_back(t);
    for (std::size_t p = 0; p < np; ++p) {
      res.port_voltages.push_back(bws.x[p * B + b]);
    }
  };
  for (std::size_t b = 0; b < B; ++b) {
    TetaResult& res = *lanes[live[b]].out;
    res.time.reserve(nsteps + 1);
    res.port_voltages.reserve((nsteps + 1) * np);
    store_lane(b, 0.0);
  }
  auto finish = [&](std::size_t b) {
    TetaResult& res = *lanes[live[b]].out;
    res.converged = true;
    res.diag.iterations = res.total_sc_iterations;
  };

  // The settle stop (docs/performance.md): after committed step t, a lane
  // is done once its inputs have reached their last breakpoint and every
  // port has swung more than vdd/2 from its t = 0 value to within
  // 1e-4 vdd (the propagation tolerance) of a rail. The rule reads only
  // the lane's own state and never tstop, so a lane stops at the same
  // step alone, in any block and at any window; a port that never
  // switches never satisfies it.
  const double swing = 0.5 * opt.vdd;
  const double settle_tol = 1e-4 * opt.vdd;
  auto settled = [&](std::size_t b, double t) {
    const BatchLane& ln = lanes[live[b]];
    for (const std::size_t node : bws.known_nodes) {
      if (ln.stage->kind(node) != StageNodeKind::kInput) continue;
      const auto& pts = ln.stage->input_wave(node).points();
      if (!pts.empty() && t < pts.back().first) return false;
    }
    const double* v0 = ln.out->port_voltages.data();  // ports at t = 0
    for (std::size_t p = 0; p < np; ++p) {
      const double v = bws.x[p * B + b];
      if (!(std::abs(v - v0[p]) > swing)) return false;
      bool at_rail = false;
      for (const std::size_t node : bws.known_nodes) {
        at_rail = at_rail || (ln.stage->kind(node) == StageNodeKind::kRail &&
                              std::abs(v - bws.vknown[node * B + b]) <=
                                  settle_tol);
      }
      if (!at_rail) return false;
    }
    return true;
  };

  // ---- Transient loop -------------------------------------------------
  // Slots [0, active) hold the running lanes. A lane that fails or
  // settles leaves at the end of its step by swapping with the last
  // running slot, so its state stays frozen in a slot the kernels no
  // longer reach and every inner loop stays mask-free.
  std::size_t active = B;
  for (std::size_t step = 1; step <= nsteps; ++step) {
    const double t = static_cast<double>(step) * dt;
    // One lane runs until it leaves, so the one-lane instance keeps its
    // compile-time trip counts.
    const std::size_t nb = kLanes != 0 ? kLanes : active;

    // Known node voltages once per lane per step: they are pure in t.
    for (std::size_t b = 0; b < nb; ++b) {
      const StageCircuit& stg = *lanes[live[b]].stage;
      for (const std::size_t node : bws.known_nodes) {
        bws.vknown[node * B + b] = stg.kind(node) == StageNodeKind::kInput
                                       ? stg.input_wave(node).value(t)
                                       : stg.rail_voltage(node);
      }
    }

    // Constant part of the RHS: known-chord couplings, cap companions.
    std::fill(bws.rhs_const.begin(), bws.rhs_const.end(), 0.0);
    for (std::size_t c = 0; c < nck; ++c) {
      double* rc = &bws.rhs_const[rws.chord_known[c].row * B];
      const double* g = &bws.ck_g[c * B];
      const double* kv = &bws.vknown[rws.chord_known[c].node * B];
      LCSF_SIMD_LOOP
      for (std::size_t b = 0; b < nb; ++b) rc[b] += g[b] * kv[b];
    }
    for (std::size_t c = 0; c < ncp; ++c) {
      // Row a: +i = geq(va - vb) - (geq u_prev + i_prev); the -geq vb term
      // moves to the RHS with a + sign when b is a known node (and
      // symmetrically for row b).
      const TetaWorkspace::CapState& cm = rws.caps[c];
      const double* geq = &bws.cap_geq[c * B];
      const double* cu = &bws.cap_u[c * B];
      const double* ci = &bws.cap_i[c * B];
      const double* kva = cm.ua < 0 ? &bws.vknown[cm.na * B] : nullptr;
      const double* kvb = cm.ub < 0 ? &bws.vknown[cm.nb * B] : nullptr;
      double* ra = cm.ua >= 0
                       ? &bws.rhs_const[static_cast<std::size_t>(cm.ua) * B]
                       : nullptr;
      double* rb = cm.ub >= 0
                       ? &bws.rhs_const[static_cast<std::size_t>(cm.ub) * B]
                       : nullptr;
      for (std::size_t b = 0; b < nb; ++b) {
        const double h = geq[b] * cu[b] + ci[b];
        const double ka = kva ? geq[b] * kva[b] : 0.0;
        const double kb = kvb ? geq[b] * kvb[b] : 0.0;
        if (ra) ra[b] += h + kb;
        if (rb) rb[b] += -h + ka;
      }
    }

    // Recursive-convolution history, lane-inner:
    //   hist_i = sum_k Re[ Rk ( e^{ph} s_k + (ca - cb/h) i_prev ) ]_i.
    // Complex products are expanded to (ac - bd, ad + bc): GCC's
    // finite-operand fast path, so each lane's arithmetic matches
    // RecursiveConvolver::history() bit-for-bit (same j-ascending
    // accumulation order).
    for (std::size_t i = 0; i < np; ++i) {
      double* hi = &bws.hist[i * B];
      for (std::size_t b = 0; b < nb; ++b) hi[b] = 0.0;
    }
    for (std::size_t k = 0; k < nk; ++k) {
      const double* dre = &bws.d_re[k * B];
      const double* dim = &bws.d_im[k * B];
      const double* wre = &bws.w_re[k * B];
      const double* wim = &bws.w_im[k * B];
      for (std::size_t i = 0; i < np; ++i) {
        double* acc = bws.acc.data();
        for (std::size_t b = 0; b < nb; ++b) acc[b] = 0.0;
        for (std::size_t j = 0; j < np; ++j) {
          const double* rre = &bws.r_re[((k * np + i) * np + j) * B];
          const double* rim = &bws.r_im[((k * np + i) * np + j) * B];
          const double* sre = &bws.st_re[(k * np + j) * B];
          const double* sim_ = &bws.st_im[(k * np + j) * B];
          const double* ipj = &bws.ip[j * B];
          LCSF_SIMD_LOOP
          for (std::size_t b = 0; b < nb; ++b) {
            const double mre = dre[b] * sre[b] - dim[b] * sim_[b];
            const double mim = dre[b] * sim_[b] + dim[b] * sre[b];
            const double ure = mre + wre[b] * ipj[b];
            const double uim = mim + wim[b] * ipj[b];
            acc[b] += rre[b] * ure - rim[b] * uim;
          }
        }
        double* hi = &bws.hist[i * B];
        LCSF_SIMD_LOOP
        for (std::size_t b = 0; b < nb; ++b) hi[b] += acc[b];
      }
    }
    numeric::mul_into_batch(bws.y_h.data(), np, np, bws.hist.data(),
                            bws.yhist.data(), nb, B);
    for (std::size_t p = 0; p < np; ++p) {
      double* rc = &bws.rhs_const[p * B];
      const double* yh = &bws.yhist[p * B];
      LCSF_SIMD_LOOP
      for (std::size_t b = 0; b < nb; ++b) rc[b] += yh[b];
    }

    // Predicted chord start from the committed solutions: the quadratic
    // extrapolation 3 x[n] - 3 x[n-1] + x[n-2] from step 3 on, the linear
    // 2 x[n] - x[n-1] on step 2, and x[0] itself on step 1 (where
    // x[n-1] = x[n]). Every lane of a class starts at step 1, so the
    // block's step index is each lane's.
    const bool quadratic = step >= 3;
    for (std::size_t i = 0; i < n; ++i) {
      double* xi = &bws.x[i * B];
      double* pi = &bws.xprev[i * B];
      double* qi = &bws.xprev2[i * B];
      LCSF_SIMD_LOOP
      for (std::size_t b = 0; b < nb; ++b) {
        const double xc = xi[b];
        xi[b] = quadratic ? 3.0 * xc - 3.0 * pi[b] + qi[b] : 2.0 * xc - pi[b];
        qi[b] = pi[b];
        pi[b] = xc;
      }
    }

    // Successive-chords iteration, per lane (device evaluation and the
    // triangular solves are inherently per-sample); each lane iterates
    // on its own and drops out of the iteration when converged.
    for (std::size_t b = 0; b < nb; ++b) bws.sc_done[b] = 0;
    for (int it = 0; it < opt.max_sc_iters; ++it) {
      bool pending = false;
      for (std::size_t b = 0; b < nb; ++b) {
        pending = pending || bws.sc_done[b] == 0;
      }
      if (!pending) break;
      for (std::size_t b = 0; b < nb; ++b) {
        if (bws.sc_done[b]) continue;
        const TetaWorkspace& w = *lanes[live[b]].ws;
        for (std::size_t i = 0; i < n; ++i) {
          bws.rhs[i * B + b] = bws.rhs_const[i * B + b];
        }
        // Device Norton currents at iterate v: j = ids(v) - G_ch (vd - vs);
        // accumulate -j into rhs rows (current leaving drain is +ids).
        for (std::size_t d = 0; d < bws.terminals.size(); ++d) {
          const BatchTetaWorkspace::Terminals& tm = bws.terminals[d];
          const double vd = tm.vd[b];
          const double vs = tm.vs[b];
          const double ids =
              circuit::mosfet_eval(w.devices[d], tm.vg[b], vd, vs).ids;
          const double j = ids - w.chords[d] * (vd - vs);
          if (tm.rd) tm.rd[b] -= j;
          if (tm.rs) tm.rs[b] += j;
        }
        w.lu_tr.solve_into_strided(&bws.rhs[b], &bws.xn[b], B);
        // Anderson(1) mixing (Walker & Ni 2011) of the chord residual
        // f = xn - x: the lane moves by f - gamma (dx + df), with dx and
        // df the changes of x and f since the last iteration and
        // gamma = (df.f) / (df.df). A step's first iteration, a converged
        // one and one with no usable df (zero or NaN) move by f itself.
        double dmax = 0.0;
        double dff = 0.0;
        double dfk = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double f = bws.xn[i * B + b] - bws.x[i * B + b];
          const double df = f - bws.fa[i * B + b];
          dmax = std::max(dmax, std::abs(f));
          dff += df * df;
          dfk += df * f;
        }
        const bool converged = dmax < opt.vtol;
        const bool mix = it > 0 && !converged && dff > 0.0;
        const double gamma = mix ? dfk / dff : 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double xi = bws.x[i * B + b];
          const double f = bws.xn[i * B + b] - xi;
          const double d =
              mix ? f - gamma * ((xi - bws.xa[i * B + b]) +
                                 (f - bws.fa[i * B + b]))
                  : f;
          bws.xa[i * B + b] = xi;
          bws.fa[i * B + b] = f;
          bws.x[i * B + b] = xi + std::clamp(d, -clamp, clamp);
        }
        ++lanes[live[b]].out->total_sc_iterations;
        if (converged) bws.sc_done[b] = 1;
      }
    }

    // A lane that hit the SC limit or blew up is classified now, stores
    // no sample for this step and leaves the block at its end. A NaN
    // iterate is a blow-up: the clamped update keeps a NaN in x for the
    // rest of the step (std::max below and dmax above would drop it).
    for (std::size_t b = 0; b < nb; ++b) {
      double mv = 0.0;
      bool finite = true;
      for (std::size_t i = 0; i < n; ++i) {
        const double v = std::abs(bws.x[i * B + b]);
        mv = std::max(mv, v);
        finite = finite && std::isfinite(v);
      }
      const bool sc_limit = !bws.sc_done[b];
      if (!sc_limit && finite && !(mv > opt.vblowup)) continue;
      bws.alive[b] = 0;
      TetaResult& res = *lanes[live[b]].out;
      if (sc_limit && finite) {
        res.diag.kind = sim::FailureKind::kNewtonNonConvergence;
        res.diag.detail =
            "SC iteration limit " + std::to_string(opt.max_sc_iters) + " hit";
      } else {
        res.diag.kind = sim::FailureKind::kBlowUp;
        res.diag.detail = finite
                              ? "port/internal voltage blew up (unstable load?)"
                              : "non-finite port/internal voltage";
      }
      res.diag.failure_time = t;
      res.diag.iterations = res.total_sc_iterations;
      res.diag.max_abs_v = finite ? mv : opt.vblowup;
    }

    // Commit: load current, convolver state, cap states.
    for (std::size_t p = 0; p < np; ++p) {
      double* vpp = &bws.vp[p * B];
      const double* xp = &bws.x[p * B];
      LCSF_SIMD_LOOP
      for (std::size_t b = 0; b < nb; ++b) vpp[b] = xp[b];
    }
    numeric::mul_into_batch(bws.y_h.data(), np, np, bws.vp.data(),
                            bws.il.data(), nb, B);
    for (std::size_t p = 0; p < np; ++p) {
      double* ilp = &bws.il[p * B];
      const double* yh = &bws.yhist[p * B];
      LCSF_SIMD_LOOP
      for (std::size_t b = 0; b < nb; ++b) ilp[b] -= yh[b];
    }
    // RecursiveConvolver::advance(): state = (decay*state + ca*a) + cb*b_,
    // with its association and componentwise complex*double products.
    for (std::size_t k = 0; k < nk; ++k) {
      const double* dre = &bws.d_re[k * B];
      const double* dim = &bws.d_im[k * B];
      const double* care = &bws.ca_re[k * B];
      const double* caim = &bws.ca_im[k * B];
      const double* cbre = &bws.cb_re[k * B];
      const double* cbim = &bws.cb_im[k * B];
      for (std::size_t j = 0; j < np; ++j) {
        double* sre = &bws.st_re[(k * np + j) * B];
        double* sim_ = &bws.st_im[(k * np + j) * B];
        const double* ipj = &bws.ip[j * B];
        const double* ilj = &bws.il[j * B];
        LCSF_SIMD_LOOP
        for (std::size_t b = 0; b < nb; ++b) {
          const double a = ipj[b];
          const double b_ = (ilj[b] - a) / dt;
          const double mre = dre[b] * sre[b] - dim[b] * sim_[b];
          const double mim = dre[b] * sim_[b] + dim[b] * sre[b];
          sre[b] = (mre + care[b] * a) + cbre[b] * b_;
          sim_[b] = (mim + caim[b] * a) + cbim[b] * b_;
        }
      }
    }
    for (std::size_t j = 0; j < np; ++j) {
      double* ipj = &bws.ip[j * B];
      const double* ilj = &bws.il[j * B];
      LCSF_SIMD_LOOP
      for (std::size_t b = 0; b < nb; ++b) ipj[b] = ilj[b];
    }
    for (std::size_t c = 0; c < ncp; ++c) {
      const TetaWorkspace::CapState& cm = rws.caps[c];
      const double* va = cm.ua >= 0
                             ? &bws.x[static_cast<std::size_t>(cm.ua) * B]
                             : &bws.vknown[cm.na * B];
      const double* vb = cm.ub >= 0
                             ? &bws.x[static_cast<std::size_t>(cm.ub) * B]
                             : &bws.vknown[cm.nb * B];
      const double* geq = &bws.cap_geq[c * B];
      double* cu = &bws.cap_u[c * B];
      double* ci = &bws.cap_i[c * B];
      LCSF_SIMD_LOOP
      for (std::size_t b = 0; b < nb; ++b) {
        const double u_new = va[b] - vb[b];
        const double i_new = geq[b] * (u_new - cu[b]) - ci[b];
        cu[b] = u_new;
        ci[b] = i_new;
      }
    }
    for (std::size_t b = 0; b < nb; ++b) {
      if (!bws.alive[b]) continue;
      store_lane(b, t);
      if (settled(b, t)) finish(b);
    }

    // Failed and settled lanes leave the block.
    for (std::size_t b = 0; b < active;) {
      if (bws.alive[b] && !lanes[live[b]].out->converged) {
        ++b;
      } else {
        swap_slots(bws, live, b, --active, B);
      }
    }
    if (active == 0) return;
  }

  for (std::size_t b = 0; b < active; ++b) finish(b);
}

template void step_loop<0>(const BatchLane*, std::span<std::size_t>,
                           const TetaOptions&, BatchTetaWorkspace&);
template void step_loop<1>(const BatchLane*, std::span<std::size_t>,
                           const TetaOptions&, BatchTetaWorkspace&);

}  // namespace detail

void simulate_stage_batch(const std::vector<BatchLane>& lanes,
                          const TetaOptions& opt, BatchTetaWorkspace& bws) {
  const std::size_t nl = lanes.size();
  if (nl == 0) return;
  obs::ScopedSpan span(nl == 1 ? "teta.stage" : "teta.stage_batch");
  for (const BatchLane& ln : lanes) {
    if (ln.load->num_ports() != ln.stage->num_ports()) {
      sim::throw_invalid_input("simulate_stage: port count mismatch");
    }
  }

  // An unstable pole/residue load can never be convolved (the recursive
  // convolver requires stabilize() first), so classify it up front
  // instead of leaking the convolver's exception. Every other lane
  // enters the ladder.
  bws.live.clear();
  for (std::size_t l = 0; l < nl; ++l) {
    obs::add_counter("teta.transients");
    TetaResult& out = *lanes[l].out;
    out.total_sc_iterations = 0;
    const mor::PoleResidueModel& load = *lanes[l].load;
    if (load.count_unstable() == 0) {
      bws.live.push_back(l);
      continue;
    }
    out.converged = false;
    out.time.clear();
    out.port_voltages.clear();
    out.diag = sim::SimDiagnostics{};
    out.diag.kind = sim::FailureKind::kUnstableMacromodel;
    out.diag.detail = std::to_string(load.count_unstable()) +
                      " right-half-plane pole(s), max Re = " +
                      std::to_string(load.max_unstable_real()) +
                      "; stabilize() the load";
    count_failure(out.diag.kind);
  }

  // The recovery ladder. The SC system matrix is constant across a whole
  // transient (one LU per run), so a failed lane reruns its transient at
  // halved dt and tightened damping rather than retrying one step. Rung r
  // runs the lanes still pending, bws.live[0, pending), one same_shape
  // class at a time: setup + DC per lane, then the step loop over the
  // class's set-up lanes, in lockstep when there are two or more. A lane
  // leaves once it converged, hit a singular system or used its last
  // rung; the rest gather at the front of bws.live for rung r + 1.
  TetaOptions attempt = opt;
  std::size_t pending = bws.live.size();
  for (int rung = 0; pending > 0; ++rung) {
    std::size_t next = 0;
    for (std::size_t first = 0; first < pending;) {
      // The class of bws.live[first] moves to [first, end), and its lanes
      // that set up to [first, ready).
      const BatchLane& ref = lanes[bws.live[first]];
      std::size_t end = first + 1;
      for (std::size_t i = end; i < pending; ++i) {
        const BatchLane& ln = lanes[bws.live[i]];
        if (same_shape(*ref.stage, *ln.stage, *ref.load, *ln.load)) {
          std::swap(bws.live[i], bws.live[end++]);
        }
      }
      std::size_t ready = first;
      for (std::size_t i = first; i < end; ++i) {
        const BatchLane& ln = lanes[bws.live[i]];
        if (detail::setup_and_dc(*ln.stage, *ln.load, attempt, *ln.ws,
                                 *ln.out)) {
          std::swap(bws.live[i], bws.live[ready++]);
        }
      }
      const std::span<std::size_t> cls(&bws.live[first], ready - first);
      if (cls.size() == 1) {
        // A class of one keeps the compile-time one-lane instance, timed
        // as a one-lane transient inside a block.
        std::optional<obs::ScopedSpan> one;
        if (nl > 1) one.emplace("teta.stage");
        detail::step_loop<1>(lanes.data(), cls, attempt, bws);
      } else if (!cls.empty()) {
        detail::step_loop<0>(lanes.data(), cls, attempt, bws);
      }

      for (std::size_t i = first; i < end; ++i) {
        TetaResult& out = *lanes[bws.live[i]].out;
        obs::add_counter("teta.steps",
                         out.time.empty() ? 0 : out.time.size() - 1);
        if (!out.converged &&
            out.diag.kind != sim::FailureKind::kSingularSystem &&
            rung < opt.recovery.max_dt_retries) {
          std::swap(bws.live[i], bws.live[next++]);
          continue;
        }
        out.diag.iterations = out.total_sc_iterations;
        out.diag.retries_used = rung;
        obs::add_counter("teta.chord_iterations",
                         static_cast<std::uint64_t>(out.total_sc_iterations));
        obs::add_counter("teta.dt_halvings", static_cast<std::uint64_t>(rung));
        if (!out.converged) {
          count_failure(out.diag.kind);
        } else if (rung > 0) {
          obs::add_counter("teta.recovered_transients");
        }
      }
      first = end;
    }
    pending = next;
    attempt.dt *= 0.5;
    attempt.damping_frac *= opt.recovery.damping_factor;
  }
}

}  // namespace lcsf::teta
