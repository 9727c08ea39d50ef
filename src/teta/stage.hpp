// TETA stage engine: Successive-Chords waveform evaluation of a logic
// stage -- nonlinear driver devices coupled through a (possibly multiport)
// linear load given in stabilized pole/residue form.
//
// The Successive Chords method replaces Newton's per-iteration
// re-linearization with a *fixed* chord conductance per device, chosen once
// before the analysis (Sec. 3.2). Together with the constant per-step load
// impedance from the recursive convolver this makes the stage's linear
// system constant across all timesteps and iterations: one LU
// factorization per transient, with only right-hand-side updates -- the
// source of the framework's speedup and the reason non-passive load models
// cannot destabilize the solver (the chord conductances G_sc are already
// folded into the reduced load, Fig. 1).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "circuit/mosfet.hpp"
#include "circuit/netlist.hpp"
#include "circuit/source_waveform.hpp"
#include "mor/poleres.hpp"
#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "sim/diagnostics.hpp"
#include "teta/convolution.hpp"

namespace lcsf::teta {

/// Local node kinds within a stage.
enum class StageNodeKind {
  kPort,      ///< connects to a load port (same index as the load model)
  kInternal,  ///< driver-internal node (e.g. the mid node of a NAND stack)
  kInput,     ///< driven by a known input waveform
  kRail,      ///< fixed supply voltage
};

/// A logic stage: transistors plus local linear caps over a small local
/// node space; ports attach to the external load model.
class StageCircuit {
 public:
  /// Port k of the load; call in load-port order.
  std::size_t add_port();
  std::size_t add_internal();
  std::size_t add_input(circuit::SourceWaveform wave);
  std::size_t add_rail(double voltage);

  /// Terminals are local node ids returned by the add_* calls.
  void add_mosfet(circuit::Mosfet m);
  /// Local linear capacitor (device caps are added automatically by
  /// freeze_device_capacitances()). A value that is not finite or is
  /// negative throws sim::SimulationError (kInvalidInput).
  void add_capacitor(std::size_t a, std::size_t b, double farads);
  /// Fold the constant device capacitances (cgs/cgd/cdb) into the local
  /// linear caps, mirroring Netlist::freeze_device_capacitances().
  void freeze_device_capacitances();

  std::size_t num_ports() const { return num_ports_; }
  std::size_t num_nodes() const { return kinds_.size(); }
  const std::vector<circuit::Mosfet>& mosfets() const { return mosfets_; }

  /// Chord conductance of one device: the maximum output conductance over
  /// the voltage range [0, vdd], which bounds the device nonlinearity and
  /// guarantees the SC fixed point is contractive.
  static double chord_conductance(const circuit::Mosfet& m, double vdd);

  /// Total chord conductance attached to each port: the G_out of Table 1
  /// step 1, to be folded into the effective load before reduction.
  numeric::Vector port_chord_conductances(double vdd) const;

  // Introspection for the engine.
  StageNodeKind kind(std::size_t n) const { return kinds_[n]; }
  std::size_t kind_index(std::size_t n) const { return kind_index_[n]; }
  double rail_voltage(std::size_t n) const;
  const circuit::SourceWaveform& input_wave(std::size_t n) const;
  const std::vector<circuit::Capacitor>& capacitors() const { return caps_; }

 private:
  std::size_t add_node(StageNodeKind kind, std::size_t kindex);

  std::vector<StageNodeKind> kinds_;
  std::vector<std::size_t> kind_index_;  ///< index within its kind
  std::size_t num_ports_ = 0;
  std::vector<circuit::SourceWaveform> inputs_;
  std::vector<double> rails_;
  std::vector<circuit::Mosfet> mosfets_;
  std::vector<circuit::Capacitor> caps_;  ///< local ids in a/b
  bool frozen_ = false;
};

struct TetaOptions {
  double tstop = 1e-9;
  double dt = 1e-12;
  double vtol = 1e-6;      ///< SC iteration convergence tolerance [V]
  int max_sc_iters = 400;  ///< per timestep
  double vdd = 1.8;        ///< chord selection range
  /// Per-iteration voltage step clamp as a fraction of vdd. Chord
  /// iterations through multi-stage cells (BUF, XOR) can overshoot at high
  /// gain points; damping restores the contraction.
  double damping_frac = 0.25;
  /// Any |v| above this is declared divergence (the chord engine should
  /// never blow up on a *stabilized* load; this catches raw unstable ones
  /// handed in deliberately).
  double vblowup = 1e4;
  /// Whole-transient recovery: on failure, rerun with halved dt and
  /// tightened damping up to `recovery.max_dt_retries` times. The SC
  /// system matrix is constant per transient (one LU), so TETA retries the
  /// run rather than the step (see docs/robustness.md).
  sim::RecoveryOptions recovery;
};

/// Outcome of one stage transient. A converged transient ends at tstop or
/// at its settle step -- the first committed step at which its inputs
/// have reached their last breakpoint and every port has swung more than
/// vdd/2 to within 1e-4 vdd of a rail -- and its last sample holds from
/// there on (docs/performance.md, "The chord predictor and the settle
/// stop").
struct TetaResult {
  bool converged = false;
  /// Structured outcome record (kind == kNone on success; retries_used is
  /// filled either way).
  sim::SimDiagnostics diag;
  std::vector<double> time;
  /// Step-major port voltages: port p at time[k] is [k * Np + p], so
  /// port_voltages.size() == time.size() * Np.
  std::vector<double> port_voltages;
  long total_sc_iterations = 0;

  /// Human-readable failure reason ("converged" when none).
  std::string failure() const { return diag.message(); }

  /// (t, v) samples of one port. A port at or past the stored port count
  /// throws sim::SimulationError (kInvalidInput).
  std::vector<std::pair<double, double>> waveform(std::size_t port) const;
};

/// Reusable SoA scratch of the TETA step loop. All buffers are lane-inner
/// (index [... * B + b] for slot b of a B-lane block) and sized on entry,
/// so back-to-back transients allocate nothing once warm.
/// simulate_stage_batch takes one for its blocks; every TetaWorkspace
/// owns one for simulate_stage's one-lane calls. Engine internals; treat
/// as opaque storage.
struct BatchTetaWorkspace {
  // Unknowns / RHS / per-step vectors, [i * B + b]; xprev and xprev2 are
  // the two previous committed solutions, the chord predictor's second
  // and third points; xa and fa are the last chord iterate and residual
  // of the step in progress, Anderson mixing's history.
  std::vector<double> x, xprev, xprev2, xa, fa, xn, rhs, rhs_const, vknown,
      hist, yhist, vp, il;
  std::vector<double> acc;  // history accumulator, [b]
  // Recursive-convolution coefficients, [k * B + b].
  std::vector<double> d_re, d_im, ca_re, ca_im, cb_re, cb_im, w_re, w_im;
  std::vector<double> r_re, r_im;    // residues, [((k*np + i)*np + j)*B + b]
  std::vector<double> st_re, st_im;  // conv state, [(k*np + j)*B + b]
  std::vector<double> ip;            // committed port current, [j * B + b]
  std::vector<double> ck_g;          // known-chord conductance, [c * B + b]
  std::vector<double> cap_geq, cap_u, cap_i;  // cap companions, [c * B + b]
  // Per device, lane b at [b]: gate/drain/source voltage rows (of x or
  // vknown) and drain/source rhs rows (null at a known node). Pointers
  // into the buffers above, set on each step-loop entry.
  struct Terminals {
    const double *vg = nullptr, *vd = nullptr, *vs = nullptr;
    double *rd = nullptr, *rs = nullptr;
  };
  std::vector<Terminals> terminals;
  std::vector<const numeric::Matrix*> y_h;    // per slot
  std::vector<std::size_t> known_nodes;       // nodes with known voltage
  std::vector<std::size_t> live;              // ladder lanes, one per slot
  std::vector<unsigned char> alive, sc_done;  // per slot
};

/// Reusable per-worker scratch for simulate_stage: every factorization,
/// matrix, vector, and the convolver state whose shape depends only on the
/// stage/load structure, and each device's per-transient constants (chord
/// conductance, level-1 constants). One workspace per Monte-Carlo worker
/// makes the chord/transient loops allocation-free after the first sample.
/// The members are engine internals; treat the struct as opaque storage.
struct TetaWorkspace {
  struct KnownCoupling {
    std::size_t row;
    std::size_t node;
    double g;
  };
  struct CapState {
    int ua, ub;          // unknown indices or -1
    std::size_t na, nb;  // node ids
    double geq;
    double u_prev = 0.0;  // va - vb at committed time
    double i_prev = 0.0;  // companion current at committed time
  };

  RecursiveConvolver conv;
  std::vector<int> node_to_unknown;
  std::vector<double> chords;
  std::vector<circuit::MosfetConstants> devices;  // level-1 constants
  std::vector<KnownCoupling> chord_known;
  std::vector<CapState> caps;
  numeric::Matrix a_dc, a_tr;      // constant SC system matrices
  numeric::Matrix y_h, y_dc;       // load admittance blocks
  numeric::Matrix ident;           // identity scratch for the inversions
  numeric::Matrix dc_base, dc_a;   // DC Newton matrices
  numeric::LuFactorization lu_imp; // impedance inversion scratch
  numeric::LuFactorization lu_dc;  // DC singularity probe
  numeric::LuFactorization lu_tr;  // the one transient factorization
  numeric::LuFactorization lu_newton;  // per-iteration DC Newton factor
  numeric::Vector x, xn, rhs, vnode, vp, i_load;
  numeric::Vector col_b, col_x;    // column scratch for matrix solves
  BatchTetaWorkspace one_lane;     // simulate_stage's block scratch
};

/// Simulate a stage against a stable pole/residue load. The load's chord
/// conductances must already be folded in (construct the effective load
/// with mor::with_port_conductance(pencil, stage.port_chord_conductances())
/// before reduction -- Table 1 step 2). Each step's chord iteration starts
/// from the quadratic extrapolation of the last three committed solutions
/// (linear on step 2) and accelerates its fixed point by Anderson(1)
/// mixing, leaving the chord matrix untouched. A converged run ends at
/// tstop or at its settle step, whichever comes first, and its last
/// sample holds (see TetaResult).
TetaResult simulate_stage(const StageCircuit& stage,
                          const mor::PoleResidueModel& load,
                          const TetaOptions& opt);

/// Workspace-pooled overload: numerically identical to the plain form but
/// draws all internal state from `ws`, so repeated calls allocate only the
/// result waveforms.
TetaResult simulate_stage(const StageCircuit& stage,
                          const mor::PoleResidueModel& load,
                          const TetaOptions& opt, TetaWorkspace& ws);

/// Fully pooled form: writes into a caller-owned result whose waveform
/// storage (time axis and step-major port voltages) is reused across calls
/// -- the last allocation in the Monte-Carlo inner loop. `out` is reset
/// first. Bitwise identical to the other overloads.
void simulate_stage(const StageCircuit& stage,
                    const mor::PoleResidueModel& load, const TetaOptions& opt,
                    TetaWorkspace& ws, TetaResult& out);

/// Adaptive piecewise-linear compression of a sampled waveform: keeps the
/// fewest breakpoints such that linear interpolation stays within vtol of
/// every dropped sample (the paper's "fine resolution waveform model ...
/// adaptively selects the breakpoints").
std::vector<std::pair<double, double>> compress_pwl(
    const std::vector<std::pair<double, double>>& samples, double vtol);

}  // namespace lcsf::teta
