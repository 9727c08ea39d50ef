// SPICE3f5-substitute: a conventional Newton-Raphson MNA transient
// simulator with trapezoidal integration and a sparse natural-order LU.
//
// This is the *baseline comparator* of every experiment in the paper. It
// deliberately follows the textbook general-purpose simulator structure the
// paper critiques (Sec. 3.1): each nonlinear device is re-linearized at
// every Newton iteration, so the whole system is refactored per iteration
// and the effective load seen by the per-iteration Norton equivalents
// changes -- which is exactly why a non-passive macromodel makes it diverge
// (Example 1).
//
// Formulation note: all ideal voltage sources must be grounded (inputs and
// supplies are). Their nodes are eliminated as known voltages instead of
// adding branch-current rows, which keeps the sparse matrix free of zero
// diagonals so the natural-order LU needs no pivoting.
#pragma once

#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "numeric/matrix.hpp"
#include "numeric/sparse.hpp"
#include "sim/diagnostics.hpp"

namespace lcsf::spice {

/// A reduced-order linear macromodel stamped directly into the MNA system:
/// ports attach to netlist nodes, internal unknowns are appended. This is
/// how Example 1 feeds the (possibly unstable) variational ROM to the
/// conventional simulator, mirroring the paper's SPICE-subcircuit flow.
struct MacromodelStamp {
  std::vector<circuit::NodeId> ports;  ///< port k of the model -> node
  numeric::Matrix g;  ///< (Np+Ni) x (Np+Ni), ports-first ordering
  numeric::Matrix c;  ///< same layout as g

  std::size_t num_internal() const { return g.rows() - ports.size(); }
};

struct TransientOptions {
  double tstop = 1e-9;
  double dt = 1e-12;
  int max_newton = 100;
  double vtol = 1e-6;        ///< Newton update tolerance [V]
  double gmin = 1e-12;       ///< node-to-ground conductance floor [S]
  double vblowup = 1e4;      ///< any |v| above this is declared divergence
  double damping = 1.0;      ///< max Newton voltage step [V]
  bool store_waveforms = true;
  /// Per-step recovery: on Newton failure, retry the step with halved dt
  /// and tightened damping up to `recovery.max_dt_retries` halvings before
  /// declaring the step dead (see docs/robustness.md).
  sim::RecoveryOptions recovery;
};

struct TransientResult {
  bool converged = false;
  /// Structured outcome record: kind/time/iterations of the failure when
  /// !converged (kind == kNone plus retry counts on a converged run).
  sim::SimDiagnostics diag;
  std::vector<double> time;
  /// node_voltages[k][n] is the voltage of netlist node n at time[k]
  /// (only filled when store_waveforms is set).
  std::vector<numeric::Vector> node_voltages;
  long total_newton_iterations = 0;

  /// Human-readable failure reason ("converged" when none).
  std::string failure() const { return diag.message(); }

  /// (t, v) samples of one node. Throws sim::SimulationError
  /// (kInvalidInput) if the run did not store waveforms (store_waveforms =
  /// false) or n is outside the stored node vector.
  std::vector<std::pair<double, double>> waveform(circuit::NodeId n) const;
  /// Voltage of node n at the last stored timepoint; throws as waveform.
  double final_voltage(circuit::NodeId n) const;
};

class TransientSimulator {
 public:
  /// The netlist must outlive the simulator. Grounded V sources only.
  explicit TransientSimulator(const circuit::Netlist& nl);

  /// Attach a linear macromodel before running.
  void add_macromodel(MacromodelStamp stamp);

  /// Newton DC solution at t = 0 (capacitors open), with source-stepping
  /// homotopy fallback. Returns full node-voltage vector (index = NodeId).
  /// Throws std::runtime_error if no DC point is found.
  numeric::Vector dc_operating_point(const TransientOptions& opt = {});

  /// Run a transient analysis from the DC operating point.
  TransientResult run(const TransientOptions& opt);

  std::size_t num_unknowns() const { return num_unknowns_; }

 private:
  void build_structure();

  /// Assemble Jacobian + RHS at unknown-vector x and solve one Newton
  /// update. Returns the max voltage change.
  double newton_iteration(double ceff, const numeric::Vector& vk,
                          const numeric::Vector& rhs_const,
                          const TransientOptions& opt, numeric::Vector& x);

  /// Newton loop; returns true on convergence.
  bool newton_loop(double ceff, const numeric::Vector& vk,
                   const numeric::Vector& rhs_const,
                   const TransientOptions& opt, numeric::Vector& x,
                   long* iter_accum);

  numeric::Vector known_voltages(double t, double scale) const;
  numeric::Vector isource_rhs(double t, double scale) const;

  /// Full node-space voltage vector from unknowns + knowns at time t,
  /// written into the reusable vnode_scratch_ buffer (valid until the
  /// next call).
  const numeric::Vector& assemble_node_voltages(const numeric::Vector& x,
                                                const numeric::Vector& vk);

  const circuit::Netlist& nl_;
  std::vector<MacromodelStamp> macromodels_;

  // Unknown indexing: -1 = ground, -2-k = fixed by vsource k, else index.
  std::vector<int> node_to_unknown_;
  std::size_t num_unknowns_ = 0;       ///< incl. macromodel internals
  std::size_t num_node_unknowns_ = 0;  ///< netlist nodes only

  struct Entry {
    std::size_t row;
    std::size_t col;
    double val;
  };
  struct KnownEntry {
    std::size_t row;
    std::size_t vsrc;  ///< index into vsources
    double val;
  };
  std::vector<Entry> g_uu_, c_uu_;
  std::vector<KnownEntry> g_uk_, c_uk_;
  /// Inductors get a trapezoidal companion (geq = dt/2L) plus a branch
  /// current state; at DC they are approximated by a strong short.
  struct InductorInfo {
    circuit::NodeId a;
    circuit::NodeId b;
    double henries;
  };
  std::vector<InductorInfo> inductors_;
  bool structure_built_ = false;

  // Reusable Newton scratch. The MNA sparsity pattern is fixed once the
  // structure is built, so the sparse LU refactors numerically in place
  // across Newton iterations, timesteps, and the DC homotopy retries
  // instead of redoing the symbolic analysis each pass.
  numeric::SparseMatrix a_scratch_;
  numeric::SparseLu lu_scratch_;
  numeric::Vector b_scratch_, xn_scratch_, vnode_scratch_;
};

}  // namespace lcsf::spice
