// Recursive convolution of a pole/residue load model under piecewise-linear
// port currents.
//
// With Z(s) = D0 + sum_k Rk / (s - pk), the port voltage response to port
// currents i(t) that are linear inside each timestep satisfies the exact
// update
//   v(t+h) = H(h) i(t+h) + hist(t)
// where H is a constant Np x Np matrix for a fixed step h and hist depends
// only on committed history. This is what lets TETA factor one linear
// system for the whole transient: the load contributes the constant H, the
// chord models contribute constant conductances, and only right-hand sides
// change across timesteps and successive-chord iterations.
#pragma once

#include <complex>
#include <vector>

#include "mor/poleres.hpp"
#include "numeric/matrix.hpp"

namespace lcsf::teta {

class RecursiveConvolver {
 public:
  /// Empty convolver; call reset() before use. Exists so a per-worker
  /// workspace can own the convolver state across samples.
  RecursiveConvolver() = default;

  /// The model must be stable (feed it through mor::stabilize first);
  /// throws sim::SimulationError (kUnstableMacromodel) on
  /// right-half-plane poles, kInvalidInput on dt <= 0.
  RecursiveConvolver(const mor::PoleResidueModel& z, double dt);

  /// Rebuild for a new model/step, reusing all buffers whose shape matches
  /// (pole count may differ per sample; matching entries are reused).
  /// Equivalent to constructing a fresh convolver.
  void reset(const mor::PoleResidueModel& z, double dt);

  std::size_t num_ports() const { return np_; }
  double dt() const { return dt_; }

  /// The constant per-step impedance matrix H(h).
  const numeric::Matrix& step_impedance() const { return h_; }

  /// Z(0), the DC impedance (for operating-point initialization).
  const numeric::Matrix& dc_impedance() const { return zdc_; }

  /// Initialize the history as if current i0 had flowed since t = -inf
  /// (DC steady state).
  void initialize_dc(const numeric::Vector& i0);

  /// History vector for the *next* step, given the committed state and the
  /// current at the start of the step. The reference form of the step
  /// loop's SoA history kernel (teta/batch.cpp), which must match it
  /// bitwise.
  numeric::Vector history() const;

  /// Commit a step: the current moved linearly from its previous committed
  /// value to i_now over dt.
  void advance(const numeric::Vector& i_now);

  // Read-only access to the per-pole recurrence data, used by the step
  // loop (teta/batch.cpp) to *copy* the exact coefficients and committed
  // state of an initialized convolver into lane-inner arrays. The loop
  // never recomputes these (the coefficient formulas involve complex
  // divisions whose bit pattern this class fixes), so its transients
  // match history()/advance() bitwise.
  std::size_t num_poles() const { return poles_.size(); }
  numeric::Complex decay(std::size_t k) const { return decay_[k]; }
  numeric::Complex ca(std::size_t k) const { return ca_[k]; }
  numeric::Complex cb(std::size_t k) const { return cb_[k]; }
  const numeric::ComplexMatrix& residue(std::size_t k) const {
    return residues_[k];
  }
  const numeric::CVector& state(std::size_t k) const { return state_[k]; }
  /// The committed port current at the current time (i_prev).
  const numeric::Vector& committed_current() const { return i_prev_; }

 private:
  std::size_t np_ = 0;
  double dt_ = 0.0;
  numeric::Matrix h_;    ///< per-step impedance
  numeric::Matrix zdc_;  ///< DC impedance
  numeric::Matrix d0_;   ///< direct term

  // Per-pole data.
  std::vector<numeric::Complex> poles_;
  std::vector<numeric::ComplexMatrix> residues_;
  std::vector<numeric::Complex> decay_;    ///< e^{p h}
  std::vector<numeric::Complex> ca_;       ///< (e^{ph}-1)/p
  std::vector<numeric::Complex> cb_;       ///< (e^{ph}-1-ph)/p^2

  // State: s_kj = int e^{p_k (t - tau)} i_j(tau) dtau, and the committed
  // current at the current time.
  std::vector<numeric::CVector> state_;
  numeric::Vector i_prev_;
};

}  // namespace lcsf::teta
