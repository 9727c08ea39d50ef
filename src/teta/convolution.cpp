#include "teta/convolution.hpp"

#include <cmath>
#include <stdexcept>

#include "sim/diagnostics.hpp"

namespace lcsf::teta {

using numeric::Complex;
using numeric::CVector;
using numeric::Matrix;
using numeric::Vector;

RecursiveConvolver::RecursiveConvolver(const mor::PoleResidueModel& z,
                                       double dt) {
  reset(z, dt);
}

void RecursiveConvolver::reset(const mor::PoleResidueModel& z, double dt) {
  if (dt <= 0.0) sim::throw_invalid_input("RecursiveConvolver: dt <= 0");
  if (z.count_unstable() > 0) {
    throw sim::SimulationError(
        sim::FailureKind::kUnstableMacromodel,
        "RecursiveConvolver: model has unstable poles; stabilize() first");
  }
  np_ = z.num_ports();
  dt_ = dt;
  d0_ = z.direct();
  poles_ = z.poles();
  residues_.resize(z.num_poles());
  for (std::size_t k = 0; k < z.num_poles(); ++k) {
    residues_[k] = z.residue(k);
  }

  decay_.resize(poles_.size());
  ca_.resize(poles_.size());
  cb_.resize(poles_.size());
  for (std::size_t k = 0; k < poles_.size(); ++k) {
    const Complex p = poles_[k];
    const Complex e = std::exp(p * dt);
    decay_[k] = e;
    // Exact integrals for a linear current segment i(u) = a + b u:
    //   state += a (e^{ph}-1)/p + b (e^{ph}-1-ph)/p^2.
    ca_[k] = (e - 1.0) / p;
    cb_[k] = (e - 1.0 - p * dt) / (p * p);
  }

  // H = D0 + sum_k Re(Rk cb_k) / h: the i(t+h) coefficient of the update.
  h_ = d0_;
  zdc_ = d0_;
  for (std::size_t k = 0; k < poles_.size(); ++k) {
    for (std::size_t i = 0; i < np_; ++i) {
      for (std::size_t j = 0; j < np_; ++j) {
        h_(i, j) += (residues_[k](i, j) * cb_[k]).real() / dt_;
        zdc_(i, j) += (residues_[k](i, j) / (-poles_[k])).real();
      }
    }
  }

  // Reuse the per-pole state rows that already exist (pole counts vary a
  // little across samples; matching rows keep their heap blocks).
  state_.resize(poles_.size());
  for (CVector& row : state_) row.assign(np_, Complex{0.0, 0.0});
  i_prev_.assign(np_, 0.0);
}

void RecursiveConvolver::initialize_dc(const Vector& i0) {
  if (i0.size() != np_) {
    sim::throw_invalid_input("initialize_dc: size mismatch");
  }
  // Steady current since -inf: s_kj = -i_j / p_k, so that
  // v = D0 i + sum Re(Rk s_k) = Z(0) i.
  for (std::size_t k = 0; k < poles_.size(); ++k) {
    for (std::size_t j = 0; j < np_; ++j) {
      state_[k][j] = -i0[j] / poles_[k];
    }
  }
  i_prev_ = i0;
}

Vector RecursiveConvolver::history() const {
  // v(t+h) = H i(t+h) + hist with
  //   hist_i = sum_k Re[ Rk ( e^{ph} s_k + (ca - cb/h) i_prev ) ]_i.
  Vector hist(np_, 0.0);
  for (std::size_t k = 0; k < poles_.size(); ++k) {
    const Complex w = ca_[k] - cb_[k] / dt_;
    for (std::size_t i = 0; i < np_; ++i) {
      Complex acc{0.0, 0.0};
      for (std::size_t j = 0; j < np_; ++j) {
        acc += residues_[k](i, j) *
               (decay_[k] * state_[k][j] + w * i_prev_[j]);
      }
      hist[i] += acc.real();
    }
  }
  return hist;
}

void RecursiveConvolver::advance(const Vector& i_now) {
  if (i_now.size() != np_) {
    sim::throw_invalid_input("advance: size mismatch");
  }
  for (std::size_t k = 0; k < poles_.size(); ++k) {
    for (std::size_t j = 0; j < np_; ++j) {
      const double a = i_prev_[j];
      const double b = (i_now[j] - i_prev_[j]) / dt_;
      state_[k][j] = decay_[k] * state_[k][j] + ca_[k] * a + cb_[k] * b;
    }
  }
  i_prev_ = i_now;
}

}  // namespace lcsf::teta
