// Variational reduced-order model library (paper Sec. 2, Eq. 3-11).
//
// The library is pre-characterized from a pencil *family* G(w), C(w): the
// nominal pencil is reduced exactly (PACT or PRIMA), and the sensitivity of
// every reduced matrix to each global parameter w_i is measured by central
// finite differences *through the frozen nominal projection*, the "design
// of experiments" pre-characterization of [1]. Evaluation at a parameter
// sample is then the first-order expansion
//   Mr(w) = Mr0 + sum_i dMr_i w_i                       (paper Eq. 8/11)
// which is cheap but -- as the paper proves -- no longer a congruence
// transformation, so the evaluated model can be non-passive and unstable.
// That defect is what Table 3 measures and what the stability filter
// (poleres.hpp) repairs.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "interconnect/coupled_lines.hpp"
#include "mor/pact.hpp"
#include "mor/prima.hpp"
#include "mor/reduced_model.hpp"

namespace lcsf::mor {

/// A pencil family maps a global-parameter sample w to the ports-first
/// (G(w), C(w)) pencil. Structure (dimension, port order) must not depend
/// on w.
using PencilFamily =
    std::function<interconnect::PortedPencil(const numeric::Vector& w)>;

enum class ReductionMethod { kPact, kPrima };

/// How the pre-characterization samples are reduced.
enum class LibraryMode {
  /// Difference *complete* reductions (eigenbasis / Krylov basis recomputed
  /// at each perturbed sample). This is the paper's variational algebra
  /// (X(w) = X0 + dX1 w1, Eq. 8-11) and reproduces its instability
  /// phenomenon: the eigen-dependent derivative terms are ill-conditioned
  /// for fast/near-degenerate modes, so the evaluated model develops
  /// right-half-plane poles (Table 3).
  kFullReduction,
  /// Freeze the nominal projection and re-project perturbed pencils
  /// through it. Numerically robust (each sample is an exact congruence);
  /// the first-order evaluation can still lose passivity, but much further
  /// from nominal. Used as the ablation baseline.
  kFrozenProjection,
};

struct VariationalOptions {
  ReductionMethod method = ReductionMethod::kPact;
  LibraryMode library = LibraryMode::kFullReduction;
  PactOptions pact;
  PrimaOptions prima;
  double fd_step = 1e-3;  ///< central-difference step per parameter
};

/// The pre-characterized library: nominal model plus per-parameter
/// sensitivities of (Gr, Cr, Br).
class VariationalRom {
 public:
  VariationalRom() = default;
  VariationalRom(ReducedModel nominal, std::vector<ReducedModel> sensitivity);

  std::size_t num_params() const { return sensitivity_.size(); }
  std::size_t num_ports() const { return nominal_.num_ports; }
  std::size_t order() const { return nominal_.order(); }

  const ReducedModel& nominal() const { return nominal_; }
  const ReducedModel& sensitivity(std::size_t i) const {
    return sensitivity_[i];
  }

  /// First-order evaluation at a parameter sample (paper Eq. 11). The
  /// returned model is generally NOT passive; feed it through
  /// extract_pole_residue + stabilize before time-domain use.
  ReducedModel evaluate(const numeric::Vector& w) const;

  /// evaluate() into a caller-owned model, reusing its matrix storage so a
  /// Monte-Carlo worker evaluates thousands of samples with zero heap
  /// traffic: a one-lane evaluate_into_batch.
  void evaluate_into(const numeric::Vector& w, ReducedModel& out) const;

  /// The one evaluation body, over a block of samples: out[l] is the
  /// model at *w[l]. Direction-outer, so each sensitivity matrix is
  /// streamed once per block instead of once per sample; per lane the
  /// accumulation order is fixed (ascending parameter, exact-zero terms
  /// skipped), so every out[l] is bitwise identical to a one-lane call.
  void evaluate_into_batch(std::span<const numeric::Vector* const> w,
                           std::span<ReducedModel* const> out) const;

  /// Resident heap footprint of the nominal model plus every sensitivity
  /// direction -- the dominant cost of a characterized design, and the
  /// accounting unit of serve::DesignCache's byte budget.
  std::size_t memory_bytes() const {
    std::size_t total = nominal_.memory_bytes();
    for (const ReducedModel& s : sensitivity_) total += s.memory_bytes();
    return total;
  }

 private:
  ReducedModel nominal_;
  std::vector<ReducedModel> sensitivity_;
};

/// Pre-characterize a variational ROM library for a family with
/// `num_params` global parameters (w = 0 is nominal). An optional PACT
/// `memo` shares internal eigensolves across libraries whose pencils differ
/// only in port entries; the library is bitwise the same with or without.
VariationalRom build_variational_rom(const PencilFamily& family,
                                     std::size_t num_params,
                                     const VariationalOptions& opt,
                                     PactMemo* memo = nullptr);

/// Adapter: single-parameter family from a scalar function.
PencilFamily scalar_family(
    std::function<interconnect::PortedPencil(double)> f);

/// Fold driver output conductances into the port diagonal of a pencil:
/// G_lin = G + G_sc (paper Table 1, step 2). `gout[k]` attaches to port k.
interconnect::PortedPencil with_port_conductance(
    interconnect::PortedPencil pencil, const numeric::Vector& gout);

}  // namespace lcsf::mor
