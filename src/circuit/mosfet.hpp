// Shichman-Hodges level-1 MOSFET model (SPICE level 1), the device model the
// paper uses for all transistor-level experiments ("the analytical level-1
// model from [10]", Sec. 5.3).
//
// The model is deliberately split linear-centric: the drain current is the
// only nonlinearity (a voltage-controlled current source), while the gate
// and junction capacitances are constant (Meyer caps frozen at their
// region-averaged values) and therefore stamped into the *linear* part of
// the stage. This split is what makes the Successive Chords engine exact
// for the capacitive part.
#pragma once

#include <string>
#include <utility>

namespace lcsf::circuit {

enum class MosType { kNmos, kPmos };

/// Process-level model card (per technology, per device polarity).
struct MosfetModel {
  double vt0 = 0.5;        ///< zero-bias threshold [V] (positive for both
                           ///< polarities; sign handled by evaluation)
  double kp = 200e-6;      ///< transconductance mu*Cox [A/V^2]
  double lambda = 0.05;    ///< channel-length modulation [1/V]
  double cox = 8e-3;       ///< gate oxide capacitance [F/m^2]
  double cj = 1e-3;        ///< junction capacitance [F/m^2]
};

/// A device instance: geometry plus its private fluctuation terms.
struct Mosfet {
  int drain = 0;
  int gate = 0;
  int source = 0;
  MosType type = MosType::kNmos;
  double w = 1e-6;  ///< drawn width [m]
  double l = 1e-6;  ///< drawn length [m]
  MosfetModel model;

  // Manufacturing fluctuations (paper Sec. 5.3: DL = channel length
  // reduction, VT = threshold shift). Zero at nominal.
  double delta_l = 0.0;   ///< channel-length reduction [m]; Leff = l - delta_l
  double delta_vt = 0.0;  ///< threshold shift [V]

  double leff() const;
  /// Gate-source / gate-drain Meyer capacitance (constant approximation).
  double cgs() const;
  double cgd() const;
  /// Drain-bulk junction capacitance to ground.
  double cdb() const;
};

/// Drain current and its partial derivatives at a bias point.
struct MosOperatingPoint {
  double ids = 0.0;  ///< drain-to-source current (positive into drain for
                     ///< NMOS conduction)
  double gm = 0.0;   ///< d ids / d vgs
  double gds = 0.0;  ///< d ids / d vds
};

/// Per-instance constants of the level-1 equations: all mosfet_eval reads
/// besides the terminal voltages. A caller that evaluates a device many
/// times builds them once (TETA, per transient in TetaWorkspace::devices).
struct MosfetConstants {
  double sign = 1.0;    ///< polarity: +1 NMOS, -1 PMOS
  double vt = 0.0;      ///< threshold vt0 + delta_vt [V]
  double beta = 0.0;    ///< kp * w / Leff [A/V^2]
  double lambda = 0.0;  ///< channel-length modulation [1/V]

  /// Throws std::runtime_error when Leff <= 0 (Mosfet::leff()).
  static MosfetConstants of(const Mosfet& m) {
    return {m.type == MosType::kNmos ? 1.0 : -1.0, m.model.vt0 + m.delta_vt,
            m.model.kp * m.w / m.leff(), m.model.lambda};
  }
};

/// The one definition of the level-1 equations at terminal voltages
/// (vg, vd, vs), shared by SPICE's Newton and AC stamps and TETA's DC
/// Newton and chord iteration. Handles source/drain swap for reverse
/// conduction and the PMOS mirror. Inline, so a caller that reads only
/// .ids drops the gm and gds work.
inline MosOperatingPoint mosfet_eval(const MosfetConstants& c, double vg,
                                     double vd, double vs) {
  // Normalize to NMOS polarity. The level-1 device is symmetric: if
  // vds < 0 the roles of drain and source swap. Track the swap so the
  // returned derivatives stay with respect to the *original* (vgs, vds).
  const double nvg = c.sign * vg;
  double nvd = c.sign * vd;
  double nvs = c.sign * vs;
  const bool swapped = nvd < nvs;
  if (swapped) std::swap(nvd, nvs);
  const double vgst = nvg - nvs - c.vt;
  const double vds = nvd - nvs;

  MosOperatingPoint op;  // cutoff, vgst <= 0: all zero (NaN propagates)
  if (!(vgst <= 0.0)) {
    const double clm = 1.0 + c.lambda * vds;
    if (vds < vgst) {  // triode
      op.ids = c.beta * (vgst * vds - 0.5 * vds * vds) * clm;
      op.gm = c.beta * vds * clm;
      op.gds = c.beta * ((vgst - vds) * clm +
                         c.lambda * (vgst * vds - 0.5 * vds * vds));
    } else {  // saturation
      op.ids = 0.5 * c.beta * vgst * vgst * clm;
      op.gm = c.beta * vgst * clm;
      op.gds = 0.5 * c.beta * vgst * vgst * c.lambda;
    }
  }
  if (swapped) {
    // Reverse conduction: by device symmetry i(vgs, vds) = -i_f(vgd, -vds)
    // with vgd = vgs - vds, and the equations above were evaluated exactly
    // at (vgd, -vds). Chain rule:
    //   d i / d vgs = -gm_f
    //   d i / d vds = -(gm_f * (-1) + gds_f * (-1)) = gm_f + gds_f
    const double gm_f = op.gm;
    op.ids = -op.ids;
    op.gm = -gm_f;
    op.gds = gm_f + op.gds;
  }
  // PMOS mirror: the current flips; gm and gds flip twice, so they stay.
  if (c.sign < 0.0) op.ids = -op.ids;
  return op;
}

/// mosfet_eval over the constants of `m`, recomputed per call.
inline MosOperatingPoint mosfet_eval(const Mosfet& m, double vg, double vd,
                                     double vs) {
  return mosfet_eval(MosfetConstants::of(m), vg, vd, vs);
}

/// Saturation current at |vgs| = vdd, the natural scale for chord selection.
double mosfet_idsat(const Mosfet& m, double vdd);

std::string to_string(MosType t);

}  // namespace lcsf::circuit
