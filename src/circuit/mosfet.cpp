#include "circuit/mosfet.hpp"

#include <stdexcept>

namespace lcsf::circuit {

double Mosfet::leff() const {
  const double le = l - delta_l;
  if (le <= 0.0) {
    throw std::runtime_error("Mosfet: non-positive effective length");
  }
  return le;
}

double Mosfet::cgs() const { return 0.5 * model.cox * w * leff(); }
double Mosfet::cgd() const { return 0.5 * model.cox * w * leff(); }
double Mosfet::cdb() const { return model.cj * w * leff(); }

double mosfet_idsat(const Mosfet& m, double vdd) {
  const double vgst = vdd - (m.model.vt0 + m.delta_vt);
  if (vgst <= 0.0) return 0.0;
  const double beta = m.model.kp * m.w / m.leff();
  return 0.5 * beta * vgst * vgst * (1.0 + m.model.lambda * vdd);
}

std::string to_string(MosType t) {
  return t == MosType::kNmos ? "nmos" : "pmos";
}

}  // namespace lcsf::circuit
