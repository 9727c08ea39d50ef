#include "spice/ac.hpp"

#include <cmath>
#include <stdexcept>

#include "circuit/mosfet.hpp"
#include "numeric/lu.hpp"
#include "sim/diagnostics.hpp"
#include "spice/transient.hpp"

namespace lcsf::spice {

using circuit::kGround;
using circuit::NodeId;
using numeric::Complex;
using numeric::ComplexMatrix;
using numeric::CVector;

std::vector<double> log_frequencies(double f_lo, double f_hi,
                                    std::size_t n) {
  if (f_lo <= 0.0 || f_hi <= f_lo || n < 2) {
    sim::throw_invalid_input("log_frequencies: bad grid");
  }
  std::vector<double> f(n);
  const double ratio = std::log(f_hi / f_lo);
  for (std::size_t k = 0; k < n; ++k) {
    f[k] = f_lo * std::exp(ratio * static_cast<double>(k) /
                           static_cast<double>(n - 1));
  }
  return f;
}

AcResult ac_analysis(const circuit::Netlist& nl, const AcOptions& opt) {
  if (opt.ac_source >= nl.vsources().size()) {
    sim::throw_invalid_input("ac_analysis: bad ac_source index");
  }
  // DC operating point via the transient engine (shared device handling).
  TransientSimulator dc_sim(nl);
  const numeric::Vector vop = dc_sim.dc_operating_point();

  // Unknown indexing: ground = -1, source nodes = -2-k, else sequential.
  std::vector<int> code(nl.node_count(), 0);
  code[kGround] = -1;
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    code[static_cast<std::size_t>(nl.vsources()[k].pos)] =
        -2 - static_cast<int>(k);
  }
  std::size_t nu = 0;
  for (std::size_t n = 1; n < nl.node_count(); ++n) {
    if (code[n] >= 0) code[n] = static_cast<int>(nu++);
  }

  // AC value of each known node: 1 for the stimulus, 0 otherwise.
  auto known_ac = [&](int c) -> Complex {
    const auto k = static_cast<std::size_t>(-2 - c);
    return k == opt.ac_source ? Complex{1.0, 0.0} : Complex{0.0, 0.0};
  };

  AcResult res;
  res.frequencies = opt.frequencies;
  for (double f : opt.frequencies) {
    const Complex s{0.0, 2.0 * M_PI * f};
    ComplexMatrix y(nu, nu);
    CVector rhs(nu, Complex{0.0, 0.0});

    auto stamp = [&](NodeId a, NodeId b, Complex val) {
      const int ca = code[static_cast<std::size_t>(a)];
      const int cb = code[static_cast<std::size_t>(b)];
      if (ca >= 0) {
        y(static_cast<std::size_t>(ca), static_cast<std::size_t>(ca)) += val;
        if (cb >= 0) {
          y(static_cast<std::size_t>(ca), static_cast<std::size_t>(cb)) -=
              val;
        } else if (cb <= -2) {
          rhs[static_cast<std::size_t>(ca)] += val * known_ac(cb);
        }
      }
      if (cb >= 0) {
        y(static_cast<std::size_t>(cb), static_cast<std::size_t>(cb)) += val;
        if (ca >= 0) {
          y(static_cast<std::size_t>(cb), static_cast<std::size_t>(ca)) -=
              val;
        } else if (ca <= -2) {
          rhs[static_cast<std::size_t>(cb)] += val * known_ac(ca);
        }
      }
    };

    for (const auto& r : nl.resistors()) stamp(r.a, r.b, 1.0 / r.ohms);
    for (const auto& c : nl.capacitors()) stamp(c.a, c.b, s * c.farads);
    for (const auto& l : nl.inductors()) {
      stamp(l.a, l.b, 1.0 / (s * l.henries + 1e-300));
    }
    for (std::size_t i = 0; i < nu; ++i) y(i, i) += opt.gmin;

    // Device small-signal stamps at the operating point.
    for (const auto& m : nl.mosfets()) {
      const auto op = circuit::mosfet_eval(
          m, vop[static_cast<std::size_t>(m.gate)],
          vop[static_cast<std::size_t>(m.drain)],
          vop[static_cast<std::size_t>(m.source)]);
      const struct {
        NodeId node;
        double coeff;
      } cols[3] = {{m.gate, op.gm},
                   {m.drain, op.gds},
                   {m.source, -(op.gm + op.gds)}};
      for (int sign : {+1, -1}) {
        const NodeId row_node = sign > 0 ? m.drain : m.source;
        const int row = code[static_cast<std::size_t>(row_node)];
        if (row < 0) continue;
        for (const auto& cc : cols) {
          const int col = code[static_cast<std::size_t>(cc.node)];
          const Complex val{sign * cc.coeff, 0.0};
          if (val == Complex{}) continue;
          if (col >= 0) {
            y(static_cast<std::size_t>(row),
              static_cast<std::size_t>(col)) += val;
          } else if (col <= -2) {
            rhs[static_cast<std::size_t>(row)] -= val * known_ac(col);
          }
        }
      }
    }

    const CVector x = numeric::ComplexLu(y).solve(rhs);
    CVector full(nl.node_count(), Complex{0.0, 0.0});
    for (std::size_t n = 0; n < nl.node_count(); ++n) {
      if (code[n] >= 0) {
        full[n] = x[static_cast<std::size_t>(code[n])];
      } else if (code[n] <= -2) {
        full[n] = known_ac(code[n]);
      }
    }
    res.response.push_back(std::move(full));
  }
  return res;
}

}  // namespace lcsf::spice
