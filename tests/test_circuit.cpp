// Unit and property tests for the netlist / device / MNA substrate.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/mosfet.hpp"
#include "circuit/netlist.hpp"
#include "circuit/source_waveform.hpp"
#include "circuit/technology.hpp"

namespace lcsf::circuit {
namespace {

TEST(SourceWaveform, DcAndRamp) {
  auto d = SourceWaveform::dc(1.8);
  EXPECT_DOUBLE_EQ(d.value(-1.0), 1.8);
  EXPECT_DOUBLE_EQ(d.value(1e9), 1.8);
  EXPECT_TRUE(d.is_dc());

  auto r = SourceWaveform::ramp(0.0, 1.0, 1e-9, 2e-9);
  EXPECT_DOUBLE_EQ(r.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(r.value(2e-9), 0.5);
  EXPECT_DOUBLE_EQ(r.value(5e-9), 1.0);
  EXPECT_FALSE(r.is_dc());
}

TEST(SourceWaveform, PulseShape) {
  auto p = SourceWaveform::pulse(0.0, 1.0, 1e-9, 1e-9, 3e-9, 1e-9);
  EXPECT_DOUBLE_EQ(p.value(0.5e-9), 0.0);
  EXPECT_DOUBLE_EQ(p.value(1.5e-9), 0.5);
  EXPECT_DOUBLE_EQ(p.value(3e-9), 1.0);
  EXPECT_DOUBLE_EQ(p.value(5.5e-9), 0.5);
  EXPECT_DOUBLE_EQ(p.value(10e-9), 0.0);
}

TEST(SourceWaveform, PwlValidation) {
  EXPECT_THROW(SourceWaveform::pwl({}), std::invalid_argument);
  EXPECT_THROW(SourceWaveform::pwl({{1.0, 0.0}, {0.5, 1.0}}),
               std::invalid_argument);
  auto w = SourceWaveform::pwl({{0.0, 0.0}, {1.0, 2.0}, {2.0, 0.0}});
  EXPECT_DOUBLE_EQ(w.value(0.5), 1.0);
  EXPECT_DOUBLE_EQ(w.value(1.5), 1.0);
}

TEST(Mosfet, CutoffTriodeSaturationRegions) {
  Technology t = technology_180nm();
  Mosfet m = t.make_nmos(1, 2, 0, 2.0);

  // Cutoff: vgs < vt.
  auto cutoff = mosfet_eval(m, 0.2, 1.8, 0.0);
  EXPECT_DOUBLE_EQ(cutoff.ids, 0.0);
  EXPECT_DOUBLE_EQ(cutoff.gm, 0.0);

  // Saturation: vds > vgs - vt.
  auto sat = mosfet_eval(m, 1.8, 1.8, 0.0);
  EXPECT_GT(sat.ids, 0.0);
  EXPECT_GT(sat.gm, 0.0);
  EXPECT_GT(sat.gds, 0.0);  // lambda > 0

  // Triode: small vds.
  auto tri = mosfet_eval(m, 1.8, 0.1, 0.0);
  EXPECT_GT(tri.ids, 0.0);
  EXPECT_LT(tri.ids, sat.ids);
  EXPECT_GT(tri.gds, sat.gds);  // triode output conductance is large
}

TEST(Mosfet, PmosMirror) {
  Technology t = technology_180nm();
  Mosfet p = t.make_pmos(1, 2, 3, 4.0);
  // PMOS with source at vdd, gate at 0, drain at 0: conducting, current
  // flows out of the drain (negative into drain).
  auto op = mosfet_eval(p, 0.0, 0.0, 1.8);
  EXPECT_LT(op.ids, 0.0);
  EXPECT_GT(op.gds, 0.0);
}

TEST(Mosfet, SourceDrainSwapContinuity) {
  Technology t = technology_180nm();
  Mosfet m = t.make_nmos(1, 2, 0);
  // Current must be an odd-symmetric continuous function of vds through 0.
  auto fwd = mosfet_eval(m, 1.8, 0.05, 0.0);
  auto rev = mosfet_eval(m, 1.75, 0.0, 0.05);  // same vgs w.r.t. conducting
  EXPECT_GT(fwd.ids, 0.0);
  EXPECT_LT(rev.ids, 0.0);
  auto zero = mosfet_eval(m, 1.8, 0.0, 0.0);
  EXPECT_NEAR(zero.ids, 0.0, 1e-15);
}

// Property sweep: analytic gm/gds must match finite differences over the
// full bias plane, including the reverse-conduction region.
struct BiasPoint {
  double vg, vd, vs;
};

class MosfetDerivativeProperty : public ::testing::TestWithParam<BiasPoint> {};

TEST_P(MosfetDerivativeProperty, AnalyticMatchesFiniteDifference) {
  Technology t = technology_180nm();
  for (MosType type : {MosType::kNmos, MosType::kPmos}) {
    Mosfet m = type == MosType::kNmos ? t.make_nmos(1, 2, 3)
                                      : t.make_pmos(1, 2, 3);
    const auto [vg, vd, vs] = GetParam();
    const double h = 1e-6;
    auto op = mosfet_eval(m, vg, vd, vs);
    // gm: derivative w.r.t. gate voltage.
    const double gm_fd = (mosfet_eval(m, vg + h, vd, vs).ids -
                          mosfet_eval(m, vg - h, vd, vs).ids) /
                         (2 * h);
    // gds: derivative w.r.t. drain voltage.
    const double gds_fd = (mosfet_eval(m, vg, vd + h, vs).ids -
                           mosfet_eval(m, vg, vd - h, vs).ids) /
                          (2 * h);
    const double scale = std::abs(op.ids) * 10.0 + 1e-6;
    EXPECT_NEAR(op.gm, gm_fd, 1e-3 * scale + 1e-9)
        << to_string(type) << " at vg=" << vg << " vd=" << vd << " vs=" << vs;
    EXPECT_NEAR(op.gds, gds_fd, 1e-3 * scale + 1e-9)
        << to_string(type) << " at vg=" << vg << " vd=" << vd << " vs=" << vs;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BiasPlane, MosfetDerivativeProperty,
    ::testing::Values(BiasPoint{1.8, 1.8, 0.0}, BiasPoint{1.8, 0.3, 0.0},
                      BiasPoint{0.9, 1.2, 0.0}, BiasPoint{1.2, 0.1, 0.9},
                      BiasPoint{1.8, 0.0, 1.2},  // reverse conduction
                      BiasPoint{0.0, 1.8, 0.0},  // cutoff
                      BiasPoint{1.5, 0.7, 0.7},  // vds = 0
                      BiasPoint{0.6, 1.5, 0.4}));

TEST(Mosfet, VariationShiftsCurrent) {
  Technology t = technology_180nm();
  Mosfet m = t.make_nmos(1, 2, 0);
  const double nominal = mosfet_eval(m, 1.8, 1.8, 0.0).ids;
  m.delta_vt = 0.1;  // higher threshold -> less current
  EXPECT_LT(mosfet_eval(m, 1.8, 1.8, 0.0).ids, nominal);
  m.delta_vt = 0.0;
  m.delta_l = 0.02e-6;  // shorter channel -> more current
  EXPECT_GT(mosfet_eval(m, 1.8, 1.8, 0.0).ids, nominal);
  m.delta_l = m.l;  // degenerate geometry must be rejected
  EXPECT_THROW(mosfet_eval(m, 1.8, 1.8, 0.0), std::runtime_error);
}

TEST(Mosfet, IdsatScale) {
  Technology t = technology_180nm();
  Mosfet m = t.make_nmos(1, 2, 0, 2.0);
  const double i1 = mosfet_idsat(m, t.vdd);
  EXPECT_GT(i1, 0.0);
  Mosfet wide = t.make_nmos(1, 2, 0, 4.0);
  EXPECT_NEAR(mosfet_idsat(wide, t.vdd) / i1, 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(mosfet_idsat(m, 0.1), 0.0);
}

TEST(Netlist, NodeManagement) {
  Netlist nl;
  EXPECT_EQ(nl.node_count(), 1u);  // ground
  NodeId a = nl.add_node("a");
  EXPECT_EQ(a, 1);
  EXPECT_EQ(nl.node("a"), a);
  EXPECT_EQ(nl.node("gnd"), kGround);
  EXPECT_EQ(nl.node("0"), kGround);
  NodeId b = nl.node("b");
  EXPECT_EQ(b, 2);
  EXPECT_THROW(nl.add_node("a"), std::invalid_argument);
}

TEST(Netlist, ElementValidation) {
  Netlist nl;
  NodeId a = nl.add_node();
  EXPECT_THROW(nl.add_resistor(a, a, 100.0), std::invalid_argument);
  EXPECT_THROW(nl.add_resistor(a, kGround, -5.0), std::invalid_argument);
  EXPECT_THROW(nl.add_resistor(a, 99, 1.0), std::out_of_range);
  nl.add_resistor(a, kGround, 100.0);
  nl.add_capacitor(a, kGround, 1e-12);
  EXPECT_EQ(nl.linear_element_count(), 2u);
}

TEST(Netlist, FreezeDeviceCapacitances) {
  Technology t = technology_180nm();
  Netlist nl;
  NodeId in = nl.add_node("in");
  NodeId out = nl.add_node("out");
  NodeId vdd = nl.add_node("vdd");
  nl.add_mosfet(t.make_nmos(out, in, kGround));
  nl.add_mosfet(t.make_pmos(out, in, vdd));
  const std::size_t before = nl.capacitors().size();
  nl.freeze_device_capacitances();
  EXPECT_GT(nl.capacitors().size(), before);
  EXPECT_TRUE(nl.device_capacitances_frozen());
  EXPECT_THROW(nl.add_mosfet(t.make_nmos(out, in, kGround)),
               std::logic_error);
  nl.freeze_device_capacitances();  // idempotent
}

TEST(Technology, CardsAreConsistent) {
  for (const Technology& t : {technology_180nm(), technology_600nm()}) {
    EXPECT_GT(t.vdd, 0.0);
    EXPECT_GT(t.lmin, 0.0);
    EXPECT_GT(t.nmos.kp, t.pmos.kp);  // electron mobility > hole mobility
    EXPECT_GT(t.wire.width, 0.0);
    EXPECT_GT(t.wire_tol.width, 0.0);
    EXPECT_LT(t.wire_tol.width, 1.0);
    Mosfet n = t.make_nmos(1, 2, 0);
    EXPECT_DOUBLE_EQ(n.l, t.lmin);
    EXPECT_GT(mosfet_idsat(n, t.vdd), 0.0);
  }
}

}  // namespace
}  // namespace lcsf::circuit
