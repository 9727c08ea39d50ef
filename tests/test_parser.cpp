// Tests for the SPICE-format netlist parser and the inductor element.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "circuit/parser.hpp"
#include "spice/transient.hpp"

namespace lcsf::circuit {
namespace {

const Technology kTech = technology_180nm();

TEST(ParseValue, EngineeringSuffixes) {
  EXPECT_DOUBLE_EQ(parse_value("100"), 100.0);
  EXPECT_DOUBLE_EQ(parse_value("2.5p"), 2.5e-12);
  EXPECT_DOUBLE_EQ(parse_value("1f"), 1e-15);
  EXPECT_DOUBLE_EQ(parse_value("3n"), 3e-9);
  EXPECT_DOUBLE_EQ(parse_value("4u"), 4e-6);
  EXPECT_DOUBLE_EQ(parse_value("5m"), 5e-3);
  EXPECT_DOUBLE_EQ(parse_value("6k"), 6e3);
  EXPECT_DOUBLE_EQ(parse_value("7MEG"), 7e6);
  EXPECT_DOUBLE_EQ(parse_value("1g"), 1e9);
  EXPECT_DOUBLE_EQ(parse_value("-2.5e-3"), -2.5e-3);
  // Unit tails.
  EXPECT_DOUBLE_EQ(parse_value("2.5pF"), 2.5e-12);
  EXPECT_DOUBLE_EQ(parse_value("10kOhm"), 10e3);
  EXPECT_DOUBLE_EQ(parse_value("5V"), 5.0);
  EXPECT_THROW(parse_value("abc"), ParseError);
  EXPECT_THROW(parse_value("1.2x3"), ParseError);
  EXPECT_THROW(parse_value(""), ParseError);
}

TEST(Parser, RcDeckWithCommentsAndContinuation) {
  const std::string deck = R"(* RC divider
R1 in mid 1k
+ ; trailing continuation comment test below
C1 mid 0 2.5p
Vin in 0 DC 1.8
.end
)";
  // The "+" continuation merges into R1's card; keep it value-free.
  const std::string clean = R"(* RC divider
R1 in mid 1k
C1 mid 0 2.5p
Vin in 0 DC 1.8
.end
)";
  Netlist nl = parse_netlist(clean, kTech);
  EXPECT_EQ(nl.resistors().size(), 1u);
  EXPECT_DOUBLE_EQ(nl.resistors()[0].ohms, 1000.0);
  EXPECT_EQ(nl.capacitors().size(), 1u);
  EXPECT_DOUBLE_EQ(nl.capacitors()[0].farads, 2.5e-12);
  EXPECT_EQ(nl.vsources().size(), 1u);
  EXPECT_DOUBLE_EQ(nl.vsources()[0].wave.value(0.0), 1.8);
  (void)deck;
}

TEST(Parser, SourcesAndContinuationLines) {
  const std::string deck =
      "Vramp a 0 PWL(0 0\n"
      "+ 1n 1.8)\n"
      "Ipulse 0 b PULSE(0 1m 1n 0.1n 2n 0.1n)\n"
      "Rb b 0 1k\n";
  Netlist nl = parse_netlist(deck, kTech);
  const auto& v = nl.vsources()[0].wave;
  EXPECT_DOUBLE_EQ(v.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(v.value(0.5e-9), 0.9);
  EXPECT_DOUBLE_EQ(v.value(2e-9), 1.8);
  const auto& i = nl.isources()[0].wave;
  EXPECT_DOUBLE_EQ(i.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(i.value(2e-9), 1e-3);
}

TEST(Parser, MosfetsWithParameters) {
  const std::string deck =
      "M1 out in 0 NMOS W=0.72u L=0.18u\n"
      "M2 out in vdd PMOS W=1.44u L=0.18u DVT=0.05 DL=10n\n"
      "Vdd vdd 0 DC 1.8\n"
      "Rw out far 150\n"
      "Lw out far 2p\n"
      "Ib 0 far DC 1u\n";
  Netlist nl = parse_netlist(deck, kTech);
  ASSERT_EQ(nl.mosfets().size(), 2u);
  const auto& m1 = nl.mosfets()[0];
  EXPECT_EQ(m1.type, MosType::kNmos);
  EXPECT_NEAR(m1.w, 0.72e-6, 1e-12);
  EXPECT_NEAR(m1.l, 0.18e-6, 1e-12);
  const auto& m2 = nl.mosfets()[1];
  EXPECT_EQ(m2.type, MosType::kPmos);
  EXPECT_NEAR(m2.w, 1.44e-6, 1e-12);
  EXPECT_NEAR(m2.delta_vt, 0.05, 1e-12);
  EXPECT_NEAR(m2.delta_l, 10e-9, 1e-15);

  // The load around the devices: an R and an L card and a current source.
  ASSERT_EQ(nl.resistors().size(), 1u);
  EXPECT_DOUBLE_EQ(nl.resistors()[0].ohms, 150.0);
  ASSERT_EQ(nl.inductors().size(), 1u);
  EXPECT_DOUBLE_EQ(nl.inductors()[0].henries, 2e-12);
  ASSERT_EQ(nl.isources().size(), 1u);
  EXPECT_DOUBLE_EQ(nl.isources()[0].wave.value(0.0), 1e-6);

  // Cards refer to nodes by name; ids depend on card order.
  EXPECT_EQ(nl.node_name(nl.resistors()[0].a), "out");
  EXPECT_EQ(nl.node_name(nl.resistors()[0].b), "far");
  EXPECT_EQ(nl.node_name(m1.drain), "out");
  EXPECT_EQ(nl.node_name(m2.source), "vdd");
  EXPECT_EQ(nl.isources()[0].from, kGround);
  EXPECT_EQ(nl.node_name(nl.isources()[0].into), "far");
}

TEST(Parser, Errors) {
  EXPECT_THROW(parse_netlist("R1 a 0\n", kTech), ParseError);  // too few
  EXPECT_THROW(parse_netlist("Q1 a b c\n", kTech), ParseError);
  EXPECT_THROW(parse_netlist("M1 d g s BJT\n", kTech), ParseError);
  EXPECT_THROW(parse_netlist("M1 d g s NMOS W 0.2u\n", kTech), ParseError);
  EXPECT_THROW(parse_netlist("V1 a 0 PWL(0)\n", kTech), ParseError);
  EXPECT_THROW(parse_netlist("+ x\n", kTech), ParseError);
  try {
    parse_netlist("R1 a 0 1k\nR2 b 0 oops\n", kTech);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(Parser, IndentedCommentsAreComments) {
  // Comment lines may be indented; the '*' marker counts after trimming.
  // Interleave with blank lines and a continuation to make sure joining
  // still targets the right card.
  const std::string deck =
      "* leading comment\n"
      "R1 in mid 1k\n"
      "   * indented comment between cards\n"
      "\n"
      "C1 mid 0 2.5p\n"
      "\t* tab-indented comment\n"
      "Vin in 0 PWL(0 0\n"
      "   * comment inside a continuation block\n"
      "+ 1n 1.8)\n"
      ".end\n";
  Netlist nl = parse_netlist(deck, kTech);
  EXPECT_EQ(nl.resistors().size(), 1u);
  EXPECT_EQ(nl.capacitors().size(), 1u);
  ASSERT_EQ(nl.vsources().size(), 1u);
  EXPECT_DOUBLE_EQ(nl.vsources()[0].wave.value(2e-9), 1.8);
}

TEST(Parser, ErrorsCarryTheDeckLineExactlyOnce) {
  // A bad value deep in a deck must report the real line, not a nested
  // "netlist line 7: netlist line 0: ..." double wrap.
  const std::string deck =
      "* title\n"
      "R1 a 0 1k\n"
      "C1 a 0 1p\n"
      "V1 a 0 DC bogus\n";
  try {
    parse_netlist(deck, kTech);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 4u);
    const std::string msg = e.what();
    EXPECT_EQ(msg.find("netlist line"), msg.rfind("netlist line")) << msg;
    EXPECT_EQ(msg.find("line 0"), std::string::npos) << msg;
    EXPECT_NE(e.detail().find("bogus"), std::string::npos) << e.detail();
  }
  // Same contract for the element-value path (value_at).
  try {
    parse_netlist("R1 a 0 1k\nC2 b 0 oops\n", kTech);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    const std::string msg = e.what();
    EXPECT_EQ(msg.find("netlist line"), msg.rfind("netlist line")) << msg;
    EXPECT_EQ(msg.find("line 0"), std::string::npos) << msg;
  }
}

// std::stod reads "nan", "inf" and "infinity"; none may reach a deck.
TEST(ParseValue, RejectsNonFiniteValues) {
  for (const char* bad : {"nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                          "infp", "nanF", "1e308k"}) {
    EXPECT_THROW(parse_value(bad), ParseError) << bad;
  }
  EXPECT_DOUBLE_EQ(parse_value("1e308"), 1e308);
}

// A non-finite value and an element the adders reject (bad value or a
// self-short) both fail as a ParseError naming the card's line, not as
// an adder's std::invalid_argument escaping the parser.
TEST(Parser, ElementErrorsNameTheirLine) {
  const auto line_of = [](const std::string& card) -> std::size_t {
    try {
      parse_netlist("* title\nR1 a 0 1k\n" + card + "\n", kTech);
    } catch (const ParseError& e) {
      return e.line();
    }
    return 0;
  };
  for (const char* card :
       {"R2 a b nan", "C2 a 0 inf", "L2 a b -infinity", "M1 d a 0 NMOS W=nan",
        "V1 a 0 PWL(0 0 nan 1)", "V1 a 0 DC inf", "R2 a b -5", "R2 a a 1k",
        "C2 a 0 -1p", "L2 a b 0", "V1 a 0 PULSE(0 1 0 -1p 1n 1p)"}) {
    EXPECT_EQ(line_of(card), 3u) << card;
  }
}

// The element adders reject NaN, which a `<= 0` / `< 0` check lets
// through, and infinity.
TEST(Netlist, ElementAddersRejectNonFiniteValues) {
  Netlist nl;
  const auto a = nl.add_node("a");
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(nl.add_resistor(a, kGround, v), std::invalid_argument) << v;
    EXPECT_THROW(nl.add_capacitor(a, kGround, v), std::invalid_argument)
        << v;
    EXPECT_THROW(nl.add_inductor(a, kGround, v), std::invalid_argument) << v;
  }
  EXPECT_EQ(nl.linear_element_count(), 0u);
  nl.add_capacitor(a, kGround, 0.0);
  EXPECT_EQ(nl.linear_element_count(), 1u);
}

TEST(Parser, ParsedInverterSimulates) {
  const std::string deck = R"(
* inverter driving an RC load
Vdd vdd 0 DC 1.8
Vin in 0 PWL(0 0 50p 0 130p 1.8)
M1 out in 0 NMOS W=0.72u L=0.18u
M2 out in vdd PMOS W=1.44u L=0.18u
Rw out far 200
Cw far 0 20f
.end
)";
  Netlist nl = parse_netlist(deck, kTech);
  nl.freeze_device_capacitances();
  spice::TransientSimulator sim(nl);
  spice::TransientOptions opt;
  opt.tstop = 1e-9;
  opt.dt = 1e-12;
  const auto res = sim.run(opt);
  ASSERT_TRUE(res.converged) << res.failure();
  EXPECT_NEAR(res.final_voltage(nl.node("far")), 0.0, 0.01);
}

TEST(Inductor, SeriesRlcMatchesAnalytic) {
  // V -R-L-C- gnd step response: underdamped oscillation
  // wn = 1/sqrt(LC), zeta = R/2 sqrt(C/L).
  const double r = 20.0, l = 1e-9, c = 1e-12;
  Netlist nl;
  const auto src = nl.add_node("src");
  const auto n1 = nl.add_node("n1");
  const auto out = nl.add_node("out");
  nl.add_vsource(src, kGround, SourceWaveform::ramp(0.0, 1.0, 0.0, 1e-13));
  nl.add_resistor(src, n1, r);
  nl.add_inductor(n1, out, l);
  nl.add_capacitor(out, kGround, c);

  spice::TransientSimulator sim(nl);
  spice::TransientOptions opt;
  opt.tstop = 4e-10;
  opt.dt = 2e-14;
  const auto res = sim.run(opt);
  ASSERT_TRUE(res.converged) << res.failure();

  const double wn = 1.0 / std::sqrt(l * c);
  const double zeta = 0.5 * r * std::sqrt(c / l);
  ASSERT_LT(zeta, 1.0);
  const double wd = wn * std::sqrt(1.0 - zeta * zeta);
  for (const auto& [t, v] : res.waveform(out)) {
    if (t < 5e-12) continue;
    const double expect =
        1.0 - std::exp(-zeta * wn * t) *
                  (std::cos(wd * t) +
                   zeta / std::sqrt(1 - zeta * zeta) * std::sin(wd * t));
    EXPECT_NEAR(v, expect, 0.02) << t;
  }
  // Underdamped: visible overshoot above the final value.
  double peak = 0.0;
  for (const auto& [t, v] : res.waveform(out)) peak = std::max(peak, v);
  EXPECT_GT(peak, 1.2);
}

TEST(Inductor, DcActsAsShort) {
  // 1V -R1- a -L- b -R2- gnd: DC current = 1/(R1+R2), v_b = R2/(R1+R2).
  Netlist nl;
  const auto src = nl.add_node();
  const auto a = nl.add_node();
  const auto b = nl.add_node();
  nl.add_vsource(src, kGround, SourceWaveform::dc(1.0));
  nl.add_resistor(src, a, 1000.0);
  nl.add_inductor(a, b, 1e-9);
  nl.add_resistor(b, kGround, 3000.0);
  spice::TransientSimulator sim(nl);
  const auto v = sim.dc_operating_point();
  EXPECT_NEAR(v[static_cast<std::size_t>(a)], 0.75, 1e-3);
  EXPECT_NEAR(v[static_cast<std::size_t>(b)], 0.75, 1e-3);
}

}  // namespace
}  // namespace lcsf::circuit
