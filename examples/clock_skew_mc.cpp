// Clock-skew variability under interconnect fluctuations -- the motivating
// application of the variational interconnect models (refs [2][3] of the
// paper: "impact of interconnect variations on the clock skew of a
// gigahertz microprocessor").
//
// One buffer drives two unequal clock branches; skew = difference of the
// two receiver arrival times. The branch loads are pre-characterized once
// as variational ROMs over wire width/thickness; a Monte-Carlo sweep then
// evaluates the skew distribution with the TETA engine, never re-reducing
// the interconnect. The sweep runs on every available core (LCSF_THREADS
// overrides) -- per-sample counter-based seeding keeps the distribution
// identical whatever the thread count (docs/monte_carlo.md).
//
// Build & run:  build/examples/clock_skew_mc
#include <cstdio>

#include "circuit/netlist.hpp"
#include "circuit/technology.hpp"
#include "runtime/thread_pool.hpp"
#include "interconnect/coupled_lines.hpp"
#include "mor/poleres.hpp"
#include "mor/variational.hpp"
#include "stats/descriptive.hpp"
#include "stats/runner.hpp"
#include "stats/yield.hpp"
#include "teta/stage.hpp"
#include "timing/waveform.hpp"

using namespace lcsf;
using numeric::Vector;

namespace {

// A clock branch: wire of given length, receiver cap at the far end.
mor::PencilFamily branch_family(const circuit::Technology& tech,
                                double length, double receiver_cap,
                                const Vector& gout) {
  return [=](const Vector& w) {
    interconnect::WireVariation wv;
    wv.width = w[0] * tech.wire_tol.width;
    wv.thickness = w[1] * tech.wire_tol.thickness;
    interconnect::CoupledLineSpec spec;
    spec.num_lines = 1;
    spec.length = length;
    spec.segment_length = 1e-6;
    spec.geometry = interconnect::apply_variation(tech.wire, wv);
    auto bundle = interconnect::build_coupled_lines(spec);
    bundle.netlist.add_capacitor(bundle.far_ends[0], circuit::kGround,
                                 receiver_cap);
    auto pencil = interconnect::build_ported_pencil(
        bundle.netlist, {bundle.near_ends[0], bundle.far_ends[0]});
    return mor::with_port_conductance(std::move(pencil), gout);
  };
}

// Arrival at the branch far end for one wire sample.
double branch_arrival(const circuit::Technology& tech,
                      const mor::VariationalRom& rom, const Vector& w,
                      double driver_wn) {
  teta::StageCircuit stage;
  const std::size_t out = stage.add_port();
  (void)stage.add_port();
  const std::size_t in = stage.add_input(
      circuit::SourceWaveform::ramp(0.0, tech.vdd, 100e-12, 80e-12));
  const std::size_t vdd = stage.add_rail(tech.vdd);
  const std::size_t gnd = stage.add_rail(0.0);
  stage.add_mosfet(tech.make_nmos(static_cast<int>(out),
                                  static_cast<int>(in),
                                  static_cast<int>(gnd), driver_wn));
  stage.add_mosfet(tech.make_pmos(static_cast<int>(out),
                                  static_cast<int>(in),
                                  static_cast<int>(vdd), 2 * driver_wn));
  stage.freeze_device_capacitances();

  const auto z = mor::stabilize(mor::extract_pole_residue(rom.evaluate(w)));
  teta::TetaOptions opt;
  opt.tstop = 2.5e-9;
  opt.dt = 2e-12;
  opt.vdd = tech.vdd;
  const auto res = teta::simulate_stage(stage, z, opt);
  if (!res.converged) throw std::runtime_error(res.failure());
  return timing::measure_ramp(res.waveform(1), tech.vdd, false).m;
}

}  // namespace

int main() {
  const circuit::Technology tech = circuit::technology_180nm();
  const double driver_wn = 20.0;
  const double receiver_cap = 8e-15;

  // Chords of the shared driver (identical for both branches).
  teta::StageCircuit probe;
  const std::size_t pout = probe.add_port();
  const std::size_t pin = probe.add_input(circuit::SourceWaveform::dc(0.0));
  const std::size_t pvdd = probe.add_rail(tech.vdd);
  const std::size_t pgnd = probe.add_rail(0.0);
  probe.add_mosfet(tech.make_nmos(static_cast<int>(pout),
                                  static_cast<int>(pin),
                                  static_cast<int>(pgnd), driver_wn));
  probe.add_mosfet(tech.make_pmos(static_cast<int>(pout),
                                  static_cast<int>(pin),
                                  static_cast<int>(pvdd), 2 * driver_wn));
  const Vector gout{probe.port_chord_conductances(tech.vdd)[0], 0.0};

  // Pre-characterize both branch loads ONCE (the framework's key saving).
  mor::VariationalOptions vopt;
  vopt.pact.internal_modes = 6;
  vopt.fd_step = 0.2;
  const auto rom_short = mor::build_variational_rom(
      branch_family(tech, 150e-6, receiver_cap, gout), 2, vopt);
  const auto rom_long = mor::build_variational_rom(
      branch_family(tech, 450e-6, receiver_cap, gout), 2, vopt);
  std::printf("branch ROMs characterized (orders %zu / %zu)\n\n",
              rom_short.order(), rom_long.order());

  // Skew under *independent* branch wire variations (different metal
  // regions), each (width, thickness) pair normal in tolerance units.
  std::vector<stats::VariationSource> sources(4);
  for (auto& s : sources) s.sigma = 0.33;
  auto skew_fn = [&](const Vector& w) {
    const double t_short =
        branch_arrival(tech, rom_short, {w[0], w[1]}, driver_wn);
    const double t_long =
        branch_arrival(tech, rom_long, {w[2], w[3]}, driver_wn);
    return t_long - t_short;
  };

  stats::RunOptions opt;
  opt.samples = 100;
  opt.seed = 2;
  opt.exec.threads = 0;  // auto-detect; results do not depend on this

  // Yield framing: fraction of dies whose skew stays under a 40 ps
  // budget, straight from the parallel estimator.
  const double skew_budget = 40e-12;
  const stats::McYieldEstimate est(
      stats::Runner(opt).run_monte_carlo(stats::per_sample(skew_fn), sources),
      skew_budget);
  const auto& mc = est.samples();
  std::printf("clock skew over %zu samples (%zu threads):\n",
              mc.values.size(), runtime::ThreadPool::default_threads());
  std::printf("  mean  = %.2f ps\n", mc.stats.mean() * 1e12);
  std::printf("  std   = %.2f ps\n", mc.stats.stddev() * 1e12);
  std::printf("  range = [%.2f, %.2f] ps\n", mc.stats.min() * 1e12,
              mc.stats.max() * 1e12);
  std::printf("  P(skew <= %.0f ps) = %.3f +/- %.3f\n\n",
              skew_budget * 1e12, est.yield, est.std_error);
  std::printf("%s", stats::Histogram::from_data(mc.values, 10)
                        .render(40)
                        .c_str());
  return 0;
}
