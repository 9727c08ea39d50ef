// Per-sample Monte-Carlo hot-path throughput. A single logic stage is set
// up exactly like PathAnalyzer builds one (INV driver, chord-folded
// variational wire ROM, PACT order 6), and the same deterministic sample
// set is then evaluated twice through the full per-sample pipeline
// (variational ROM evaluation -> pole/residue extraction -> stabilize ->
// TETA transient):
//
//   pooled   : the workspace-pooled engine (the Monte-Carlo lane path:
//              evaluate_into + workspace extraction + TetaWorkspace). Its
//              one-lane calls run the TETA step loop's one-lane instance.
//   batched  : the lockstep SoA engine (core::measure_stage_batch): blocks
//              of K samples march through the step loop's runtime-width
//              instance together, every per-step kernel vectorizing
//              across samples (docs/performance.md).
//
// Both legs perform the same per-sample floating-point operation
// sequence, so the results must be bitwise identical; the bench fails if
// they are not. It emits a machine-readable BENCH_hotpath.json consumed
// by tools/bench_compare.py and the ci.sh bench stage.
//
// Usage: bench_hotpath [output.json]   (default BENCH_hotpath.json)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "circuit/technology.hpp"
#include "core/path.hpp"
#include "mor/poleres.hpp"
#include "mor/variational.hpp"
#include "numeric/fp_compare.hpp"
#include "stats/random.hpp"
#include "teta/stage.hpp"
#include "timing/cells.hpp"
#include "timing/waveform.hpp"

namespace {

using namespace lcsf;
using numeric::Vector;

// ---------------------------------------------------------------------
// Stage harness: one INV stage whose load is characterized by
// core::characterize_stage_load, as PathAnalyzer characterizes it
// (chord-folded 1-line wire pencil, receiver pin cap, PACT order 6,
// variational over normalized wire W/H).
// ---------------------------------------------------------------------

teta::StageCircuit make_stage(const timing::CellTemplate& cell,
                              const circuit::Technology& tech,
                              const circuit::SourceWaveform& input,
                              const timing::DeviceVariation& dev) {
  teta::StageCircuit stage;
  const std::size_t out = stage.add_port();
  (void)stage.add_port();  // far port (receiver side), observed
  const std::size_t in = stage.add_input(input);
  const std::size_t vdd = stage.add_rail(tech.vdd);
  const std::size_t gnd = stage.add_rail(0.0);
  timing::instantiate_cell(cell, tech, stage, out, in, vdd, gnd, dev);
  stage.freeze_device_capacitances();
  return stage;
}

double far_delay(const teta::TetaResult& res, double vdd) {
  if (!res.converged) {
    throw std::runtime_error("bench_hotpath TETA: " + res.failure());
  }
  return timing::measure_ramp(res.waveform(1), vdd, /*rising=*/false).m;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_hotpath.json";
  const bool quick = bench::quick_mode();
  const std::size_t nsamples = quick ? 8 : 64;

  bench::print_header("Hot-path per-sample throughput (pooled vs batched)");

  const circuit::Technology tech = circuit::technology_180nm();
  const timing::CellTemplate& cell = timing::find_cell("INV");
  const std::size_t segments = 4;  // PathSpec linear_elements_per_stage=10
  const double rcap = core::input_pin_cap(cell, tech);
  const mor::VariationalRom rom =
      core::characterize_stage_load(cell, tech, segments, rcap, 6);
  const circuit::SourceWaveform input =
      circuit::SourceWaveform::ramp(0.0, tech.vdd, 0.2e-9, 0.1e-9);

  teta::TetaOptions opt;
  opt.dt = 0.5e-12;  // fine-resolution waveform propagation
  // Quick mode scales the transient length along with the sample count,
  // so a quick run is genuinely cheap; the transition (input ramp at
  // 0.2 ns) still completes well inside the shorter window.
  opt.tstop = quick ? 1.0e-9 : 2.0e-9;
  opt.vdd = tech.vdd;
  const auto nsteps =
      static_cast<std::size_t>(std::ceil(opt.tstop / opt.dt - 1e-9));

  // The deterministic variate set both legs consume (counter-based
  // streams, exactly like stats::Runner): per-sample device dl/vt
  // plus global wire W/H, each at sigma = 1/3 in 3-sigma units, mapped to
  // physical units by core::sample_from_sources. The wire draw is
  // physical (what a PathSample carries); the normalized ROM coordinates
  // are derived from it with core::measure_stage_batch's rule, so the
  // pooled and batched legs consume bitwise-identical ROM inputs.
  const core::PathVariationModel all_sources{1.0, 1.0, 1.0, 1.0};
  struct Draw {
    timing::DeviceVariation dev;
    interconnect::WireVariation wire;  // physical global wire variation
    Vector w;  // normalized wire (W, H) for the ROM library
  };
  std::vector<Draw> samples;
  samples.reserve(nsamples);
  for (std::size_t s = 0; s < nsamples; ++s) {
    stats::SplitMix64 stream = stats::sample_stream(97, s);
    auto normal = [&stream] {
      return stats::to_normal(stream.uniform_open(), 0.0, 1.0 / 3.0);
    };
    const core::PathSample ps = core::sample_from_sources(
        all_sources, tech, 1, {normal(), normal(), normal(), normal()});
    Draw d;
    d.dev = ps.device[0];
    d.wire = ps.wire;
    d.w = Vector{tech.wire_tol.width > 0.0
                     ? d.wire.width / tech.wire_tol.width
                     : 0.0,
                 tech.wire_tol.ild_thickness > 0.0
                     ? d.wire.ild_thickness / tech.wire_tol.ild_thickness
                     : 0.0};
    samples.push_back(std::move(d));
  }

  // Pooled: the Monte-Carlo lane pipeline -- one SampleWorkspace reused
  // across all samples, exactly as PathAnalyzer hands each thread lane.
  core::PathAnalyzer::SampleWorkspace ws;
  auto run_pooled = [&](const Draw& d) {
    const teta::StageCircuit stage = make_stage(cell, tech, input, d.dev);
    rom.evaluate_into(d.w, ws.rom);
    const auto z =
        mor::stabilize(mor::extract_pole_residue(ws.rom, ws.poleres),
                       nullptr, mor::StabilizePolicy::kDirectCompensation);
    teta::simulate_stage(stage, z, opt, ws.teta, ws.teta_result);
    return far_delay(ws.teta_result, tech.vdd);
  };
  std::vector<double> pooled_d(nsamples);
  (void)run_pooled(samples[0]);  // warm-up fills the pools
  bench::Stopwatch sw_pooled;
  for (std::size_t s = 0; s < nsamples; ++s) {
    pooled_d[s] = run_pooled(samples[s]);
  }
  const double t_pooled = sw_pooled.seconds();

  // Batched: the lockstep SoA pipeline, exactly as the batch-dispatched
  // Monte-Carlo drivers call it (core::measure_stage_batch over K-sample
  // blocks, one BatchWorkspace reused across blocks).
  const std::size_t kbatch = 8;
  core::StageModel smodel;
  smodel.cell = &cell;
  smodel.load = rom;
  smodel.receiver_cap = rcap;
  core::StageSimOptions sopt;
  sopt.dt = opt.dt;
  sopt.stage_window = opt.tstop;
  core::BatchWorkspace bws;
  std::vector<const circuit::SourceWaveform*> binputs;
  std::vector<double> bshifts;
  std::vector<const timing::DeviceVariation*> bdevs;
  std::vector<const interconnect::WireVariation*> bwires;
  std::vector<core::StageMeasurement> meas;
  std::vector<double> batched_d(nsamples);
  auto run_batched_block = [&](std::size_t s0, std::size_t cnt) {
    binputs.assign(cnt, &input);
    bshifts.assign(cnt, 0.0);
    bdevs.clear();
    bwires.clear();
    for (std::size_t b = 0; b < cnt; ++b) {
      bdevs.push_back(&samples[s0 + b].dev);
      bwires.push_back(&samples[s0 + b].wire);
    }
    core::measure_stage_batch(smodel, tech, sopt, 0, binputs, bshifts,
                              bdevs, bwires, /*out_rising=*/false, nullptr,
                              meas, bws);
    for (std::size_t b = 0; b < cnt; ++b) {
      if (meas[b].failed) {
        throw std::runtime_error("bench_hotpath batched: " +
                                 meas[b].diag.message());
      }
      batched_d[s0 + b] = meas[b].params.m;
    }
  };
  run_batched_block(0, std::min(kbatch, nsamples));  // warm-up fills SoA
  bench::Stopwatch sw_batched;
  for (std::size_t s0 = 0; s0 < nsamples; s0 += kbatch) {
    run_batched_block(s0, std::min(kbatch, nsamples - s0));
  }
  const double t_batched = sw_batched.seconds();

  bool identical = true;
  for (std::size_t s = 0; s < nsamples; ++s) {
    if (numeric::exact_eq(pooled_d[s], batched_d[s])) continue;
    identical = false;
    std::printf("MISMATCH sample %zu: pooled %.17g batched %.17g\n", s,
                pooled_d[s], batched_d[s]);
  }

  const double n = static_cast<double>(nsamples);
  const double rate_pooled = n / t_pooled;
  const double rate_batched = n / t_batched;
  const double batched_speedup = rate_batched / rate_pooled;

  std::printf("samples            : %zu (%s), %zu transient steps each\n",
              nsamples, quick ? "quick" : "full", nsteps);
  std::printf("pooled workspace   : %8.3f ms/sample  (%7.2f samples/s)\n",
              1e3 * t_pooled / n, rate_pooled);
  std::printf("batched SoA (K=%zu) : %8.3f ms/sample  (%7.2f samples/s)\n",
              kbatch, 1e3 * t_batched / n, rate_batched);
  std::printf("batched speedup    : %.2fx (batched vs pooled)\n",
              batched_speedup);
  std::printf("bitwise identical  : %s\n", identical ? "yes" : "NO");

  const auto report = bench::json_object(
      {{"bench", "hotpath"},
       {"quick", quick},
       {"config", bench::json_object({{"wire_segments", segments},
                                      {"samples", nsamples},
                                      {"dt", opt.dt},
                                      {"transient_steps", nsteps},
                                      {"batch", kbatch}})},
       {"metrics",
        bench::json_object({{"pooled_ms_per_sample", 1e3 * t_pooled / n},
                            {"pooled_samples_per_sec", rate_pooled},
                            {"batched_ms_per_sample", 1e3 * t_batched / n},
                            {"batched_samples_per_sec", rate_batched},
                            {"batched_speedup_vs_pooled", batched_speedup}})},
       {"bitwise_identical", identical}});
  if (!bench::write_json(out_path, report)) return 1;
  return identical ? 0 : 1;
}
