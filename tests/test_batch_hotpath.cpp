// Batched (SoA) Monte-Carlo hot path: bitwise equivalence against
// one-lane runs across batch widths and thread counts, lanes that leave
// a lockstep block and climb the retry ladder, the step loop's SoA state
// against a RecursiveConvolver replay, the dispatch counters, fail-soft
// parity of the batch dispatcher, and the strided-batch numeric kernels.
// See docs/performance.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/path.hpp"
#include "mor/poleres.hpp"
#include "numeric/fp_compare.hpp"
#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "obs/registry.hpp"
#include "stats/runner.hpp"
#include "stats/yield.hpp"
#include "teta/batch.hpp"
#include "teta/convolution.hpp"
#include "timing/cells.hpp"
#include "timing/sta.hpp"

namespace lcsf::core {
namespace {

using numeric::Matrix;
using numeric::Vector;

std::size_t cell_index(const std::string& name) {
  const auto& lib = timing::cell_library();
  for (std::size_t k = 0; k < lib.size(); ++k) {
    if (lib[k].name == name) return k;
  }
  throw std::logic_error("unknown cell");
}

PathSpec small_path_spec() {
  PathSpec spec;
  spec.tech = circuit::technology_180nm();
  spec.cells = {cell_index("INV"), cell_index("NAND2"), cell_index("NOR2")};
  spec.linear_elements_per_stage = 10;
  spec.stage_window = 1.0e-9;
  spec.dt = 2e-12;
  return spec;
}

PathVariationModel small_model() {
  PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;
  // Wire variation exercises the batched ROM evaluation in front of the
  // lockstep transient, not just the per-device stamps.
  model.std_wire_w = 0.33;
  return model;
}

// Every batch width must reproduce the scalar (batch = 1) run bitwise:
// same survivors, same per-sample delays, same draws, same failure
// records. samples = 10 is deliberately not a multiple of any tested
// width, so each run also ends on a partial block (K = 8: a block of 8,
// then one of 2). The wide model's channel-length sigma makes
// some samples fail on a non-positive effective length while their
// block is built and others on the SC iteration limit inside lockstep
// blocks; under kSkip neither may disturb the rest of the block.
TEST(BatchHotpath, BatchWidthInvariantBitwise) {
  PathAnalyzer pa(small_path_spec());
  const PathVariationModel narrow = small_model();
  const PathVariationModel wide = [] {
    PathVariationModel m = small_model();
    m.std_dl = 10.0;
    return m;
  }();
  for (const PathVariationModel* m : {&narrow, &wide}) {
    const PathVariationModel& model = *m;
    stats::RunOptions opt;
    opt.samples = 10;
    opt.seed = 4;
    opt.exec.threads = 1;
    opt.exec.on_failure = stats::FailurePolicy::kSkip;
    opt.exec.batch = 1;
    const auto ref = pa.monte_carlo(model, opt);
    ASSERT_EQ(ref.failures.attempted, 10u);

    for (const std::size_t k : {std::size_t{2}, std::size_t{4},
                                std::size_t{8}}) {
      opt.exec.batch = k;
      const auto got = pa.monte_carlo(model, opt);
      ASSERT_EQ(got.values.size(), ref.values.size()) << "batch " << k;
      for (std::size_t s = 0; s < ref.values.size(); ++s) {
        EXPECT_EQ(got.values[s], ref.values[s])
            << "batch " << k << " sample " << s;
      }
      ASSERT_EQ(got.samples.size(), ref.samples.size());
      for (std::size_t s = 0; s < ref.samples.size(); ++s) {
        EXPECT_EQ(got.samples[s], ref.samples[s]);
      }
      EXPECT_EQ(got.stats.mean(), ref.stats.mean()) << "batch " << k;
      const auto& gf = got.failures.failures;
      const auto& rf = ref.failures.failures;
      ASSERT_EQ(gf.size(), rf.size()) << "batch " << k;
      for (std::size_t i = 0; i < rf.size(); ++i) {
        EXPECT_EQ(gf[i].index, rf[i].index) << "batch " << k;
        EXPECT_EQ(gf[i].kind, rf[i].kind) << "batch " << k;
        EXPECT_EQ(gf[i].detail, rf[i].detail) << "batch " << k;
      }
    }
    if (m == &narrow) {
      EXPECT_EQ(ref.values.size(), 10u);
      continue;
    }
    std::size_t leff = 0, sc_limit = 0;
    for (const auto& f : ref.failures.failures) {
      if (f.detail.find("non-positive effective length") !=
          std::string::npos) {
        ++leff;
      }
      if (f.kind == sim::FailureKind::kNewtonNonConvergence) ++sc_limit;
    }
    EXPECT_GT(leff, 0u);
    EXPECT_GT(sc_limit, 0u);
  }
}

// At a fixed batch width the thread-count determinism contract carries
// over: full blocks and the partial block go through one work queue, so
// any worker interleaving yields the same per-sample values.
TEST(BatchHotpath, ThreadCountInvariantAtFixedBatch) {
  PathAnalyzer pa(small_path_spec());
  const PathVariationModel model = small_model();
  stats::RunOptions opt;
  opt.samples = 10;
  opt.seed = 23;
  opt.exec.batch = 4;
  opt.exec.threads = 1;
  const auto ref = pa.monte_carlo(model, opt);

  for (const std::size_t t : {std::size_t{2}, std::size_t{8}}) {
    opt.exec.threads = t;
    const auto got = pa.monte_carlo(model, opt);
    ASSERT_EQ(got.values.size(), ref.values.size()) << "threads " << t;
    for (std::size_t s = 0; s < ref.values.size(); ++s) {
      EXPECT_EQ(got.values[s], ref.values[s])
          << "threads " << t << " sample " << s;
    }
  }
}

/// A synthetic block function that records the width of every block it
/// sees (run with threads = 1, so in dispatch order) and values w[0].
stats::BatchPerformanceFn width_recorder(std::vector<std::size_t>& widths) {
  return [&widths](const std::vector<Vector>& w, std::size_t,
                   std::vector<stats::BatchSlot>& out) {
    widths.push_back(w.size());
    for (std::size_t b = 0; b < w.size(); ++b) out[b].value = w[b][0];
  };
}

// 11 samples at batch 4 dispatch as blocks of 4, 4 and 3; the counters
// and the batch_fill distribution pinned in tools/metrics_schema.json
// must say exactly that: two full blocks, three remainder samples, one
// fill value per block.
TEST(BatchHotpath, DispatchCountersAndFillDistribution) {
  PathAnalyzer pa(small_path_spec());
  const PathVariationModel model = small_model();
  obs::Registry reg;
  stats::RunOptions opt;
  opt.samples = 11;
  opt.seed = 5;
  opt.exec.threads = 1;
  opt.exec.batch = 4;
  opt.registry = &reg;
  const auto res = pa.monte_carlo(model, opt);
  EXPECT_EQ(res.values.size(), 11u);

  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("stats.mc.batches"), 2u);
  EXPECT_EQ(snap.counters.at("stats.mc.batch_remainder_samples"), 3u);
  const auto& fill = snap.distributions.at("stats.mc.batch_fill");
  EXPECT_EQ(fill.count, 3u);
  EXPECT_EQ(fill.min, 3.0);
  EXPECT_EQ(fill.max, 4.0);
  EXPECT_NEAR(fill.mean, 11.0 / 3.0, 1e-12);

  const std::vector<stats::VariationSource> sources(2);
  opt.registry = nullptr;
  std::vector<std::size_t> widths;
  (void)stats::Runner(opt).run_monte_carlo(width_recorder(widths), sources);
  EXPECT_EQ(widths, (std::vector<std::size_t>{4, 4, 3}));

  // Fewer samples than K: one partial block, and no full one.
  obs::Registry short_reg;
  opt.samples = 5;
  opt.exec.batch = 8;
  opt.registry = &short_reg;
  widths.clear();
  (void)stats::Runner(opt).run_monte_carlo(width_recorder(widths), sources);
  EXPECT_EQ(widths, std::vector<std::size_t>{5});
  const obs::Snapshot short_snap = short_reg.snapshot();
  EXPECT_EQ(short_snap.counters.at("stats.mc.batches"), 0u);
  EXPECT_EQ(short_snap.counters.at("stats.mc.batch_remainder_samples"), 5u);
  EXPECT_EQ(short_snap.distributions.at("stats.mc.batch_fill").count, 1u);
  EXPECT_EQ(short_snap.distributions.at("stats.mc.batch_fill").min, 5.0);

  // K = 1 runs one-sample blocks: it dispatches nothing wider, so it
  // records none of the dispatch metrics.
  obs::Registry scalar_reg;
  opt.samples = 11;
  opt.exec.batch = 1;
  opt.registry = &scalar_reg;
  EXPECT_EQ(pa.monte_carlo(model, opt).values.size(), 11u);
  const obs::Snapshot scalar = scalar_reg.snapshot();
  EXPECT_EQ(scalar.counters.at("stats.mc.samples"), 11u);
  EXPECT_EQ(scalar.counters.count("stats.mc.batches"), 0u);
  EXPECT_EQ(scalar.counters.count("stats.mc.batch_remainder_samples"), 0u);
  EXPECT_EQ(scalar.distributions.count("stats.mc.batch_fill"), 0u);
}

// Gradient Analysis and both importance-sampling phases run through the
// same block loop as Monte Carlo: the GA nominal alone, then its probes
// (+h, -h per source with a nonzero sigma) in blocks of min(K,
// remaining), then the IS pilot and main samples likewise. The blocks
// change no result: every output equals the one-sample-block run.
TEST(BatchHotpath, GradientAndImportancePhasesRunInBlocks) {
  std::vector<stats::VariationSource> sources(5);
  sources[2].sigma = 0.0;  // no step, so no probes
  stats::RunOptions opt;
  opt.samples = 11;
  opt.exec.threads = 1;
  opt.exec.batch = 4;
  opt.importance.pilot_samples = 5;

  std::vector<std::size_t> widths;
  (void)stats::Runner(opt).run_gradients(width_recorder(widths), sources);
  EXPECT_EQ(widths, (std::vector<std::size_t>{1, 4, 4}));

  // f = w0 + sum_d w_d: the surrogate is exact, and T lies above the
  // nominal so the proposal shifts and the pilot refines it.
  const stats::PerformanceFn f = [](const Vector& w) {
    double d = w[0];
    for (const double x : w) d += x;
    return d;
  };
  const stats::BatchPerformanceFn fb = stats::per_sample(f);
  widths.clear();
  const stats::BatchPerformanceFn recorded =
      [&](const std::vector<Vector>& w, std::size_t lane,
          std::vector<stats::BatchSlot>& out) {
        widths.push_back(w.size());
        fb(w, lane, out);
      };
  const auto got = stats::Runner(opt).run_yield_is(recorded, sources, 2.0);
  // GA {1, 4, 4}, pilot 5 = {4, 1}, main 11 = {4, 4, 3}.
  EXPECT_EQ(widths, (std::vector<std::size_t>{1, 4, 4, 4, 1, 4, 4, 3}));

  opt.exec.batch = 1;
  const auto ga1 = stats::Runner(opt).run_gradients(fb, sources);
  const auto ref = stats::Runner(opt).run_yield_is(fb, sources, 2.0);
  opt.exec.batch = 4;
  const auto ga4 = stats::Runner(opt).run_gradients(fb, sources);
  EXPECT_EQ(ga4.nominal, ga1.nominal);
  EXPECT_EQ(ga4.gradient, ga1.gradient);
  EXPECT_EQ(ga4.stddev, ga1.stddev);
  EXPECT_EQ(ga4.evaluations, 9u);
  EXPECT_EQ(got.surrogate.shift, ref.surrogate.shift);
  EXPECT_EQ(got.values, ref.values);
  EXPECT_EQ(got.weights, ref.weights);
  EXPECT_EQ(got.yield_loss, ref.yield_loss);
  EXPECT_EQ(got.pilot_used, 5u);
}

// The window ladder: lanes whose output transition does not complete in
// the stage window rerun as a narrower block at 2x, then 4x. One K=4
// block must match four one-lane calls bitwise -- values, raw samples,
// failure diagnostics, and the TETA counters (no lane repeats a rung) --
// with lanes finishing at each rung and one exhausting the ladder.
TEST(BatchHotpath, WindowLadderMatchesOneLaneCallsBitwise) {
  const PathAnalyzer pa(small_path_spec());
  const StageModel& st = pa.stage_model(0);  // INV: falling output
  const circuit::Technology& tech = pa.spec().tech;
  StageSimOptions opt;
  opt.stage_window = 0.3e-9;
  // Input ramps switching later and later: their outputs complete at
  // window scale 1, 2 and 4, and past the 4x window.
  const std::vector<double> arrivals{0.1e-9, 0.35e-9, 0.8e-9, 1.5e-9};
  const std::size_t nl = arrivals.size();
  std::vector<circuit::SourceWaveform> waves;
  std::vector<timing::DeviceVariation> devs(nl);
  std::vector<interconnect::WireVariation> wires(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    waves.push_back(
        timing::RampParams{arrivals[l], 0.1e-9, true}.to_source(tech.vdd));
    devs[l].delta_vt = 0.01 * static_cast<double>(l);
    wires[l].width = 0.1 * static_cast<double>(l) * tech.wire_tol.width;
  }
  const std::vector<double> shifts{0.0, 1e-12, 2e-12, 3e-12};
  std::vector<const circuit::SourceWaveform*> inputs;
  std::vector<const timing::DeviceVariation*> devp;
  std::vector<const interconnect::WireVariation*> wirep;
  for (std::size_t l = 0; l < nl; ++l) {
    inputs.push_back(&waves[l]);
    devp.push_back(&devs[l]);
    wirep.push_back(&wires[l]);
  }

  obs::Registry batch_reg;
  std::vector<StageMeasurement> meas;
  std::vector<timing::Samples> souts;
  {
    obs::ScopedContext ctx(&batch_reg, 0);
    BatchWorkspace bws;
    measure_stage_batch(st, tech, opt, 7, inputs, shifts, devp, wirep,
                        /*out_rising=*/false, &souts, meas, bws);
  }
  ASSERT_EQ(meas.size(), nl);
  EXPECT_FALSE(meas[0].failed);
  EXPECT_FALSE(meas[1].failed);
  EXPECT_FALSE(meas[2].failed);
  ASSERT_TRUE(meas[3].failed);
  EXPECT_EQ(meas[3].diag.kind, sim::FailureKind::kOther);
  EXPECT_EQ(meas[3].diag.detail.rfind("stage 7 did not complete: ", 0), 0u)
      << meas[3].diag.detail;

  obs::Registry scalar_reg;
  for (std::size_t l = 0; l < nl; ++l) {
    obs::ScopedContext ctx(&scalar_reg, 0);
    SampleWorkspace ws;
    timing::Samples samples;
    try {
      const timing::RampParams p = measure_stage_with_retry(
          st, tech, opt, 7, waves[l], shifts[l], devs[l], wires[l],
          /*out_rising=*/false, &samples, &ws);
      ASSERT_FALSE(meas[l].failed) << "lane " << l;
      EXPECT_EQ(p.m, meas[l].params.m) << "lane " << l;
      EXPECT_EQ(p.s, meas[l].params.s) << "lane " << l;
      EXPECT_EQ(samples, souts[l]) << "lane " << l;
    } catch (const sim::SimulationError& e) {
      ASSERT_TRUE(meas[l].failed) << "lane " << l;
      EXPECT_EQ(e.kind(), meas[l].diag.kind);
      EXPECT_EQ(e.diagnostics().detail, meas[l].diag.detail);
      EXPECT_EQ(e.diagnostics().message(), meas[l].diag.message());
    }
  }

  const auto batch = batch_reg.snapshot().counters;
  const auto scalar = scalar_reg.snapshot().counters;
  // One transient per rung tried: 1 + 2 + 3 + 3.
  EXPECT_EQ(scalar.at("teta.transients"), 9u);
  EXPECT_EQ(batch.at("teta.transients"), scalar.at("teta.transients"));
  EXPECT_EQ(batch.at("teta.chord_iterations"),
            scalar.at("teta.chord_iterations"));
  EXPECT_EQ(batch.at("teta.steps"), scalar.at("teta.steps"));
}

// Only lanes whose output transition did not complete climb the window
// ladder. A lane whose transient fails would fail again on every rung --
// a wider window repeats its dt and trajectory -- so it fails at once:
// one failed transient for the lane, with a one-lane call's diagnostics.
TEST(BatchHotpath, FailedTransientSkipsTheWindowLadder) {
  const PathAnalyzer pa(small_path_spec());
  const StageModel& st = pa.stage_model(0);  // INV: falling output
  const circuit::Technology& tech = pa.spec().tech;
  StageSimOptions opt;
  opt.stage_window = 1e-9;
  const circuit::SourceWaveform wave =
      timing::RampParams{0.25e-9, 0.1e-9, true}.to_source(tech.vdd);
  // An input that turns NaN: the lane's transient blows up.
  const circuit::SourceWaveform nan_wave = circuit::SourceWaveform::pwl(
      {{0.0, 0.0},
       {50e-12, 0.0},
       {100e-12, std::numeric_limits<double>::quiet_NaN()},
       {200e-12, tech.vdd}});
  constexpr std::size_t kLanes = 3;
  const std::vector<timing::DeviceVariation> devs(kLanes);
  const interconnect::WireVariation wire;
  std::vector<const circuit::SourceWaveform*> inputs(kLanes, &wave);
  inputs[1] = &nan_wave;
  const std::vector<double> shifts(kLanes, 0.0);
  const std::vector<const interconnect::WireVariation*> wirep(kLanes,
                                                              &wire);
  std::vector<const timing::DeviceVariation*> devp;
  for (const auto& d : devs) devp.push_back(&d);

  obs::Registry batch_reg;
  std::vector<StageMeasurement> meas;
  {
    obs::ScopedContext ctx(&batch_reg, 0);
    BatchWorkspace bws;
    measure_stage_batch(st, tech, opt, 3, inputs, shifts, devp, wirep,
                        /*out_rising=*/false, nullptr, meas, bws);
  }
  ASSERT_EQ(meas.size(), kLanes);
  EXPECT_FALSE(meas[0].failed);
  EXPECT_FALSE(meas[2].failed);
  ASSERT_TRUE(meas[1].failed);
  EXPECT_EQ(meas[1].diag.kind, sim::FailureKind::kBlowUp);

  obs::Registry one_reg;
  try {
    obs::ScopedContext ctx(&one_reg, 0);
    SampleWorkspace ws;
    (void)measure_stage_with_retry(st, tech, opt, 3, nan_wave, 0.0, devs[1],
                                   wire, /*out_rising=*/false, nullptr,
                                   &ws);
    ADD_FAILURE() << "the one-lane call converged";
  } catch (const sim::SimulationError& e) {
    EXPECT_EQ(e.kind(), meas[1].diag.kind);
    EXPECT_EQ(e.diagnostics().detail, meas[1].diag.detail);
    EXPECT_EQ(e.diagnostics().failure_time, meas[1].diag.failure_time);
    EXPECT_EQ(e.diagnostics().iterations, meas[1].diag.iterations);
    EXPECT_EQ(e.diagnostics().message(), meas[1].diag.message());
  }

  const auto batch = batch_reg.snapshot().counters;
  const auto one = one_reg.snapshot().counters;
  EXPECT_EQ(batch.at("teta.failed_transients"), 1u);
  EXPECT_EQ(one.at("teta.failed_transients"), 1u);
  // One transient per lane: no lane repeats the 1x window.
  EXPECT_EQ(batch.at("teta.transients"), kLanes);
  EXPECT_EQ(one.at("teta.transients"), 1u);
}

// One hand-built TETA lane: a stage model's cell driven by `input` with
// device variation `dev`, against the model's nominal load.
struct TetaLaneInputs {
  teta::StageCircuit stage;
  mor::PoleResidueModel load;
};

TetaLaneInputs teta_lane(const StageModel& st, const circuit::Technology& tech,
                         const circuit::SourceWaveform& input,
                         const timing::DeviceVariation& dev) {
  TetaLaneInputs ln;
  ln.load = mor::stabilize(
      mor::extract_pole_residue(st.load.evaluate(Vector{0.0, 0.0})));
  const std::size_t out = ln.stage.add_port();
  (void)ln.stage.add_port();  // far port
  const std::size_t in = ln.stage.add_input(input);
  const std::size_t vdd = ln.stage.add_rail(tech.vdd);
  const std::size_t gnd = ln.stage.add_rail(0.0);
  timing::instantiate_cell(*st.cell, tech, ln.stage, out, in, vdd, gnd, dev);
  ln.stage.freeze_device_capacitances();
  return ln;
}

// Runs `in` as one simulate_stage_batch block and again as one-lane
// simulate_stage calls; every lane's result and the teta.* counters must
// match bitwise. Returns the one-lane results.
std::vector<teta::TetaResult> expect_block_matches_one_lane_calls(
    const std::vector<TetaLaneInputs>& in, const teta::TetaOptions& opt,
    obs::Registry* block_registry = nullptr) {
  const std::size_t nl = in.size();
  obs::Registry own_reg;
  obs::Registry& batch_reg = block_registry ? *block_registry : own_reg;
  std::vector<teta::TetaWorkspace> bws_lanes(nl);
  std::vector<teta::TetaResult> got(nl);
  {
    obs::ScopedContext ctx(&batch_reg, 0);
    std::vector<teta::BatchLane> lanes;
    for (std::size_t l = 0; l < nl; ++l) {
      lanes.push_back({&in[l].stage, &in[l].load, &bws_lanes[l], &got[l]});
    }
    teta::BatchTetaWorkspace bws;
    teta::simulate_stage_batch(lanes, opt, bws);
  }
  obs::Registry one_reg;
  std::vector<teta::TetaResult> want(nl);
  {
    obs::ScopedContext ctx(&one_reg, 0);
    for (std::size_t l = 0; l < nl; ++l) {
      teta::TetaWorkspace ws;
      teta::simulate_stage(in[l].stage, in[l].load, opt, ws, want[l]);
    }
  }
  for (std::size_t l = 0; l < nl; ++l) {
    const teta::TetaResult& g = got[l];
    const teta::TetaResult& w = want[l];
    EXPECT_EQ(g.converged, w.converged) << "lane " << l;
    EXPECT_EQ(g.time, w.time) << "lane " << l;
    EXPECT_EQ(g.port_voltages, w.port_voltages) << "lane " << l;
    EXPECT_EQ(g.total_sc_iterations, w.total_sc_iterations) << "lane " << l;
    EXPECT_EQ(g.diag.kind, w.diag.kind) << "lane " << l;
    EXPECT_EQ(g.diag.detail, w.diag.detail) << "lane " << l;
    EXPECT_EQ(g.diag.message(), w.diag.message()) << "lane " << l;
    EXPECT_EQ(g.diag.failure_time, w.diag.failure_time) << "lane " << l;
    EXPECT_EQ(g.diag.iterations, w.diag.iterations) << "lane " << l;
    EXPECT_EQ(g.diag.retries_used, w.diag.retries_used) << "lane " << l;
    EXPECT_EQ(g.diag.max_abs_v, w.diag.max_abs_v) << "lane " << l;
  }
  const auto teta_counters = [](const obs::Registry& reg) {
    std::map<std::string, std::uint64_t> c;
    for (const auto& [name, v] : reg.snapshot().counters) {
      if (name.rfind("teta.", 0) == 0) c[name] = v;
    }
    return c;
  };
  EXPECT_EQ(teta_counters(batch_reg), teta_counters(one_reg));
  return want;
}

// The teta.failed.<kind> counters of `reg`, which must sum to
// teta.failed_transients.
std::map<std::string, std::uint64_t> failures_by_kind(
    const obs::Registry& reg) {
  const auto counters = reg.snapshot().counters;
  std::map<std::string, std::uint64_t> by_kind;
  std::uint64_t sum = 0;
  for (const auto& [name, v] : counters) {
    if (name.rfind("teta.failed.", 0) == 0) {
      by_kind[name.substr(12)] = v;
      sum += v;
    }
  }
  const auto total = counters.find("teta.failed_transients");
  EXPECT_EQ(sum, total == counters.end() ? 0u : total->second);
  return by_kind;
}

// Lanes leave a lockstep block on the SC iteration limit or on blow-up.
// Each must end exactly as a one-lane call would -- converged in
// lockstep, recovered on the dt-halving ladder, or with the ladder
// exhausted -- and a lane of another shape never enters the block.
TEST(BatchHotpath, LanesLeavingALockstepBlockMatchOneLaneCalls) {
  const PathAnalyzer pa(small_path_spec());
  const circuit::Technology& tech = pa.spec().tech;
  const StageModel& inv = pa.stage_model(0);
  const StageModel& nand = pa.stage_model(1);
  teta::TetaOptions opt;
  opt.tstop = 0.4e-9;
  opt.vdd = tech.vdd;
  opt.recovery.max_dt_retries = 2;
  opt.recovery.damping_factor = 1.0;  // keep DC within the tight budget

  // SC limit: a coarse step and a 6-iteration budget (the accelerated
  // chords need 8 to converge a 30 ps edge at this step). The faster the
  // input edge, the more chord iterations a step needs: the idle lane
  // converges in lockstep, the 10 ps edge recovers at dt/4, the faster
  // ones exhaust the ladder, and so does the NAND2 lane.
  {
    teta::TetaOptions sc = opt;
    sc.dt = 20e-12;
    sc.max_sc_iters = 6;
    const std::vector<double> start{1e-9, 0.05e-9, 0.05e-9, 0.05e-9};
    const std::vector<double> rise{200e-12, 10e-12, 2e-12, 1e-12};
    std::vector<TetaLaneInputs> in;
    for (std::size_t l = 0; l < rise.size(); ++l) {
      timing::DeviceVariation dev;
      dev.delta_vt = 0.01 * static_cast<double>(l);
      in.push_back(teta_lane(
          inv, tech,
          circuit::SourceWaveform::ramp(0.0, tech.vdd, start[l], rise[l]),
          dev));
    }
    in.push_back(teta_lane(
        nand, tech,
        circuit::SourceWaveform::ramp(0.0, tech.vdd, 0.05e-9, 100e-12), {}));
    obs::Registry reg;
    const auto res = expect_block_matches_one_lane_calls(in, sc, &reg);
    EXPECT_TRUE(res[0].converged);
    EXPECT_EQ(res[0].diag.retries_used, 0);
    EXPECT_TRUE(res[1].converged);
    EXPECT_EQ(res[1].diag.retries_used, 2);
    for (const std::size_t l : {2, 3, 4}) {
      EXPECT_FALSE(res[l].converged) << "lane " << l;
      EXPECT_EQ(res[l].diag.kind, sim::FailureKind::kNewtonNonConvergence)
          << "lane " << l;
      EXPECT_EQ(res[l].diag.retries_used, 2) << "lane " << l;
    }
    EXPECT_EQ(failures_by_kind(reg),
              (std::map<std::string, std::uint64_t>{
                  {"newton-nonconvergence", 3}}));
  }

  // Blow-up: a 1 V ceiling on a rising output. Lanes whose input falls
  // inside the window cross it at different steps; the last one never
  // switches and converges in lockstep.
  {
    teta::TetaOptions bu = opt;
    bu.dt = 2e-12;
    bu.vblowup = 1.0;
    const std::vector<double> fall_at{0.05e-9, 0.15e-9, 0.25e-9, 1e-9};
    std::vector<TetaLaneInputs> in;
    for (const double t0 : fall_at) {
      in.push_back(teta_lane(
          inv, tech, circuit::SourceWaveform::ramp(tech.vdd, 0.0, t0, 50e-12),
          {}));
    }
    obs::Registry reg;
    const auto res = expect_block_matches_one_lane_calls(in, bu, &reg);
    EXPECT_EQ(failures_by_kind(reg),
              (std::map<std::string, std::uint64_t>{{"blow-up", 3}}));
    for (const std::size_t l : {0, 1, 2}) {
      EXPECT_EQ(res[l].diag.kind, sim::FailureKind::kBlowUp) << "lane " << l;
      EXPECT_EQ(res[l].diag.retries_used, 2) << "lane " << l;
    }
    EXPECT_LT(res[0].diag.failure_time, res[1].diag.failure_time);
    EXPECT_LT(res[1].diag.failure_time, res[2].diag.failure_time);
    EXPECT_TRUE(res[3].converged);
    EXPECT_EQ(res[3].diag.retries_used, 0);
  }
}

// The ladder runs every rung as one block: rung r holds the lanes still
// pending, each same-shape class in lockstep (or as a class of one), at
// dt / 2^r. Lanes that fail rung 0 and recover at rung 1 climb together,
// a lane whose input turns NaN blows up on every rung, and a lane whose
// load has one pole fewer runs alone in its own class; each ends as its
// one-lane call ends, and the block's teta.* counters are their sums.
TEST(BatchHotpath, RetryLadderRunsEachRungAsABlock) {
  const PathAnalyzer pa(small_path_spec());
  const circuit::Technology& tech = pa.spec().tech;
  const StageModel& inv = pa.stage_model(0);
  teta::TetaOptions opt;
  opt.tstop = 0.4e-9;
  opt.dt = 32e-12;
  opt.max_sc_iters = 7;
  opt.vdd = tech.vdd;
  opt.recovery.max_dt_retries = 2;
  opt.recovery.damping_factor = 1.0;  // keep DC within the tight budget

  using circuit::SourceWaveform;
  const auto edge = [&](double start, double rise) {
    return SourceWaveform::ramp(0.0, tech.vdd, start, rise);
  };
  std::vector<TetaLaneInputs> in;
  in.push_back(teta_lane(inv, tech, edge(1e-9, 100e-12), {}));  // idle
  timing::DeviceVariation slow;
  slow.delta_vt = 0.01;
  in.push_back(teta_lane(inv, tech, edge(0.05e-9, 60e-12), {}));
  in.push_back(teta_lane(inv, tech, edge(0.05e-9, 100e-12), slow));
  in.push_back(teta_lane(
      inv, tech,
      SourceWaveform::pwl({{0.0, 0.0},
                           {50e-12, 0.0},
                           {100e-12, std::numeric_limits<double>::quiet_NaN()},
                           {200e-12, tech.vdd}}),
      {}));
  TetaLaneInputs fewer = teta_lane(inv, tech, edge(0.05e-9, 100e-12), {});
  {
    std::vector<numeric::Complex> poles = fewer.load.poles();
    std::vector<numeric::ComplexMatrix> res;
    for (std::size_t q = 0; q + 1 < poles.size(); ++q) {
      res.push_back(fewer.load.residue(q));
    }
    poles.pop_back();
    fewer.load = mor::PoleResidueModel(fewer.load.num_ports(),
                                       fewer.load.direct(), poles, res);
  }
  ASSERT_EQ(fewer.load.num_poles() + 1, in[0].load.num_poles());
  in.push_back(std::move(fewer));

  obs::Registry block_reg;
  const auto res = expect_block_matches_one_lane_calls(in, opt, &block_reg);
  EXPECT_TRUE(res[0].converged);
  EXPECT_EQ(res[0].diag.retries_used, 0);
  for (const std::size_t l : {1, 2, 4}) {
    EXPECT_TRUE(res[l].converged) << "lane " << l;
    EXPECT_EQ(res[l].diag.retries_used, 1) << "lane " << l;
  }
  EXPECT_FALSE(res[3].converged);
  EXPECT_EQ(res[3].diag.kind, sim::FailureKind::kBlowUp);
  EXPECT_EQ(res[3].diag.retries_used, 2);
  // Classes of one inside the block are timed as nested one-lane
  // transients: the short-load lane on rungs 0 and 1, the NaN lane alone
  // on rung 2.
  const auto timers = block_reg.snapshot().timers;
  const auto nested = timers.find("teta.stage_batch/teta.stage");
  ASSERT_NE(nested, timers.end());
  EXPECT_EQ(nested->second.count, 3u);
}

// The settle stop ends a lane at the first committed step where its
// input has reached its last breakpoint and every port has swung more
// than vdd/2 to within 1e-4 vdd of a rail. A DC input never swings and a
// pulse's output swings back to where it started, so both run to tstop;
// a ramp's lane stops early, alone at the same step as in the block, and
// at the same step in a window twice as long.
TEST(BatchHotpath, SettleStopNeedsACompletedSwing) {
  const PathAnalyzer pa(small_path_spec());
  const circuit::Technology& tech = pa.spec().tech;
  const StageModel& inv = pa.stage_model(0);
  teta::TetaOptions opt;
  opt.tstop = 1e-9;
  opt.dt = 2e-12;
  opt.vdd = tech.vdd;
  using circuit::SourceWaveform;
  std::vector<TetaLaneInputs> in;
  in.push_back(teta_lane(inv, tech, SourceWaveform::dc(0.0), {}));
  in.push_back(teta_lane(
      inv, tech,
      SourceWaveform::pulse(0.0, tech.vdd, 0.1e-9, 50e-12, 0.2e-9, 50e-12),
      {}));
  in.push_back(teta_lane(
      inv, tech, SourceWaveform::ramp(0.0, tech.vdd, 0.1e-9, 50e-12), {}));
  const auto res = expect_block_matches_one_lane_calls(in, opt);
  for (const auto& r : res) ASSERT_TRUE(r.converged) << r.failure();
  EXPECT_EQ(res[0].time.size(), 501u) << "DC input";
  EXPECT_EQ(res[1].time.size(), 501u) << "pulse";
  ASSERT_LT(res[2].time.size(), 501u) << "ramp";
  EXPECT_GE(res[2].time.back(), 0.15e-9);
  for (const std::size_t port : {std::size_t{0}, std::size_t{1}}) {
    EXPECT_LE(std::abs(res[2].waveform(port).back().second),
              1e-4 * tech.vdd);  // settled at ground
  }

  teta::TetaOptions longer = opt;
  longer.tstop = 2e-9;
  teta::TetaWorkspace ws;
  teta::TetaResult out;
  teta::simulate_stage(in[2].stage, in[2].load, longer, ws, out);
  EXPECT_EQ(out.time, res[2].time);
  EXPECT_EQ(out.port_voltages, res[2].port_voltages);
}

// Replays slot `slot` of a converged step-loop run through a fresh
// RecursiveConvolver: DC history from the t = 0 port voltages, then per
// step the loop's own commit, il = Y_h v[n] - Y_h history(), advance(il).
// Returns how many entries of the replay's final pole states and committed
// current differ from the slot's SoA state (bitwise).
std::size_t replay_mismatches(const mor::PoleResidueModel& load,
                              const teta::TetaOptions& opt,
                              const teta::TetaWorkspace& ws,
                              const teta::TetaResult& out,
                              const teta::BatchTetaWorkspace& soa,
                              std::size_t slot) {
  const std::size_t width = soa.alive.size();
  teta::RecursiveConvolver ref(load, opt.dt);
  const std::size_t np = ref.num_ports();
  Vector il(np), yv(np), yhist(np);
  const auto ports_at = [&](std::size_t n) {  // step n's port voltages
    const auto first = out.port_voltages.begin() +
                       static_cast<std::ptrdiff_t>(n * np);
    return Vector(first, first + static_cast<std::ptrdiff_t>(np));
  };
  numeric::mul_into(ws.y_dc, ports_at(0), il);
  ref.initialize_dc(il);
  for (std::size_t n = 1; n < out.time.size(); ++n) {
    const Vector hist = ref.history();
    numeric::mul_into(ws.y_h, ports_at(n), yv);
    numeric::mul_into(ws.y_h, hist, yhist);
    for (std::size_t p = 0; p < np; ++p) il[p] = yv[p] - yhist[p];
    ref.advance(il);
  }
  std::size_t bad = 0;
  for (std::size_t k = 0; k < ref.num_poles(); ++k) {
    for (std::size_t j = 0; j < np; ++j) {
      const std::size_t at = (k * np + j) * width + slot;
      if (!numeric::exact_eq(ref.state(k)[j].real(), soa.st_re[at])) ++bad;
      if (!numeric::exact_eq(ref.state(k)[j].imag(), soa.st_im[at])) ++bad;
    }
  }
  for (std::size_t j = 0; j < np; ++j) {
    if (!numeric::exact_eq(ref.committed_current()[j],
                           soa.ip[j * width + slot])) {
      ++bad;
    }
  }
  return bad;
}

// The step loop is TETA's only transient loop, so this replay is what
// holds its SoA convolution arithmetic to the std::complex recurrence of
// RecursiveConvolver::history()/advance(). Both instances run: a one-lane
// simulate_stage, and simulate_stage_batch blocks of K = 3 (the
// vectorizer's scalar epilogue) and K = 8 (its vector body). Stage loads
// are real-pole only, which leaves the imaginary half of every expanded
// complex product at zero, so each case runs again with one
// complex-conjugate pole pair added to the load. Every lane settles
// before tstop, each at its own step: a slot that leaves its block early
// must keep the state of the steps it ran, untouched by the steps its
// block runs after it.
TEST(BatchHotpath, StepLoopReplaysThroughRecursiveConvolverBitwise) {
  const circuit::Technology tech = circuit::technology_180nm();
  StageModel st;  // the hot-path bench's INV stage
  st.cell = &timing::find_cell("INV");
  st.receiver_cap = input_pin_cap(*st.cell, tech);
  st.load = characterize_stage_load(*st.cell, tech, 4, st.receiver_cap, 6);
  teta::TetaOptions opt;
  opt.dt = 1e-12;
  opt.tstop = 0.6e-9;
  opt.vdd = tech.vdd;

  // Lane l: its own device and wire draw, so every slot's coefficients
  // and states differ, and an input edge 20 ps after lane l - 1's, so the
  // lanes settle in turn; every lane gets the pair at the same poles.
  const auto lanes = [&](std::size_t k, bool pair) {
    std::vector<TetaLaneInputs> in;
    for (std::size_t l = 0; l < k; ++l) {
      const double u = 0.1 * static_cast<double>(l) - 0.3;
      timing::DeviceVariation dev;
      dev.delta_vt = 0.01 * u;
      TetaLaneInputs ln = teta_lane(
          st, tech,
          circuit::SourceWaveform::ramp(
              0.0, tech.vdd, 0.2e-9 + 20e-12 * static_cast<double>(l),
              0.1e-9),
          dev);
      ln.load = mor::stabilize(
          mor::extract_pole_residue(st.load.evaluate(Vector{u, -u})));
      if (pair) {
        // Poles at -3e10 +/- 8e10j with conjugate residues a twentieth
        // the size of the first pole's: a small ringing term on a load
        // that stays stable. r / p is purely imaginary, so the pair adds
        // nothing at DC and the lanes still swing rail to rail and settle.
        const std::size_t np = ln.load.num_ports();
        std::vector<numeric::Complex> poles = ln.load.poles();
        std::vector<numeric::ComplexMatrix> res;
        for (std::size_t q = 0; q < poles.size(); ++q) {
          res.push_back(ln.load.residue(q));
        }
        const numeric::Complex p{-3e10, 8e10};
        numeric::ComplexMatrix r(np, np), rc(np, np);
        for (std::size_t i = 0; i < np; ++i) {
          for (std::size_t j = 0; j < np; ++j) {
            r(i, j) = 0.05 * std::abs(res[0](i, j)) *
                      numeric::Complex{0.0, 1.0} * p / std::abs(p);
            rc(i, j) = std::conj(r(i, j));
          }
        }
        poles.push_back(p);
        poles.push_back(std::conj(p));
        res.push_back(r);
        res.push_back(rc);
        ln.load = mor::PoleResidueModel(np, ln.load.direct(), poles, res);
      }
      in.push_back(std::move(ln));
    }
    return in;
  };

  for (const bool pair : {false, true}) {
    {
      const std::vector<TetaLaneInputs> in = lanes(1, pair);
      teta::TetaWorkspace ws;
      teta::TetaResult out;
      teta::simulate_stage(in[0].stage, in[0].load, opt, ws, out);
      ASSERT_TRUE(out.converged) << out.failure();
      ASSERT_EQ(out.diag.retries_used, 0);
      ASSERT_LT(out.time.size(), 601u) << "settled before tstop";
      EXPECT_EQ(replay_mismatches(in[0].load, opt, ws, out, ws.one_lane, 0),
                0u)
          << "one lane, pair " << pair;
    }
    for (const std::size_t k : {std::size_t{3}, std::size_t{8}}) {
      const std::vector<TetaLaneInputs> in = lanes(k, pair);
      std::vector<teta::TetaWorkspace> ws(k);
      std::vector<teta::TetaResult> out(k);
      std::vector<teta::BatchLane> block;
      for (std::size_t l = 0; l < k; ++l) {
        block.push_back({&in[l].stage, &in[l].load, &ws[l], &out[l]});
      }
      teta::BatchTetaWorkspace bws;
      teta::simulate_stage_batch(block, opt, bws);
      ASSERT_EQ(bws.live.size(), k);
      std::size_t first = 601, last = 0;  // waveform lengths in the block
      for (std::size_t b = 0; b < k; ++b) {
        ASSERT_TRUE(bws.alive[b]) << "K " << k << " slot " << b;
        const std::size_t l = bws.live[b];
        ASSERT_TRUE(out[l].converged) << out[l].failure();
        first = std::min(first, out[l].time.size());
        last = std::max(last, out[l].time.size());
        EXPECT_EQ(replay_mismatches(in[l].load, opt, ws[l], out[l], bws, b),
                  0u)
            << "K " << k << " slot " << b << ", pair " << pair;
      }
      EXPECT_LT(first, last) << "K " << k;
      EXPECT_LT(last, 601u) << "K " << k;
    }
  }
}

// Synthetic evaluators isolate the Runner's block loop from the
// transient engine: a block function that classifies failures in its
// slots must reproduce the one-sample function behind stats::per_sample
// exactly -- same survivor values, same classified failure records --
// and a failed slot must not perturb its neighbours.
TEST(BatchHotpath, FailSoftSkipParity) {
  const std::vector<stats::VariationSource> sources(2);
  auto value_of = [](const Vector& w) { return 3.0 * w[0] - 0.5 * w[1]; };
  auto fails = [](const Vector& w) { return w[0] > 0.4; };

  const stats::PerformanceFn f = [&](const Vector& w) {
    if (fails(w)) {
      throw sim::SimulationError(sim::FailureKind::kNewtonNonConvergence,
                                 "synthetic divergence");
    }
    return value_of(w);
  };
  const stats::BatchPerformanceFn fb =
      [&](const std::vector<Vector>& w, std::size_t,
          std::vector<stats::BatchSlot>& out) {
        for (std::size_t b = 0; b < w.size(); ++b) {
          if (fails(w[b])) {
            out[b].failed = true;
            out[b].diag.kind = sim::FailureKind::kNewtonNonConvergence;
            out[b].diag.detail = "synthetic divergence";
          } else {
            out[b].value = value_of(w[b]);
          }
        }
      };

  stats::RunOptions opt;
  opt.samples = 37;
  opt.seed = 11;
  opt.exec.threads = 1;
  opt.exec.on_failure = stats::FailurePolicy::kSkip;

  opt.exec.batch = 1;
  const auto ref = stats::Runner(opt).run_monte_carlo(stats::per_sample(f),
                                                      sources);
  ASSERT_GT(ref.failures.failed(), 0u);
  ASSERT_GT(ref.failures.survived, 0u);

  opt.exec.batch = 8;
  const auto got = stats::Runner(opt).run_monte_carlo(fb, sources);
  EXPECT_EQ(got.values, ref.values);
  EXPECT_EQ(got.failures.attempted, ref.failures.attempted);
  EXPECT_EQ(got.failures.survived, ref.failures.survived);
  ASSERT_EQ(got.failures.failures.size(), ref.failures.failures.size());
  for (std::size_t i = 0; i < ref.failures.failures.size(); ++i) {
    EXPECT_EQ(got.failures.failures[i].index, ref.failures.failures[i].index);
    EXPECT_EQ(got.failures.failures[i].kind, ref.failures.failures[i].kind);
    EXPECT_EQ(got.failures.failures[i].detail,
              ref.failures.failures[i].detail);
  }

  // Under kAbort the first failed slot surfaces as the classified
  // exception, whichever function filled it.
  opt.exec.on_failure = stats::FailurePolicy::kAbort;
  EXPECT_THROW(stats::Runner(opt).run_monte_carlo(fb, sources),
               sim::SimulationError);
  EXPECT_THROW(stats::Runner(opt).run_monte_carlo(stats::per_sample(f),
                                                  sources),
               sim::SimulationError);
}

// The strided-batch numeric kernels must match their scalar counterparts
// bitwise, lane by lane, for the SoA layout soa[i * lanes + l].
TEST(BatchHotpath, NumericKernelsMatchScalarBitwise) {
  constexpr std::size_t kLanes = 8;
  constexpr std::size_t kRows = 3;
  constexpr std::size_t kCols = 4;
  std::uint64_t lcg = 0x243f6a8885a308d3ull;
  auto rnd = [&]() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(lcg >> 11) / 9.007199254740992e15 - 0.5;
  };

  // axpy_batch over a flat SoA block == scalar axpy on each lane slice.
  {
    std::vector<double> x(kCols * kLanes), y(kCols * kLanes);
    for (auto& v : x) v = rnd();
    for (auto& v : y) v = rnd();
    std::vector<double> y_ref = y;
    const double a = rnd();
    numeric::axpy_batch(a, x.data(), y.data(), x.size());
    for (std::size_t i = 0; i < y_ref.size(); ++i) y_ref[i] += a * x[i];
    EXPECT_EQ(y, y_ref);
  }

  // mul_into_batch with per-lane matrices == mul_into per lane, over the
  // leading lanes of wider rows (the step loop's running slots); the
  // slots past them stay untouched.
  for (const std::size_t lanes : {kLanes, kLanes - 3}) {
    std::vector<Matrix> mats(kLanes, Matrix(kRows, kCols));
    std::vector<const Matrix*> mp(kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) {
      for (std::size_t i = 0; i < kRows; ++i) {
        for (std::size_t j = 0; j < kCols; ++j) mats[l](i, j) = rnd();
      }
      mp[l] = &mats[l];
    }
    std::vector<double> x(kCols * kLanes), y(kRows * kLanes, -1.0);
    for (auto& v : x) v = rnd();
    numeric::mul_into_batch(mp.data(), kRows, kCols, x.data(), y.data(),
                            lanes, kLanes);
    Vector xl(kCols), yl(kRows);
    for (std::size_t l = 0; l < kLanes; ++l) {
      for (std::size_t j = 0; j < kCols; ++j) xl[j] = x[j * kLanes + l];
      numeric::mul_into(mats[l], xl, yl);
      for (std::size_t i = 0; i < kRows; ++i) {
        EXPECT_EQ(y[i * kLanes + l], l < lanes ? yl[i] : -1.0)
            << "lanes " << lanes << " lane " << l << " row " << i;
      }
    }
  }

  // solve_into_strided, in place on the strided lanes, writes the exact
  // solve_into solution.
  {
    Matrix a(kRows, kRows);
    for (std::size_t i = 0; i < kRows; ++i) {
      for (std::size_t j = 0; j < kRows; ++j) a(i, j) = rnd();
      a(i, i) += 4.0;  // keep it comfortably nonsingular
    }
    const numeric::LuFactorization lu(a);
    std::vector<double> b(kRows * kLanes), x(kRows * kLanes, 0.0);
    for (auto& v : b) v = rnd();
    Vector bl(kRows), xl(kRows);
    for (std::size_t l = 0; l < kLanes; ++l) {
      lu.solve_into_strided(&b[l], &x[l], kLanes);
      for (std::size_t i = 0; i < kRows; ++i) bl[i] = b[i * kLanes + l];
      lu.solve_into(bl, xl);
      for (std::size_t i = 0; i < kRows; ++i) {
        EXPECT_EQ(x[i * kLanes + l], xl[i]) << "lane " << l << " row " << i;
      }
    }
  }
}

// The path's importance-sampled yield runs its surrogate probes and both
// phases in blocks through the walk. A channel-length sigma of 10 makes
// samples of both phases fail on a non-positive effective length; under
// kSkip every output -- values, weights, the estimate and both failure
// summaries -- must be bitwise the same for every batch width and thread
// count.
TEST(BatchHotpath, YieldImportanceBatchAndThreadInvariant) {
  const auto nl = timing::generate_benchmark(timing::find_benchmark("s27"));
  const PathAnalyzer pa(PathSpec::from_benchmark(
      circuit::technology_180nm(), nl, timing::longest_path(nl), 10));
  PathVariationModel model = small_model();
  model.std_wire_h = 0.33;
  model.std_dl = 10.0;
  const auto ga = pa.gradient_analysis(model);
  const double t_clk =
      stats::gaussian_period_for_yield(ga.nominal_delay, ga.stddev, 0.9987);

  stats::RunOptions opt;
  opt.samples = 16;
  opt.seed = 2;
  opt.exec.on_failure = stats::FailurePolicy::kSkip;
  opt.importance.pilot_samples = 8;
  const auto same_failures = [](const stats::FailureSummary& a,
                                const stats::FailureSummary& b) {
    if (a.attempted != b.attempted || a.survived != b.survived ||
        a.counts != b.counts || a.failures.size() != b.failures.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.failures.size(); ++i) {
      if (a.failures[i].index != b.failures[i].index ||
          a.failures[i].kind != b.failures[i].kind ||
          a.failures[i].detail != b.failures[i].detail) {
        return false;
      }
    }
    return true;
  };

  opt.exec.batch = 1;
  opt.exec.threads = 1;
  const auto ref = pa.yield_importance(model, t_clk, opt);
  EXPECT_GT(ref.failures.failed(), 0u);
  EXPECT_GT(ref.pilot_failures.failed(), 0u);
  EXPECT_GT(ref.failures.survived, 0u);
  for (const std::size_t k : {std::size_t{1}, std::size_t{3},
                              std::size_t{8}}) {
    for (const std::size_t t : {std::size_t{1}, std::size_t{4}}) {
      opt.exec.batch = k;
      opt.exec.threads = t;
      const auto got = pa.yield_importance(model, t_clk, opt);
      const std::string at =
          "batch " + std::to_string(k) + " threads " + std::to_string(t);
      EXPECT_EQ(got.values, ref.values) << at;
      EXPECT_EQ(got.weights, ref.weights) << at;
      EXPECT_EQ(got.surrogate.shift, ref.surrogate.shift) << at;
      EXPECT_EQ(got.yield_loss, ref.yield_loss) << at;
      EXPECT_EQ(got.std_error, ref.std_error) << at;
      EXPECT_EQ(got.ess, ref.ess) << at;
      EXPECT_TRUE(same_failures(got.failures, ref.failures)) << at;
      EXPECT_TRUE(same_failures(got.pilot_failures, ref.pilot_failures))
          << at;
    }
  }
}

// An unset exec.batch means kDefaultBatch: 2K + 1 samples run as two
// blocks of K and one partial block of 1.
TEST(BatchHotpath, DefaultBatchResolution) {
  stats::RunOptions opt;
  opt.samples = 2 * stats::kDefaultBatch + 1;
  opt.exec.threads = 1;
  const std::vector<stats::VariationSource> sources(2);
  std::vector<std::size_t> widths;
  (void)stats::Runner(opt).run_monte_carlo(width_recorder(widths), sources);
  EXPECT_EQ(widths, (std::vector<std::size_t>{stats::kDefaultBatch,
                                              stats::kDefaultBatch, 1}));
}

}  // namespace
}  // namespace lcsf::core
