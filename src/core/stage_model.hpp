// One characterized logic stage, the variation model, and the pooled
// per-sample engine scratch shared by the single-path (PathAnalyzer) and
// multi-path (GraphAnalyzer) analyzers.
//
// A stage is a driver cell plus its variational effective load: the RC
// wire (segmented per micron), the receiver pin capacitance, and the
// driver's chord conductances folded in (paper Table 1), reduced with
// PACT over the global wire parameters (W, H). Characterization happens
// once per distinct (cell, load) "block"; per-sample evaluation is a TETA
// transient run by one engine, measure_stage_batch, on blocks of lanes --
// a single sample is a block of one.
//
// The variation model (Sec. 4: per-stage dL and V_T plus the global wire
// W and H, in 3-sigma units) lives here too: this module alone decides
// the source layout and the normalized <-> physical scaling, and runs
// the finite-difference stage probe behind both Gradient Analysis and
// the graph's block delay models.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "circuit/source_waveform.hpp"
#include "circuit/technology.hpp"
#include "interconnect/sakurai.hpp"
#include "mor/poleres.hpp"
#include "mor/variational.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/diagnostics.hpp"
#include "stats/analysis.hpp"
#include "teta/batch.hpp"
#include "teta/stage.hpp"
#include "timing/cells.hpp"
#include "timing/waveform.hpp"

namespace lcsf::core {

/// Which variation sources a statistical analysis sweeps, in normalized
/// units (w = 1 means "at the 3-sigma tolerance" of the technology card).
struct PathVariationModel {
  double std_dl = 0.0;  ///< per-stage channel-length reduction (Table 5 DL)
  double std_vt = 0.0;  ///< per-stage threshold shift (Table 5 VT)
  double std_wire_w = 0.0;  ///< global wire width
  double std_wire_h = 0.0;  ///< global ILD thickness

  std::size_t sources_per_stage() const {
    return (std_dl > 0.0 ? 1 : 0) + (std_vt > 0.0 ? 1 : 0);
  }
  std::size_t global_sources() const {
    return (std_wire_w > 0.0 ? 1 : 0) + (std_wire_h > 0.0 ? 1 : 0);
  }
  /// The normalized sources of a `stages`-stage design, in the layout of
  /// sample_from_sources: [dl_0, vt_0, dl_1, vt_1, ..., wire_w, wire_h],
  /// entries present per the model.
  std::vector<stats::VariationSource> sources(std::size_t stages) const;
};

/// One parameter sample: per-stage device fluctuations plus global wire
/// variation.
struct PathSample {
  std::vector<timing::DeviceVariation> device;  ///< one per stage
  interconnect::WireVariation wire;
};

/// Map a normalized source vector `w` (layout of
/// PathVariationModel::sources(stages)) to a physical sample of `stages`
/// stages in the units of `tech`. Throws std::invalid_argument on a
/// wrong-sized `w`.
PathSample sample_from_sources(const PathVariationModel& model,
                               const circuit::Technology& tech,
                               std::size_t stages, const numeric::Vector& w);

/// A stage output carried between gates: ramp parameters plus the
/// propagated waveform (adaptively compressed PWL) in absolute time.
struct StageWaveform {
  timing::RampParams params;
  circuit::SourceWaveform wave;
};

/// Memo key of the graph engine's per-sample stage cache: (gate id,
/// quantized input-ramp M bucket, quantized S bucket, rising).
using StageCacheKey =
    std::tuple<std::size_t, std::int64_t, std::int64_t, bool>;

struct BatchWorkspace;

/// Reusable per-worker scratch covering the whole per-sample pipeline
/// (ROM evaluation -> pole/residue extraction -> TETA transient). One
/// workspace per Monte-Carlo lane makes repeated per-sample evaluations
/// allocation-free after the first sample; see docs/performance.md.
struct SampleWorkspace {
  SampleWorkspace();
  ~SampleWorkspace();
  SampleWorkspace(const SampleWorkspace&) = delete;
  SampleWorkspace& operator=(const SampleWorkspace&) = delete;

  /// The one-lane BatchWorkspace whose slot 0 is this workspace (created
  /// on first use): one-sample calls into the block engine run through
  /// it, so they reuse this scratch and the block staging alike.
  BatchWorkspace& batch();

  mor::ReducedModel rom;
  mor::PoleResidueWorkspace poleres;
  teta::TetaWorkspace teta;
  /// Reused TETA result: the waveform storage (time axis + per-step port
  /// vectors) is recycled across samples.
  teta::TetaResult teta_result;

  /// Per-sample state of the multi-path graph engine (GraphAnalyzer),
  /// pooled here alongside the engine scratch: memoized stage outputs
  /// keyed by (gate id, input-ramp bucket) -- so stages shared between
  /// paths simulate once per sample -- and the per-net arrival front (the
  /// statistical-max winner seen so far at each net). Cleared at the
  /// start of every sample.
  std::map<StageCacheKey, StageWaveform> stage_cache;
  std::map<std::size_t, StageWaveform> net_arrival;

 private:
  std::unique_ptr<BatchWorkspace> batch_;
};

/// One characterized stage: driver cell + variational effective load.
struct StageModel {
  const timing::CellTemplate* cell = nullptr;
  /// Variational ROM of the effective load (wire + receiver gate cap +
  /// driver chords), over the global wire parameters (W, H).
  mor::VariationalRom load;
  double receiver_cap = 0.0;

  /// Resident heap footprint of the characterized load (cache accounting).
  std::size_t memory_bytes() const {
    return sizeof(*this) + load.memory_bytes();
  }
};

/// Engine knobs shared by every stage simulation of one analyzer.
struct StageSimOptions {
  double dt = 2e-12;             ///< TETA timestep [s]
  double stage_window = 2.0e-9;  ///< simulated window per stage [s]
  sim::RecoveryOptions recovery;
};

/// The stage-level design knobs PathSpec and GraphSpec share.
struct StageSpec {
  circuit::Technology tech;
  /// Target "number of linear circuit elements between stages" (the
  /// Table 4 knob); converted to a wire length at 1 um RC segmentation.
  std::size_t linear_elements_per_stage = 10;
  /// Input stimulus: of the first stage (path), of every path start net
  /// (graph).
  timing::RampParams input{0.2e-9, 0.1e-9, true};
  double dt = 2e-12;              ///< timestep for both engines
  double stage_window = 2.0e-9;   ///< simulated window per stage [s]
  std::size_t rom_internal_modes = 6;  ///< PACT order per stage load
  /// Bounded per-step (SPICE) / per-run (TETA) dt-halving retry budget,
  /// forwarded to both engines. Defaults to no retries; statistical
  /// drivers typically enable it together with
  /// stats::FailurePolicy::kSkip (see docs/robustness.md).
  sim::RecoveryOptions recovery;

  /// RC segments of each stage wire: linear elements ~ segments (R) +
  /// segments + 1 (C) + receiver.
  std::size_t wire_segments() const {
    return std::max<std::size_t>(
        1, linear_elements_per_stage > 2 ? (linear_elements_per_stage - 2) / 2
                                         : 1);
  }
  /// The engine knobs forwarded to the stage engine.
  StageSimOptions sim_options() const { return {dt, stage_window, recovery}; }
};

/// Gate capacitance presented by a cell's switching input pin (input 0),
/// with a Miller factor on the gate-drain overlap.
double input_pin_cap(const timing::CellTemplate& cell,
                     const circuit::Technology& tech);

/// Variational ROM of a stage's effective load: `segments` 1-um RC wire
/// segments loaded by `receiver_cap` at the far end, with the driver
/// cell's chord conductance folded into the near port. Both terminations
/// are port entries, so loads on the same wire share PACT eigensolves
/// through an optional `memo` (bitwise the same ROM with or without).
mor::VariationalRom characterize_stage_load(const timing::CellTemplate& cell,
                                            const circuit::Technology& tech,
                                            std::size_t segments,
                                            double receiver_cap,
                                            std::size_t rom_internal_modes,
                                            mor::PactMemo* memo = nullptr);

/// Shift a sampled waveform in time.
timing::Samples shifted_samples(const timing::Samples& w, double dt0);

/// Per-lane outcome of measure_stage_batch. On failure `diag` carries the
/// classified diagnostics measure_stage_with_retry throws as
/// sim::SimulationError (same kind, same message).
struct StageMeasurement {
  timing::RampParams params;
  bool failed = false;
  sim::SimDiagnostics diag;
};

/// Reusable scratch of the block engine: one SampleWorkspace per block
/// slot (created on first touch, so the block width can grow; slot 0 may
/// be borrowed, see SampleWorkspace::batch), the TETA lockstep SoA
/// buffers, and the staging of measure_stage_batch, propagate_stage_batch
/// and PathAnalyzer's chain. One BatchWorkspace per Monte-Carlo lane; see
/// LanePool and docs/performance.md.
struct BatchWorkspace {
  /// Ensure slot `k` exists and return its scalar workspace.
  SampleWorkspace& lane(std::size_t k);

  std::vector<std::unique_ptr<SampleWorkspace>> lanes;
  SampleWorkspace* slot0 = nullptr;  ///< borrowed slot 0, if any
  teta::BatchTetaWorkspace teta;

  // measure_stage_batch staging (opaque engine internals).
  std::vector<numeric::Vector> w;         ///< normalized wire sample per lane
  std::vector<mor::PoleResidueModel> z;   ///< stabilized load per lane
  std::vector<teta::StageCircuit> stages; ///< per-lane stage circuit
  std::vector<unsigned char> fallback;    ///< lanes pending a wider window
  std::vector<const numeric::Vector*> wptr;
  std::vector<mor::ReducedModel*> romptr;
  std::vector<teta::BatchLane> teta_lanes;
  std::vector<std::size_t> slot;          ///< lane index per TETA batch slot

  // propagate_stage_batch staging, and outputs of one-lane calls.
  std::vector<circuit::SourceWaveform> local;  ///< shifted inputs
  std::vector<const circuit::SourceWaveform*> inputs;
  std::vector<double> shifts;
  std::vector<timing::Samples> souts;     ///< raw outputs, absolute time
  std::vector<StageMeasurement> meas;
  std::vector<StageWaveform> next;        ///< propagated outputs

  // Chain staging: the arrival front of the live lanes and their samples.
  std::vector<StageWaveform> front;
  std::vector<std::size_t> live;
  std::vector<const timing::DeviceVariation*> devs;
  std::vector<const interconnect::WireVariation*> wires;
};

/// The stage engine: measure one characterized stage at `inputs.size()`
/// parameter samples (per-lane input waveform in local time, arrival
/// shift, device and wire variation; `shifts`, `devs`, `wires` must match
/// `inputs` in size) and extract each lane's output ramp, `shift` added
/// back to the arrival. The stage window is a heuristic: the block runs
/// at window scale 1 through the lockstep TETA engine, and lanes whose
/// transient does not converge or whose output transition does not
/// complete rerun as a narrower block at scale 2, then 4 -- no lane
/// repeats a rung it already failed. A lane that exhausts the ladder, or
/// whose load fails pole/residue extraction, reports failed=true in `out`
/// with the last attempt's classified diagnostics, prefixed "stage
/// <label> did not complete: ", instead of throwing, so one diverging
/// sample never perturbs its block neighbours (the
/// stats::BatchPerformanceFn fail-soft contract): a lane measures bitwise
/// the same alone or in any block. When `out_samples` is non-null it is
/// resized to the lane count and each successful lane's raw output
/// samples are stored shifted to absolute time.
void measure_stage_batch(
    const StageModel& st, const circuit::Technology& tech,
    const StageSimOptions& opt, std::size_t label,
    std::span<const circuit::SourceWaveform* const> inputs,
    std::span<const double> shifts,
    std::span<const timing::DeviceVariation* const> devs,
    std::span<const interconnect::WireVariation* const> wires,
    bool out_rising, std::vector<timing::Samples>* out_samples,
    std::vector<StageMeasurement>& out, BatchWorkspace& bws);

/// measure_stage_batch on a one-lane block through `ws` (optional; a
/// scratch workspace when null): returns the output ramp, or throws the
/// lane's classified failure as sim::SimulationError. When `out_samples`
/// is non-null it receives the raw output samples in absolute time.
timing::RampParams measure_stage_with_retry(
    const StageModel& st, const circuit::Technology& tech,
    const StageSimOptions& opt, std::size_t label,
    const circuit::SourceWaveform& input, double shift,
    const timing::DeviceVariation& dev,
    const interconnect::WireVariation& wire, bool out_rising,
    timing::Samples* out_samples, SampleWorkspace* ws);

/// One step of the waveform propagation (paper Sec. 4.3.1) over a block:
/// lane l's arrival `in[l]` (absolute time) is shifted so its transition
/// sits at 1/4 of the stage window, measured by measure_stage_batch, and
/// on success its output PWL, adaptively compressed (tolerance 1e-4 vdd),
/// is stored with the measured ramp in `out[l]`. All lanes switch in the
/// direction of in[0]. `out` and `meas` are resized to the lane count; a
/// failed lane's `out` entry is unspecified.
void propagate_stage_batch(
    const StageModel& st, const circuit::Technology& tech,
    const StageSimOptions& opt, std::size_t label,
    std::span<const StageWaveform> in,
    std::span<const timing::DeviceVariation* const> devs,
    std::span<const interconnect::WireVariation* const> wires,
    std::vector<StageWaveform>& out, std::vector<StageMeasurement>& meas,
    BatchWorkspace& bws);

/// A stage's 50% delay D and output slew F (the saturated-ramp transfer
/// of paper Eq. 30), or a derivative of both.
struct DelaySlew {
  double delay = 0.0;
  double slew = 0.0;
};

/// One probe of the stage transfer: the stage driven by a saturated ramp
/// of slew `s_in` (direction `rising_in`) whose 50% point sits at 1/4 of
/// the stage window, at device variation `dev` and wire variation
/// `wire`. measure_stage_with_retry on `ws` (optional); throws the
/// classified failure.
DelaySlew stage_delay_slew(const StageModel& st,
                           const circuit::Technology& tech,
                           const StageSimOptions& opt, std::size_t label,
                           double s_in, bool rising_in,
                           const timing::DeviceVariation& dev,
                           const interconnect::WireVariation& wire,
                           SampleWorkspace* ws);

/// Central-difference sensitivities of a stage's (D, F) about a nominal
/// ramp of slew `s_in`: to the input slew (step 0.1 * max(s_in, 10 dt))
/// and to each source kind the model enables (step 0.2 normalized units,
/// mapped to physical units by sample_from_sources). Disabled kinds stay
/// zero.
struct StageSensitivity {
  DelaySlew d_slew;    ///< per second of input slew
  DelaySlew d_dl;      ///< per normalized channel-length unit
  DelaySlew d_vt;      ///< per normalized threshold unit
  DelaySlew d_wire_w;  ///< per normalized wire-width unit
  DelaySlew d_wire_h;  ///< per normalized ILD-thickness unit
  std::size_t simulations = 0;  ///< stage_delay_slew probes run
};
StageSensitivity stage_sensitivity(const StageModel& st,
                                   const circuit::Technology& tech,
                                   const StageSimOptions& opt,
                                   std::size_t label, double s_in,
                                   bool rising_in,
                                   const PathVariationModel& model,
                                   SampleWorkspace* ws);

/// Per-lane workspace pool for the laned statistical drivers: one W
/// (SampleWorkspace or BatchWorkspace) per thread lane, created on first
/// touch. A lane is only ever used by one thread at a time
/// (runtime::ThreadPool contract), so no locking is needed.
template <class W>
class LanePool {
 public:
  explicit LanePool(std::size_t threads)
      : lanes_(std::max<std::size_t>(
            1, threads == 0 ? runtime::ThreadPool::default_threads()
                            : threads)) {}
  W& lane(std::size_t k) {
    if (!lanes_[k]) lanes_[k] = std::make_unique<W>();
    return *lanes_[k];
  }

 private:
  std::vector<std::unique_ptr<W>> lanes_;
};

}  // namespace lcsf::core
