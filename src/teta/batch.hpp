// TETA's transient driver: the recovery ladder over a block of lanes,
// with lockstep SoA execution of same-shape lanes.
//
// A Monte-Carlo batch runs K samples of the *same stage topology* whose
// device parameters differ. Setup + DC run per lane
// (teta/stage_detail.hpp); the timestep loop then runs all lanes in
// lockstep with every per-step kernel (recursive-convolution history,
// state advance, RHS assembly, capacitor companions) expressed over
// lane-inner structure-of-arrays buffers, so the compiler vectorizes
// across samples (numeric/simd.hpp). simulate_stage is this driver's
// one-lane call.
//
// Contract: results are bitwise identical to running teta::simulate_stage
// on each lane separately. This holds because
//   * setup/DC and the timestep loop are the same code for one lane and
//     for a block; only the lane count differs;
//   * lanes are independent: every per-step kernel performs the same
//     double operations in the same order per lane whatever the width;
//   * a lane's settle stop reads only its own state, so it leaves the
//     block at the step a one-lane run would stop at, and the block runs
//     on without it;
//   * the dt-halving ladder is per lane: rung r runs every lane still
//     pending at the same halved dt and damping, grouped into same-shape
//     classes (in lockstep when a class holds two or more), so a lane
//     climbs exactly the rungs a one-lane call climbs, and its counters
//     and diagnostics are recorded when it leaves, as one lane's are.
#pragma once

#include <cstddef>
#include <vector>

#include "mor/poleres.hpp"
#include "teta/stage.hpp"

namespace lcsf::teta {

/// One sample of a lockstep block: caller-owned circuit, load, scratch and
/// result. Stages may differ in device parameters but must share topology
/// (node kinds, device terminals, capacitor endpoints, pole count) to run
/// in lockstep; lanes that do not run in their own same-shape class.
struct BatchLane {
  const StageCircuit* stage = nullptr;
  const mor::PoleResidueModel* load = nullptr;
  TetaWorkspace* ws = nullptr;
  TetaResult* out = nullptr;
};

/// Simulate every lane, in lockstep where possible (see file comment for
/// the bitwise contract). A port-count mismatch on any lane throws
/// sim::SimulationError (kInvalidInput) before anything runs; a lane with
/// an unstable load fails at once as kUnstableMacromodel. Every other
/// lane climbs the ladder of TetaOptions::recovery and leaves it
/// converged, on a singular system or with its retries spent; its `out`
/// carries the same result, diagnostics and iteration counts as a
/// one-lane simulate_stage call, and the teta.* counters sum those of
/// one-lane calls. `bws` is the block's SoA scratch (BatchTetaWorkspace
/// lives in teta/stage.hpp).
void simulate_stage_batch(const std::vector<BatchLane>& lanes,
                          const TetaOptions& opt, BatchTetaWorkspace& bws);

}  // namespace lcsf::teta
