// Internal seam between the TETA recovery ladder (simulate_stage_batch in
// batch.cpp) and the two phases of one transient attempt:
//   1. setup + DC: build the unknown map, stamp the constant SC system,
//      factorize it, find the DC operating point with damped Newton, and
//      initialize the convolver history and capacitor states;
//   2. the timestep loop, step_loop<kLanes>.
// Phase 1 runs per lane. Phase 2 marches the lanes of one stage shape
// through the same per-step kernels over lane-inner SoA buffers. It has
// two instances: kLanes = 1 for a class of one lane, and kLanes = 0
// (width read at run time) for a lockstep block. A compile-time width
// folds the lane strides and one-trip lane loops away. The loop lives in
// batch.cpp, whose translation unit gets the dynamic vectorizer cost
// model.
//
// This header is engine-internal: only stage.cpp and batch.cpp include it.
#pragma once

#include <cstddef>
#include <span>

#include "teta/batch.hpp"
#include "teta/stage.hpp"

namespace lcsf::teta::detail {

/// Setup + DC phase of one transient attempt (see file comment). Resets
/// `res` but for total_sc_iterations, which counts on across the ladder's
/// attempts, and fills `ws` (unknown map, chords, chord_known, caps,
/// factored lu_tr, y_h/y_dc, DC solution in ws.x, initialized convolver).
/// Returns false with res.diag classified when the attempt cannot proceed
/// (singular system, DC Newton failure).
bool setup_and_dc(const StageCircuit& stage,
                  const mor::PoleResidueModel& load, const TetaOptions& opt,
                  TetaWorkspace& ws, TetaResult& res);

/// Timestep phase for lanes[live[0]], lanes[live[1]], ...: one stage
/// shape, each lane set up by setup_and_dc under `opt`. The width is
/// kLanes, or live.size() when kLanes is 0. Each step starts its chord
/// iteration from the predicted 3 x[n] - 3 x[n-1] + x[n-2] (2 x[n] - x[n-1]
/// on step 2) and mixes its chord updates by Anderson(1); a lane runs
/// until it fails, settles (see the settle stop in batch.cpp) or reaches
/// tstop.
/// Lanes that leave move to the back of the block, so the loop permutes
/// `live` with its slots: on return slot b holds lane live[b], and
/// bws.alive[b] says whether it converged (out->converged set). A lane
/// that failed carries the classified diagnostics of its failure (SC
/// iteration limit or blow-up). Counters are the caller's.
template <std::size_t kLanes>
void step_loop(const BatchLane* lanes, std::span<std::size_t> live,
               const TetaOptions& opt, BatchTetaWorkspace& bws);

}  // namespace lcsf::teta::detail
