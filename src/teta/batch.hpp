// Lockstep SoA execution of a block of TETA transients.
//
// A Monte-Carlo batch runs K samples of the *same stage topology* whose
// device parameters differ. Setup + DC run per lane
// (teta/stage_detail.hpp); the timestep loop then runs all lanes in
// lockstep with every per-step kernel (recursive-convolution history,
// state advance, RHS assembly, capacitor companions) expressed over
// lane-inner structure-of-arrays buffers, so the compiler vectorizes
// across samples (numeric/simd.hpp). That loop is the engine's only one:
// simulate_stage runs its one-lane instance.
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
//   * any lane that cannot stay in lockstep (shape mismatch, setup or
//     convergence failure, blow-up) is rerun from scratch by
//     simulate_stage, whose first attempt repeats the failed lockstep
//     attempt bitwise and then continues with the usual retry ladder.
#pragma once

#include <cstddef>
#include <vector>

#include "mor/poleres.hpp"
#include "teta/stage.hpp"

namespace lcsf::teta {

/// One sample of a lockstep block: caller-owned circuit, load, scratch and
/// result. Stages may differ in device parameters but must share topology
/// (node kinds, device terminals, capacitor endpoints, pole count) to run
/// in lockstep; lanes that do not are run one lane at a time.
struct BatchLane {
  const StageCircuit* stage = nullptr;
  const mor::PoleResidueModel* load = nullptr;
  TetaWorkspace* ws = nullptr;
  TetaResult* out = nullptr;
};

/// Simulate every lane, in lockstep where possible (see file comment for
/// the bitwise contract). Each lane's `out` carries the same result,
/// diagnostics and iteration counts as a one-lane simulate_stage call;
/// invalid inputs (port-count mismatch) throw exactly as simulate_stage
/// does. `bws` is the block's SoA scratch (BatchTetaWorkspace lives in
/// teta/stage.hpp).
void simulate_stage_batch(const std::vector<BatchLane>& lanes,
                          const TetaOptions& opt, BatchTetaWorkspace& bws);

}  // namespace lcsf::teta
