// Portable vectorization hint for the strided-batch (SoA) kernels.
//
// The batched Monte-Carlo hot path stores K samples lane-inner
// (x[i * lanes + l]), so its innermost loops run over independent lanes
// with unit stride -- exactly the shape compilers auto-vectorize. The
// LCSF_SIMD_LOOP macro annotates those loops: on GCC it expands to
// `#pragma GCC ivdep` (assert no loop-carried dependence; the cost model
// still decides), elsewhere to nothing.
//
// No intrinsics anywhere: correctness never depends on the hint, and the
// per-lane IEEE operation sequence is identical either way (the build does
// not enable FMA contraction), so a lane of a block stays bitwise equal to
// a one-lane run. See docs/performance.md.
#pragma once

#if defined(__GNUC__) && !defined(__clang__)
#define LCSF_SIMD_LOOP _Pragma("GCC ivdep")
#else
#define LCSF_SIMD_LOOP
#endif
