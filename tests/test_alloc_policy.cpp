// Allocation policy of the pooled hot path (docs/performance.md): once a
// workspace is warm, a transient allocates nothing per timestep, so its
// heap traffic is a constant per call whatever the transient length.
// This binary replaces the global operator new/delete to count the
// allocations inside a window, which pins the policy exactly and without
// timing noise: an allocation added to the step loop, or to any per-step
// path it calls, makes the longer transient allocate more. It also
// tracks the bytes held, which pins the peak of a stage-load
// characterization.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/path.hpp"
#include "mor/poleres.hpp"
#include "teta/stage.hpp"
#include "timing/cells.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};
// Bytes held by every block this binary allocated, always tracked, and
// their running maximum.
std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_peak_bytes{0};

void* counted_malloc(std::size_t n) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p != nullptr) {
    const std::size_t size = malloc_usable_size(p);
    const std::size_t live = g_live_bytes.fetch_add(size) + size;
    std::size_t peak = g_peak_bytes.load();
    while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
    }
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p != nullptr) g_live_bytes.fetch_sub(malloc_usable_size(p));
  std::free(p);
}

}  // namespace

// Every unaligned form is replaced, so whatever operator new a library
// calls, its block reaches the matching operator delete (sanitizers
// check the pairing). Out of line, so the compiler never pairs an
// inlined malloc/free with the new/delete expressions of the code under
// test.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
[[gnu::noinline]] void* operator new[](std::size_t n,
                                       const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { counted_free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { counted_free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  counted_free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  counted_free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  counted_free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace lcsf::core {
namespace {

using numeric::Vector;

/// Heap allocations made by `f()`.
template <typename F>
std::size_t allocations_of(F&& f) {
  g_allocations.store(0);
  g_counting.store(true);
  f();
  g_counting.store(false);
  return g_allocations.load();
}

/// Most bytes held at once while `f()` runs, above those held when it
/// started.
template <typename F>
std::size_t peak_bytes_of(F&& f) {
  const std::size_t before = g_live_bytes.load();
  g_peak_bytes.store(before);
  f();
  return g_peak_bytes.load() - before;
}

// The replaced operator new sees the heap allocations of the code under
// test (a vector that escapes the window cannot be elided).
TEST(AllocationPolicy, CounterSeesHeapAllocations) {
  std::vector<std::vector<double>> keep;
  EXPECT_EQ(allocations_of([&] {
              keep.reserve(2);
              keep.emplace_back(16);
              keep.emplace_back(16);
            }),
            3u);
}

// A stage-load characterization holds at most four dense matrices of the
// internal-block size at once: the internal G and C blocks, the Cholesky
// factor of G and the one matrix the symmetric eigensolver transforms in
// place. PACT consumes each pencil, freeing its full G and C as they are
// partitioned (three such matrices at most there), and only one pencil
// lives at a time.
TEST(AllocationPolicy, StageLoadCharacterizationHoldsFourDenseBlocks) {
  const circuit::Technology tech = circuit::technology_180nm();
  const timing::CellTemplate& inv = timing::find_cell("INV");
  const std::size_t segments = 169;  // 170 nodes, 2 ports, 168 internal
  const std::size_t block = 168 * 168 * sizeof(double);
  const std::size_t peak = peak_bytes_of([&] {
    (void)characterize_stage_load(inv, tech, segments,
                                  input_pin_cap(inv, tech), 6);
  });
  EXPECT_GT(peak, 4 * block);  // the counter sees the dense blocks
  EXPECT_LT(peak, 4 * block + block / 2);
}

// The input switches early but has a last breakpoint past both windows
// the tests compare, so no lane meets the settle stop and every run
// lasts its whole window: the two lengths really differ.
struct InvStage {
  circuit::Technology tech = circuit::technology_180nm();
  StageModel model;
  circuit::SourceWaveform input = circuit::SourceWaveform::pwl(
      {{0.2e-9, 0.0}, {0.3e-9, tech.vdd}, {3e-9, tech.vdd}});

  InvStage() {
    model.cell = &timing::find_cell("INV");
    model.receiver_cap = input_pin_cap(*model.cell, tech);
    model.load =
        characterize_stage_load(*model.cell, tech, 4, model.receiver_cap, 6);
  }
};

// One-lane instance: a warm pooled simulate_stage makes as many heap
// allocations at 1000 steps as at 2000, and as many again at 2000 steps
// after the shorter run (run lengths vary with the settle stop, so a
// shorter run must not give back the warm result storage). The workspace
// warms at the longer length first; a longer transient than the pooled
// one is a shape change, which may grow the result storage.
TEST(AllocationPolicy, WarmOneLaneTransientIsConstantPerCall) {
  const InvStage inv;
  teta::StageCircuit stage;
  const std::size_t out = stage.add_port();
  (void)stage.add_port();
  const std::size_t in = stage.add_input(inv.input);
  const std::size_t vdd = stage.add_rail(inv.tech.vdd);
  const std::size_t gnd = stage.add_rail(0.0);
  timing::instantiate_cell(*inv.model.cell, inv.tech, stage, out, in, vdd,
                           gnd, {});
  stage.freeze_device_capacitances();
  const mor::PoleResidueModel z = mor::stabilize(
      mor::extract_pole_residue(inv.model.load.evaluate(Vector{0.0, 0.0})));

  teta::TetaOptions opt;
  opt.dt = 1e-12;
  opt.vdd = inv.tech.vdd;
  teta::TetaWorkspace ws;
  teta::TetaResult res;
  const auto run = [&](double tstop) {
    opt.tstop = tstop;
    teta::simulate_stage(stage, z, opt, ws, res);
  };
  run(2e-9);
  ASSERT_TRUE(res.converged) << res.failure();
  const std::size_t longer = allocations_of([&] { run(2e-9); });
  ASSERT_TRUE(res.converged) << res.failure();
  EXPECT_EQ(res.time.size(), 2001u);
  const std::size_t shorter = allocations_of([&] { run(1e-9); });
  ASSERT_TRUE(res.converged) << res.failure();
  EXPECT_EQ(res.time.size(), 1001u);
  EXPECT_EQ(longer, shorter);
  EXPECT_EQ(allocations_of([&] { run(2e-9); }), longer);
  EXPECT_EQ(res.time.size(), 2001u);
}

// Runtime-width instance, through the whole per-sample pipeline: a warm
// K = 4 measure_stage_batch block (ROM evaluation, pole/residue
// extraction, stamping, the lockstep transient, measurement) makes as
// many heap allocations in a 2 ns window as in a 1 ns one, and in a 2 ns
// one again after it.
TEST(AllocationPolicy, WarmBlockIsConstantPerCall) {
  const InvStage inv;
  constexpr std::size_t kLanes = 4;
  std::vector<timing::DeviceVariation> devs(kLanes);
  std::vector<interconnect::WireVariation> wires(kLanes);
  std::vector<const circuit::SourceWaveform*> inputs(kLanes, &inv.input);
  const std::vector<double> shifts(kLanes, 0.0);
  std::vector<const timing::DeviceVariation*> devp;
  std::vector<const interconnect::WireVariation*> wirep;
  for (std::size_t l = 0; l < kLanes; ++l) {
    devs[l].delta_vt = 0.01 * static_cast<double>(l);
    wires[l].width = 0.1 * static_cast<double>(l) * inv.tech.wire_tol.width;
    devp.push_back(&devs[l]);
    wirep.push_back(&wires[l]);
  }
  StageSimOptions opt;
  opt.dt = 1e-12;
  BatchWorkspace bws;
  std::vector<StageMeasurement> meas;
  const auto run = [&](double window) {
    opt.stage_window = window;
    measure_stage_batch(inv.model, inv.tech, opt, 0, inputs, shifts, devp,
                        wirep, /*out_rising=*/false, nullptr, meas, bws);
  };
  // Every lane measured, in one window-scale-1 run of `steps` steps.
  const auto expect_lengths = [&](std::size_t steps) {
    ASSERT_EQ(meas.size(), kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) {
      ASSERT_FALSE(meas[l].failed) << meas[l].diag.message();
      EXPECT_EQ(bws.lane(l).teta_result.time.size(), steps + 1) << l;
    }
  };
  run(2e-9);
  const std::size_t longer = allocations_of([&] { run(2e-9); });
  expect_lengths(2000);
  const std::size_t shorter = allocations_of([&] { run(1e-9); });
  expect_lengths(1000);
  EXPECT_EQ(longer, shorter);
  EXPECT_EQ(allocations_of([&] { run(2e-9); }), longer);
  expect_lengths(2000);
}

}  // namespace
}  // namespace lcsf::core
