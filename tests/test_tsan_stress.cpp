// Dedicated race-detection workload for LCSF_SANITIZE=thread builds.
//
// The ordinary suite exercises the parallel engine, but each test uses
// one pool at a time with mostly-idle workers; data races with narrow
// windows (pool teardown vs. late grabs, concurrent pools sharing
// process-wide state, exception propagation racing result writes) need
// a workload designed to collide. This file hammers runtime::ThreadPool
// and the parallel statistical drivers from many directions at once so
// `tools/sanitize.sh thread` has real interleavings to inspect. The
// assertions double as determinism checks: whatever the interleaving,
// the numbers must be bitwise identical to the serial run.
//
// lcsf-lint: allow(thread-outside-pool) -- the point of this stress
// test is to drive *several* pools and drivers concurrently, which by
// construction needs raw threads above the pool layer; production code
// must still route all parallelism through runtime::ThreadPool.
#include <atomic>
#include <cmath>
#include <cstddef>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/thread_pool.hpp"
#include "sim/diagnostics.hpp"
#include "stats/analysis.hpp"
#include "stats/random.hpp"
#include "stats/runner.hpp"

namespace lcsf {
namespace {

TEST(TsanStress, RepeatedParallelForBursts) {
  // Many short parallel_for_lanes rounds maximize startup/teardown races
  // between the cursor, the batch state and the worker wakeups.
  runtime::ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for_lanes(
        257,
        [&](std::size_t b, std::size_t e, std::size_t) {
          std::uint64_t local = 0;
          for (std::size_t i = b; i < e; ++i) local += i;
          sum.fetch_add(local, std::memory_order_relaxed);
        },
        /*grain=*/8);
  }
  EXPECT_EQ(sum.load(), 200ull * (257ull * 256ull / 2ull));
}

TEST(TsanStress, ConcurrentPoolsDoNotShareMutableState) {
  // Two pools driven from two raw threads: collides worker startup,
  // the pools' internal state and default_threads() resolution.
  auto hammer = [](std::uint64_t* out) {
    runtime::ThreadPool pool(3);
    std::atomic<std::uint64_t> acc{0};
    for (int round = 0; round < 50; ++round) {
      pool.parallel_for_lanes(
          1000, [&](std::size_t b, std::size_t e, std::size_t) {
            std::uint64_t local = 0;
            for (std::size_t i = b; i < e; ++i) {
              local += stats::mix64(i + 1);
            }
            acc.fetch_add(local, std::memory_order_relaxed);
          });
    }
    *out = acc.load();
  };
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::thread ta(hammer, &a);
  std::thread tb(hammer, &b);
  ta.join();
  tb.join();
  EXPECT_EQ(a, b);  // identical deterministic workloads
  EXPECT_NE(a, 0u);
}

TEST(TsanStress, PoolOutlivesManyConstructionCycles) {
  // Construction/destruction churn: a worker still parked in its wait
  // loop while the pool dies is the classic teardown race.
  for (int cycle = 0; cycle < 100; ++cycle) {
    runtime::ThreadPool pool(4);
    std::atomic<int> hits{0};
    pool.parallel_for_lanes(
        16, [&](std::size_t b, std::size_t e, std::size_t) {
          hits.fetch_add(static_cast<int>(e - b), std::memory_order_relaxed);
        });
    ASSERT_EQ(hits.load(), 16);
  }
}

TEST(TsanStress, ParallelMonteCarloMatchesSerialBitwise) {
  // The determinism contract under maximum thread pressure: per-sample
  // counter-based streams must make the parallel run bitwise equal to
  // the serial one even while TSan perturbs every interleaving.
  const std::vector<stats::VariationSource> sources(
      3, stats::VariationSource{});
  const auto metric = stats::per_sample([](const numeric::Vector& w) {
    double acc = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) {
      acc += std::sin(w[i]) * static_cast<double>(i + 1);
    }
    return acc;
  });
  stats::RunOptions serial;
  serial.samples = 500;
  serial.seed = 11;
  serial.exec.threads = 1;
  const auto base = stats::Runner(serial).run_monte_carlo(metric, sources);

  stats::RunOptions par = serial;
  par.exec.threads = 8;
  for (int round = 0; round < 5; ++round) {
    const auto got = stats::Runner(par).run_monte_carlo(metric, sources);
    ASSERT_EQ(got.values, base.values);
    ASSERT_EQ(got.stats.mean(), base.stats.mean());
  }
}

TEST(TsanStress, FailSoftSkipUnderContention) {
  // Concurrent failure recording: ~half the samples throw classified
  // errors from worker threads while survivors write values; the
  // failure summary is assembled serially and must be thread-count
  // invariant.
  const std::vector<stats::VariationSource> sources(
      2, stats::VariationSource{});
  const auto flaky = stats::per_sample([](const numeric::Vector& w) {
    if (w[0] > 0.0) {
      throw sim::SimulationError(sim::FailureKind::kBlowUp, "stress");
    }
    return w[1];
  });
  stats::RunOptions serial;
  serial.samples = 400;
  serial.seed = 5;
  serial.exec.threads = 1;
  serial.exec.on_failure = stats::FailurePolicy::kSkip;
  const auto base = stats::Runner(serial).run_monte_carlo(flaky, sources);
  ASSERT_GT(base.failures.failed(), 0u);

  stats::RunOptions par = serial;
  par.exec.threads = 8;
  const auto got = stats::Runner(par).run_monte_carlo(flaky, sources);
  EXPECT_EQ(got.values, base.values);
  EXPECT_EQ(got.failures.attempted, base.failures.attempted);
  EXPECT_EQ(got.failures.survived, base.failures.survived);
  EXPECT_EQ(got.failures.counts, base.failures.counts);
}

TEST(TsanStress, GradientAnalysisParallelProbes) {
  const std::vector<stats::VariationSource> sources(
      6, stats::VariationSource{});
  const auto metric = stats::per_sample([](const numeric::Vector& w) {
    double acc = 1.0;
    for (std::size_t i = 0; i < w.size(); ++i) acc += w[i] * w[i];
    return acc;
  });
  stats::RunOptions serial;
  serial.exec.threads = 1;
  const auto base = stats::Runner(serial).run_gradients(metric, sources);

  stats::RunOptions par;
  par.exec.threads = 8;
  for (int round = 0; round < 10; ++round) {
    const auto got = stats::Runner(par).run_gradients(metric, sources);
    ASSERT_EQ(got.gradient, base.gradient);
    ASSERT_EQ(got.stddev, base.stddev);
  }
}

}  // namespace
}  // namespace lcsf
