// Tests for the parallel-execution substrate: coverage of the index
// range, exception propagation, nested calls, and the thread-count
// resolution knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "stats/descriptive.hpp"

namespace lcsf::runtime {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}, std::size_t{7}}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for_lanes(
        n, [&](std::size_t begin, std::size_t end, std::size_t lane) {
          EXPECT_LT(lane, threads);
          for (std::size_t k = begin; k < end; ++k) hits[k].fetch_add(1);
        });
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(hits[k].load(), 1) << "index " << k << " with " << threads
                                   << " threads";
    }
  }
}

TEST(ThreadPool, ChunkGrainRespected) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for_lanes(
      100,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        std::lock_guard<std::mutex> lock(mu);
        chunks.emplace_back(begin, end);
      },
      /*grain=*/7);
  std::size_t covered = 0;
  for (const auto& [b, e] : chunks) {
    EXPECT_LE(e - b, 7u);
    covered += e - b;
  }
  EXPECT_EQ(covered, 100u);
}

TEST(ThreadPool, EmptyAndSingletonRanges) {
  ThreadPool pool(3);
  bool called = false;
  pool.parallel_for_lanes(
      0, [&](std::size_t, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
  std::size_t count = 0;
  pool.parallel_for_lanes(
      1, [&](std::size_t begin, std::size_t end, std::size_t lane) {
        EXPECT_EQ(lane, 0u);
        count += end - begin;
      });
  EXPECT_EQ(count, 1u);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_lanes(
                   256,
                   [&](std::size_t begin, std::size_t, std::size_t) {
                     if (begin >= 128) {
                       throw std::runtime_error("sample failed");
                     }
                   }),
               std::runtime_error);

  // The pool survives a failed batch and runs the next one fully.
  std::atomic<std::size_t> done{0};
  pool.parallel_for_lanes(
      64, [&](std::size_t begin, std::size_t end, std::size_t) {
        done.fetch_add(end - begin);
      });
  EXPECT_EQ(done.load(), 64u);
}

TEST(ThreadPool, ExceptionAbandonsRemainingChunks) {
  ThreadPool pool(2);
  std::atomic<std::size_t> executed{0};
  try {
    pool.parallel_for_lanes(
        10000,
        [&](std::size_t begin, std::size_t end, std::size_t) {
          executed.fetch_add(end - begin);
          if (begin == 0) throw std::logic_error("early");
        },
        /*grain=*/1);
    FAIL() << "expected throw";
  } catch (const std::logic_error&) {
  }
  // Unclaimed work after the failure is skipped (not all 10000 ran).
  EXPECT_LT(executed.load(), 10000u);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64 * 8);
  pool.parallel_for_lanes(
      64, [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t outer = begin; outer < end; ++outer) {
          // Nested call on the same pool: must complete inline, no deadlock.
          pool.parallel_for_lanes(
              8, [&](std::size_t b2, std::size_t e2, std::size_t lane) {
                EXPECT_EQ(lane, 0u);
                for (std::size_t inner = b2; inner < e2; ++inner) {
                  hits[outer * 8 + inner].fetch_add(1);
                }
              });
        }
      });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Set on the thread that calls the pool in
// NestedCallFromTheCallersLaneRunsInline.
thread_local bool t_is_caller = false;

TEST(ThreadPool, NestedCallFromTheCallersLaneRunsInline) {
  // The calling thread runs lane 0 of the outer loop. The worker lanes'
  // indices wait for lane 0 to start one, so the caller claims an index;
  // its body then waits for the other seven to finish, so the workers sit
  // idle when it nests. Every nested chunk must still run inline on the
  // caller. Each wait polls every 1 ms for at most 1 s.
  ThreadPool pool(4);
  t_is_caller = true;
  std::atomic<bool> caller_started{false};
  std::atomic<std::size_t> outer_done{0};
  const auto wait_for = [](const auto& ready) {
    for (int poll = 0; poll < 1000 && !ready(); ++poll) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  std::mutex mu;
  std::vector<std::pair<std::size_t, bool>> nested;
  pool.parallel_for_lanes(
      8,
      [&](std::size_t begin, std::size_t end, std::size_t lane) {
        for (std::size_t k = begin; k < end; ++k) {
          if (lane != 0) {
            wait_for([&] { return caller_started.load(); });
          } else {
            caller_started.store(true);
            wait_for([&] { return outer_done.load() >= 7; });
            pool.parallel_for_lanes(
                16,
                [&](std::size_t b2, std::size_t e2, std::size_t inner_lane) {
                  for (std::size_t c = b2; c < e2; ++c) {
                    std::this_thread::sleep_for(std::chrono::microseconds(200));
                    std::lock_guard<std::mutex> lock(mu);
                    nested.emplace_back(inner_lane, t_is_caller);
                  }
                },
                1);
          }
          outer_done.fetch_add(1);
        }
      },
      1);
  t_is_caller = false;
  EXPECT_EQ(outer_done.load(), 8u);
  ASSERT_FALSE(nested.empty());
  EXPECT_EQ(nested.size() % 16, 0u);
  for (const auto& [lane, on_caller] : nested) {
    EXPECT_EQ(lane, 0u);
    EXPECT_TRUE(on_caller);
  }
}

TEST(ThreadPool, FreeFunctionSerialAndParallelAgree) {
  // Sum of f(k) accumulated per index slot: independent of threading.
  const std::size_t n = 512;
  auto run = [&](std::size_t threads) {
    std::vector<double> out(n);
    parallel_for_lanes(
        threads, n, [&](std::size_t begin, std::size_t end, std::size_t) {
          for (std::size_t k = begin; k < end; ++k) {
            out[k] = static_cast<double>(k * k % 97);
          }
        });
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ThreadPool, DefaultThreadsOverride) {
  EXPECT_GE(ThreadPool::default_threads(), 1u);
}

TEST(OnlineStatsMerge, MatchesChunkedDecomposition) {
  std::vector<double> data(1000);
  for (std::size_t k = 0; k < data.size(); ++k) {
    data[k] = std::sin(static_cast<double>(k)) * 3.0 + 1.0;
  }
  stats::OnlineStats whole;
  for (double x : data) whole.add(x);

  stats::OnlineStats merged;
  for (std::size_t begin = 0; begin < data.size(); begin += 137) {
    stats::OnlineStats chunk;
    const std::size_t end = std::min(data.size(), begin + 137);
    for (std::size_t k = begin; k < end; ++k) chunk.add(data[k]);
    merged.merge(chunk);
  }
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(merged.stddev(), whole.stddev(), 1e-12);
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
}

TEST(OnlineStatsMerge, EmptySidesAreIdentity) {
  stats::OnlineStats a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  b.add(2.0);
  b.add(4.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  stats::OnlineStats c;
  b.merge(c);  // merging empty into non-empty is a no-op
  EXPECT_EQ(b.count(), 2u);
}

}  // namespace
}  // namespace lcsf::runtime
