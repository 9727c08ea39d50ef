// Shared parallel-execution substrate for the statistical drivers.
//
// The paper's framework makes per-sample evaluation cheap enough that a
// Monte-Carlo run is embarrassingly parallel across samples; this header
// provides the chunked work distribution every driver shares. Determinism
// is the caller's job (see stats/random.hpp: per-sample counter-based
// streams make results independent of the thread count); this layer only
// guarantees that every index in [0, n) is executed exactly once and that
// the first exception thrown by a body is rethrown on the calling thread.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace lcsf::runtime {

/// A persistent pool of worker threads with a dynamically-chunked
/// parallel loop, parallel_for_lanes. Work is claimed from a shared atomic
/// cursor in grains, so load imbalance between samples (e.g. SPICE
/// retries on hard samples) does not serialize the run -- the cheap
/// equivalent of work stealing for index ranges.
///
/// Thread-safety: parallel_for_lanes may be called from one thread at a
/// time. Calling it from *inside* a pool task runs the nested loop inline
/// on the calling worker (no deadlock, no oversubscription).
class ThreadPool {
 public:
  /// `num_threads == 0` resolves via default_threads(). A pool of size 1
  /// spawns no workers and runs everything inline.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that execute work (workers + the calling thread).
  std::size_t size() const { return workers_.size() + 1; }

  /// Runs body(begin, end, lane) over disjoint chunks covering [0, n).
  /// `lane` identifies the executing thread (caller = 0, worker k = k + 1,
  /// so lane < size()). Within one call a lane is only ever used by one
  /// thread, which lets callers keep per-lane mutable workspaces without
  /// locking. The serial and nested fallback paths run on lane 0.
  /// `grain == 0` picks a chunk size that gives each thread several chunks
  /// for load balancing. The calling thread participates. The first
  /// exception thrown by any chunk is rethrown here after all in-flight
  /// chunks finish; remaining unclaimed chunks are abandoned.
  void parallel_for_lanes(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
      std::size_t grain = 0);

  /// Thread-count resolution used by every `threads = 0` knob: the
  /// LCSF_THREADS environment variable, else
  /// std::thread::hardware_concurrency().
  static std::size_t default_threads();

 private:
  struct Batch;
  void worker_loop(std::size_t lane);
  void run_batch(Batch& batch);

  std::vector<std::thread> workers_;
  // Guarded by mu_ in thread_pool.cpp via an impl block; kept as opaque
  // members to avoid leaking <mutex> into every includer.
  struct State;
  std::unique_ptr<State> state_;
};

/// RAII escape hatch for long-running pool tasks that act as independent
/// execution roots. A body running inside the pool normally degrades
/// nested parallel sections to inline execution (the anti-deadlock /
/// anti-oversubscription default). A connection handler of a server,
/// however, occupies its pool lane for the whole session and *wants* the
/// analyses it dispatches to parallelize on their own pools with their
/// own requested thread counts. Constructing a TaskRootScope clears the
/// calling thread's "inside a pool task" flag for the scope's lifetime
/// (restored on destruction), making the scope a fresh nesting root.
/// Determinism is unaffected -- thread counts never change results --
/// and the caller remains responsible for not oversubscribing the host.
class TaskRootScope {
 public:
  TaskRootScope();
  ~TaskRootScope();
  TaskRootScope(const TaskRootScope&) = delete;
  TaskRootScope& operator=(const TaskRootScope&) = delete;

 private:
  bool saved_;
};

/// One-shot convenience: run body over [0, n) on `threads` threads
/// (0 = default_threads(), <= 1 = inline serial on lane 0), so lanes are
/// < max(1, resolved threads). Constructs a transient pool; prefer a
/// long-lived ThreadPool when calling in a loop. Callers sizing per-lane
/// workspaces should use the same resolution
/// (ThreadPool::default_threads() when threads == 0).
void parallel_for_lanes(
    std::size_t threads, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
    std::size_t grain = 0);

}  // namespace lcsf::runtime
