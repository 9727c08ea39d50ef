#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>

namespace lcsf::runtime {

namespace {

// Set while a thread is executing pool work, so nested parallel loops
// degrade to inline execution instead of deadlocking on their own pool.
thread_local bool t_in_pool_task = false;

std::size_t env_threads() {
  const char* env = std::getenv("LCSF_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(env, &end, 10);
  if (end == env || (end != nullptr && *end != '\0')) return 0;
  return static_cast<std::size_t>(v);
}

}  // namespace

// One parallel_for_lanes invocation: a shared cursor the participants
// claim grains from, plus completion accounting and first-exception
// capture.
struct ThreadPool::Batch {
  std::size_t n = 0;
  std::size_t grain = 1;
  const std::function<void(std::size_t, std::size_t, std::size_t)>* body =
      nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;

  void run_chunks(std::size_t lane) {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t begin = next.fetch_add(grain);
      if (begin >= n) break;
      const std::size_t end = std::min(n, begin + grain);
      try {
        (*body)(begin, end, lane);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  }
};

struct ThreadPool::State {
  std::mutex mu;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  Batch* batch = nullptr;          ///< current batch, null when idle
  std::size_t generation = 0;      ///< bumped per batch so workers wake once
  std::size_t active_workers = 0;  ///< workers still inside run_chunks()
  bool stopping = false;
};

ThreadPool::ThreadPool(std::size_t num_threads)
    : state_(std::make_unique<State>()) {
  std::size_t n = num_threads == 0 ? default_threads() : num_threads;
  n = std::max<std::size_t>(1, n);
  workers_.reserve(n - 1);
  for (std::size_t k = 0; k + 1 < n; ++k) {
    // Lane 0 is the calling thread; worker k owns lane k + 1.
    workers_.emplace_back([this, k] { worker_loop(k + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->stopping = true;
  }
  state_->work_cv.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_loop(std::size_t lane) {
  std::size_t seen_generation = 0;
  for (;;) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(state_->mu);
      state_->work_cv.wait(lock, [&] {
        return state_->stopping || (state_->batch != nullptr &&
                                    state_->generation != seen_generation);
      });
      if (state_->stopping) return;
      seen_generation = state_->generation;
      batch = state_->batch;
      ++state_->active_workers;
    }
    t_in_pool_task = true;
    batch->run_chunks(lane);
    t_in_pool_task = false;
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      --state_->active_workers;
    }
    state_->done_cv.notify_one();
  }
}

void ThreadPool::run_batch(Batch& batch) {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->batch = &batch;
    ++state_->generation;
  }
  state_->work_cv.notify_all();

  // The calling thread claims chunks too, as lane 0, flagged as a pool
  // task so a nested loop in its chunks runs inline, as on a worker.
  const bool saved = t_in_pool_task;
  t_in_pool_task = true;
  batch.run_chunks(0);
  t_in_pool_task = saved;

  {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->done_cv.wait(lock, [&] { return state_->active_workers == 0; });
    state_->batch = nullptr;
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

void ThreadPool::parallel_for_lanes(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
    std::size_t grain) {
  if (n == 0) return;
  if (workers_.empty() || n == 1 || t_in_pool_task) {
    body(0, n, 0);
    return;
  }
  Batch batch;
  batch.n = n;
  // Several grains per thread so slow samples do not leave threads idle.
  batch.grain = grain != 0 ? grain
                           : std::max<std::size_t>(1, n / (8 * size()));
  batch.body = &body;
  run_batch(batch);
}

TaskRootScope::TaskRootScope() : saved_(t_in_pool_task) {
  t_in_pool_task = false;
}

TaskRootScope::~TaskRootScope() { t_in_pool_task = saved_; }

std::size_t ThreadPool::default_threads() {
  const std::size_t env = env_threads();
  if (env != 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void parallel_for_lanes(
    std::size_t threads, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
    std::size_t grain) {
  if (n == 0) return;
  const std::size_t resolved =
      threads == 0 ? ThreadPool::default_threads() : threads;
  if (resolved <= 1 || n == 1) {
    body(0, n, 0);
    return;
  }
  ThreadPool pool(std::min(resolved, n));
  pool.parallel_for_lanes(n, body, grain);
}

}  // namespace lcsf::runtime
