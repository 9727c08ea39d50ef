// Observability substrate: thread-safe metrics (monotonic counters, value
// distributions, wall-clock phase timers) and the per-thread recording
// context the scoped trace spans write through.
//
// Design constraints (docs/observability.md):
//  * Recording never perturbs results. Metrics are written to per-lane
//    sinks -- one sink per runtime::ThreadPool lane, each touched by at most
//    one thread at a time (the pool's lane exclusivity contract) -- and
//    merged only at snapshot() time, after the parallel joins. Enabling
//    observability therefore cannot change the bitwise thread-count
//    invariance of any statistical driver.
//  * The merge is deterministic: counters are summed (64-bit, order
//    independent) and distribution values are sorted into a canonical
//    order before any floating-point accumulation, so counter and
//    distribution values are bitwise identical for every thread count.
//    Wall-clock quantities are inherently nondeterministic; by convention
//    they carry a `_seconds`/`_ms`/`_us`/`_ns` name suffix and are
//    excluded from the deterministic export (to_json(false)).
//  * The disabled path is near-zero cost. With no registry installed on
//    the current thread every recording call is one thread-local load and
//    a branch.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lcsf::obs {

class Registry;

/// Wall-clock aggregate of one span path: how many times it ran and the
/// total nanoseconds spent inside (inclusive of children).
struct TimerStat {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

/// One completed trace span, recorded by obs::ScopedSpan at destruction.
/// `path` is the '/'-joined chain of enclosing span names on the
/// recording thread ("stats.monte_carlo/teta.stage"), which is also the
/// timer key; `start_ns` is relative to the owning Registry's epoch.
struct SpanEvent {
  std::string path;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t depth = 0;
};

/// Per-lane metric storage. A sink is only ever written by the single
/// thread currently holding its lane (see ScopedContext), so recording
/// needs no synchronization; Registry::snapshot() reads all sinks after
/// the parallel joins.
class LaneSink {
 public:
  void add_counter(std::string_view name, std::uint64_t delta);
  void record_value(std::string_view name, double value);
  void record_span(const std::string& path, std::uint64_t start_ns,
                   std::uint64_t dur_ns, std::uint32_t depth);

  /// Trace-event retention cap per lane; timers keep aggregating past it
  /// and the overflow is counted in the `obs.spans_dropped` counter.
  static constexpr std::size_t kMaxSpansPerLane = 1u << 20;

 private:
  friend class Registry;
  // Ordered maps, not unordered: snapshot() iterates these to build the
  // merged (and ultimately serialized) view, so the per-lane iteration
  // order must be canonical. The name-keyed sorted order makes the merge
  // independent of insertion history (and of the hash seed), which the
  // `nondeterministic-iteration` lint rule enforces tree-wide.
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::vector<double>> values_;
  std::map<std::string, TimerStat> timers_;
  std::vector<SpanEvent> spans_;
};

/// Deterministically merged view of every lane sink. Map keys give the
/// canonical (sorted) iteration order the exporters rely on.
struct Snapshot {
  struct Distribution {
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, Distribution> distributions;
  std::map<std::string, TimerStat> timers;
  /// All span events, ordered by (lane, recording order); `lane_of[k]`
  /// is the lane that recorded `spans[k]`.
  std::vector<SpanEvent> spans;
  std::vector<std::size_t> lane_of;
};

/// The metrics registry one observed run writes into. Create one per run
/// (or per tool invocation), install it on the participating threads with
/// ScopedContext, and export after the work joins.
///
/// Thread-safety: lane_sink() may be called concurrently (sink creation
/// is mutex-guarded; returned references are stable). Recording through a
/// sink is unsynchronized by design -- the lane exclusivity contract makes
/// it race-free. snapshot()/exporters must only run while no thread is
/// recording (i.e. after parallel sections join).
class Registry {
 public:
  Registry();

  /// The sink for one thread-pool lane, created on first use.
  LaneSink& lane_sink(std::size_t lane);

  /// Monotonic nanoseconds since this registry was constructed.
  std::uint64_t now_ns() const;

  /// Deterministic merge of all lanes (see file comment).
  Snapshot snapshot() const;

  /// Fold every lane's counters, distribution values and timers -- but
  /// not its span events -- into `dst`, a sink of another registry. Call
  /// only once this registry's recording threads have joined.
  void merge_into(LaneSink& dst) const;

  /// Structured JSON export (schema: tools/metrics_schema.json). With
  /// `include_wall_clock == false` the timers section and every
  /// time-suffixed distribution are omitted; what remains is bitwise
  /// identical for every thread count.
  std::string to_json(bool include_wall_clock = true) const;

  /// Human-readable phase-time tree built from the span timers.
  std::string timing_report() const;

  /// Chrome trace_event JSON (load via about:tracing or Perfetto).
  std::string chrome_trace_json() const;

 private:
  mutable std::mutex mu_;  // guards lanes_ growth only
  std::vector<std::unique_ptr<LaneSink>> lanes_;
  std::chrono::steady_clock::time_point epoch_;
};

/// True when `name` denotes a wall-clock quantity (suffix convention:
/// `_seconds`, `_ms`, `_us`, `_ns`) and must be excluded from the
/// deterministic export.
bool is_wall_clock_metric(std::string_view name);

/// Per-thread recording context: which registry/lane this thread writes
/// to, plus the active span path for the tree reconstruction.
struct Context {
  Registry* registry = nullptr;
  LaneSink* sink = nullptr;
  std::uint32_t depth = 0;
  std::string path;  ///< '/'-joined active span names
};

/// The calling thread's context (disabled when no registry installed).
Context& context();

inline bool enabled() { return context().registry != nullptr; }

/// The registry installed on the calling thread, if any. Drivers use this
/// to inherit an ambient registry when their options carry none.
inline Registry* ambient_registry() { return context().registry; }

/// Bump a monotonic counter on the current lane; no-op when disabled.
void add_counter(std::string_view name, std::uint64_t delta = 1);

/// Record one observation of a value distribution; no-op when disabled.
void record_value(std::string_view name, double value);

/// Fold a finished registry into the current lane (Registry::merge_into:
/// no span events); no-op when disabled.
void merge_metrics(const Registry& from);

/// Nanoseconds since the installed registry's epoch; 0 when disabled.
std::uint64_t now_ns();

/// RAII installation of (registry, lane) on the current thread; restores
/// the previous context on destruction. Passing a null registry disables
/// recording within the scope. The statistical drivers install one per
/// worker chunk so engine code deep in the per-sample pipeline records to
/// the right lane without plumbing.
class ScopedContext {
 public:
  ScopedContext(Registry* registry, std::size_t lane);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Context saved_;
};

}  // namespace lcsf::obs
