#include "obs/registry.hpp"

#include <algorithm>

#include "obs/span.hpp"

namespace lcsf::obs {

// ---------------------------------------------------------------------
// LaneSink
// ---------------------------------------------------------------------

void LaneSink::add_counter(std::string_view name, std::uint64_t delta) {
  counters_[std::string(name)] += delta;
}

void LaneSink::record_value(std::string_view name, double value) {
  values_[std::string(name)].push_back(value);
}

void LaneSink::record_span(const std::string& path, std::uint64_t start_ns,
                           std::uint64_t dur_ns, std::uint32_t depth) {
  TimerStat& t = timers_[path];
  ++t.count;
  t.total_ns += dur_ns;
  if (spans_.size() < kMaxSpansPerLane) {
    spans_.push_back({path, start_ns, dur_ns, depth});
  } else {
    ++counters_["obs.spans_dropped"];
  }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

Registry::Registry() : epoch_(std::chrono::steady_clock::now()) {}

LaneSink& Registry::lane_sink(std::size_t lane) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (lane >= lanes_.size()) lanes_.resize(lane + 1);
  if (!lanes_[lane]) lanes_[lane] = std::make_unique<LaneSink>();
  return *lanes_[lane];
}

std::uint64_t Registry::now_ns() const {
  const auto d = std::chrono::steady_clock::now() - epoch_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  const std::lock_guard<std::mutex> lock(mu_);
  // Counters: 64-bit sums commute, so the lane iteration order cannot
  // matter. Timers likewise sum exactly (integer nanoseconds).
  for (const auto& lane : lanes_) {
    if (!lane) continue;
    for (const auto& [name, v] : lane->counters_) snap.counters[name] += v;
    for (const auto& [name, t] : lane->timers_) {
      TimerStat& dst = snap.timers[name];
      dst.count += t.count;
      dst.total_ns += t.total_ns;
    }
  }
  // Distributions: gather every lane's observations, then sort into a
  // canonical order BEFORE any floating-point reduction. The multiset of
  // recorded values is thread-count invariant (each deterministic value
  // is recorded exactly once, whatever lane evaluated it), so the sorted
  // vector -- and every statistic folded over it in that order -- is
  // bitwise identical for every thread count.
  std::map<std::string, std::vector<double>> gathered;
  for (const auto& lane : lanes_) {
    if (!lane) continue;
    for (const auto& [name, vals] : lane->values_) {
      auto& dst = gathered[name];
      dst.insert(dst.end(), vals.begin(), vals.end());
    }
  }
  for (auto& [name, vals] : gathered) {
    std::sort(vals.begin(), vals.end());
    Snapshot::Distribution d;
    d.count = static_cast<std::uint64_t>(vals.size());
    if (!vals.empty()) {
      d.min = vals.front();
      d.max = vals.back();
      double sum = 0.0;
      for (const double v : vals) sum += v;
      d.mean = sum / static_cast<double>(vals.size());
      // Nearest-rank quantiles on the sorted sample.
      auto rank = [&vals](double q) {
        const auto n = vals.size();
        auto idx = static_cast<std::size_t>(q * static_cast<double>(n));
        if (idx >= n) idx = n - 1;
        return vals[idx];
      };
      d.p50 = rank(0.50);
      d.p95 = rank(0.95);
    }
    snap.distributions.emplace(name, d);
  }
  // Spans in (lane, recording order): deterministic given a fixed lane
  // assignment; only consumed by the (wall-clock) trace export.
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    if (!lanes_[k]) continue;
    for (const auto& s : lanes_[k]->spans_) {
      snap.spans.push_back(s);
      snap.lane_of.push_back(k);
    }
  }
  return snap;
}

void Registry::merge_into(LaneSink& dst) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& lane : lanes_) {
    if (!lane) continue;
    for (const auto& [name, v] : lane->counters_) dst.counters_[name] += v;
    for (const auto& [name, vals] : lane->values_) {
      std::vector<double>& d = dst.values_[name];
      d.insert(d.end(), vals.begin(), vals.end());
    }
    for (const auto& [name, t] : lane->timers_) {
      TimerStat& d = dst.timers_[name];
      d.count += t.count;
      d.total_ns += t.total_ns;
    }
  }
}

bool is_wall_clock_metric(std::string_view name) {
  for (const char* suffix : {"_seconds", "_ms", "_us", "_ns"}) {
    const std::string_view suf(suffix);
    if (name.size() >= suf.size() &&
        name.substr(name.size() - suf.size()) == suf) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------
// Thread-local context + recording entry points
// ---------------------------------------------------------------------

Context& context() {
  thread_local Context ctx;
  return ctx;
}

void add_counter(std::string_view name, std::uint64_t delta) {
  Context& ctx = context();
  if (ctx.sink == nullptr) return;
  ctx.sink->add_counter(name, delta);
}

void record_value(std::string_view name, double value) {
  Context& ctx = context();
  if (ctx.sink == nullptr) return;
  ctx.sink->record_value(name, value);
}

void merge_metrics(const Registry& from) {
  Context& ctx = context();
  if (ctx.sink == nullptr) return;
  from.merge_into(*ctx.sink);
}

std::uint64_t now_ns() {
  const Context& ctx = context();
  return ctx.registry != nullptr ? ctx.registry->now_ns() : 0;
}

ScopedContext::ScopedContext(Registry* registry, std::size_t lane) {
  Context& ctx = context();
  saved_ = std::move(ctx);
  ctx.registry = registry;
  ctx.sink = registry != nullptr ? &registry->lane_sink(lane) : nullptr;
  ctx.depth = 0;
  ctx.path.clear();
}

ScopedContext::~ScopedContext() { context() = std::move(saved_); }

// ---------------------------------------------------------------------
// ScopedSpan
// ---------------------------------------------------------------------

ScopedSpan::ScopedSpan(std::string_view name) {
  Context& ctx = context();
  if (ctx.registry == nullptr) return;
  sink_ = ctx.sink;
  parent_path_len_ = ctx.path.size();
  if (!ctx.path.empty()) ctx.path += '/';
  ctx.path += name;
  ++ctx.depth;
  start_ns_ = ctx.registry->now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (sink_ == nullptr) return;
  Context& ctx = context();
  const std::uint64_t end_ns =
      ctx.registry != nullptr ? ctx.registry->now_ns() : start_ns_;
  --ctx.depth;
  sink_->record_span(ctx.path, start_ns_, end_ns - start_ns_, ctx.depth);
  ctx.path.resize(parent_path_len_);
}

}  // namespace lcsf::obs
