// Tests for the observability subsystem (src/obs/): deterministic lane
// merge, null-registry no-ops, span path construction, the wall-clock
// exclusion convention, and driver-level metric invariance across thread
// counts. The concurrent-lanes test doubles as the TSan witness for the
// unsynchronized per-lane recording design.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "stats/runner.hpp"

namespace lcsf::obs {
namespace {

TEST(ObsMerge, CountersSumAcrossLanesOrderIndependent) {
  Registry a;
  a.lane_sink(0).add_counter("x", 10);
  a.lane_sink(0).add_counter("y", 1);
  a.lane_sink(0).add_counter("x", 5);

  Registry b;  // same logical totals, different lane layout and order
  b.lane_sink(2).add_counter("y", 1);
  b.lane_sink(1).add_counter("x", 5);
  b.lane_sink(3).add_counter("x", 10);

  const Snapshot sa = a.snapshot();
  EXPECT_EQ(sa.counters.at("x"), 15u);
  EXPECT_EQ(sa.counters.at("y"), 1u);
  EXPECT_EQ(a.to_json(false), b.to_json(false));
}

TEST(ObsMerge, DistributionStatsMatchClosedForm) {
  Registry r;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    r.lane_sink(0).record_value("d", v);
  }
  const auto d = r.snapshot().distributions.at("d");
  EXPECT_EQ(d.count, 8u);
  EXPECT_DOUBLE_EQ(d.min, 2.0);
  EXPECT_DOUBLE_EQ(d.max, 9.0);
  EXPECT_DOUBLE_EQ(d.mean, 5.0);
  // Nearest-rank quantiles on the sorted values.
  EXPECT_DOUBLE_EQ(d.p50, 5.0);
  EXPECT_DOUBLE_EQ(d.p95, 9.0);
}

TEST(ObsMerge, DistributionsAreLaneLayoutInvariant) {
  // The same multiset of observations, recorded in different orders on
  // different lanes, must export bitwise identically: the merge sorts
  // into canonical order before any floating-point accumulation.
  const std::vector<double> values = {0.3, 1e-9, 7.25, -2.5, 0.3, 42.0};
  Registry a;
  for (double v : values) a.lane_sink(0).record_value("d", v);
  Registry b;
  for (std::size_t i = values.size(); i-- > 0;) {
    b.lane_sink(i % 3).record_value("d", values[i]);
  }
  EXPECT_EQ(a.to_json(false), b.to_json(false));
}

TEST(ObsMerge, WallClockMetricsExcludedFromDeterministicExport) {
  EXPECT_TRUE(is_wall_clock_metric("stats.mc.sample_seconds"));
  EXPECT_TRUE(is_wall_clock_metric("x_ms"));
  EXPECT_TRUE(is_wall_clock_metric("x_us"));
  EXPECT_TRUE(is_wall_clock_metric("x_ns"));
  EXPECT_FALSE(is_wall_clock_metric("seconds_total"));
  EXPECT_FALSE(is_wall_clock_metric("teta.transients"));

  Registry r;
  r.lane_sink(0).record_value("work_seconds", 0.25);
  r.lane_sink(0).record_value("iterations", 12.0);
  r.lane_sink(0).record_span("phase", 0, 1000, 0);
  const std::string det = r.to_json(false);
  const std::string full = r.to_json(true);
  EXPECT_EQ(det.find("work_seconds"), std::string::npos);
  EXPECT_EQ(det.find("\"timers\""), std::string::npos);
  EXPECT_NE(det.find("iterations"), std::string::npos);
  EXPECT_NE(det.find("\"deterministic\": true"), std::string::npos);
  EXPECT_NE(full.find("work_seconds"), std::string::npos);
  EXPECT_NE(full.find("\"timers\""), std::string::npos);
  EXPECT_NE(full.find("\"phase\""), std::string::npos);
}

// Everything below exercises live recording through the thread-local
// context; the merge/export tests above use the Registry directly.

TEST(ObsContext, NullRegistryIsANoOp) {
  // Nothing installed: every recording entry point must be safe.
  ASSERT_FALSE(enabled());
  add_counter("ghost");
  record_value("ghost", 1.0);
  EXPECT_EQ(now_ns(), 0u);
  { ScopedSpan span("ghost"); }

  // Installing a null registry inside an active scope disables recording.
  Registry r;
  {
    ScopedContext on(&r, 0);
    add_counter("seen");
    {
      ScopedContext off(nullptr, 0);
      EXPECT_FALSE(enabled());
      add_counter("ghost");
      ScopedSpan span("ghost");
    }
    EXPECT_TRUE(enabled());  // restored
    add_counter("seen");
  }
  const Snapshot s = r.snapshot();
  EXPECT_EQ(s.counters.at("seen"), 2u);
  EXPECT_EQ(s.counters.count("ghost"), 0u);
  EXPECT_TRUE(s.timers.empty());
}

TEST(ObsSpan, NestedSpansJoinPathsAndFeedTimers) {
  Registry r;
  {
    ScopedContext ctx(&r, 0);
    ScopedSpan outer("outer");
    {
      ScopedSpan inner("inner");
      ScopedSpan inner2("leaf");
    }
    { ScopedSpan inner("inner"); }
  }
  const Snapshot s = r.snapshot();
  EXPECT_EQ(s.timers.at("outer").count, 1u);
  EXPECT_EQ(s.timers.at("outer/inner").count, 2u);
  EXPECT_EQ(s.timers.at("outer/inner/leaf").count, 1u);
  // Inclusive timing: the parent covers at least its children.
  EXPECT_GE(s.timers.at("outer").total_ns,
            s.timers.at("outer/inner").total_ns);
  ASSERT_EQ(s.spans.size(), 4u);  // leaf, inner, inner, outer (dtor order)
}

TEST(ObsConcurrent, DistinctLanesRecordRaceFree) {
  // One ScopedContext per chunk, unsynchronized recording from every
  // worker. Run under TSan (tools/ci.sh tsan) this is the witness that
  // the lane-exclusivity contract makes the design race-free.
  Registry r;
  const std::size_t n = 10000;
  runtime::parallel_for_lanes(
      4, n,
      [&](std::size_t begin, std::size_t end, std::size_t lane) {
        ScopedContext ctx(&r, lane);
        ScopedSpan span("chunk");
        for (std::size_t i = begin; i < end; ++i) {
          add_counter("items");
          record_value("value", static_cast<double>(i % 7));
        }
      });
  const Snapshot s = r.snapshot();
  EXPECT_EQ(s.counters.at("items"), n);
  EXPECT_EQ(s.distributions.at("value").count, n);
  EXPECT_GE(s.timers.at("chunk").count, 1u);
}

TEST(ObsDriver, MonteCarloMetricsBitwiseInvariantAcrossThreads) {
  std::vector<stats::VariationSource> src(3);
  auto f = [](const numeric::Vector& w) { return w[0] + 2.0 * w[1] - w[2]; };

  auto metrics_at = [&](std::size_t threads) {
    Registry reg;
    stats::RunOptions opt;
    opt.samples = 257;  // not a multiple of any thread count
    opt.seed = 11;
    opt.exec.threads = threads;
    opt.registry = &reg;
    stats::Runner runner(opt);
    const auto res = runner.run_monte_carlo(stats::per_sample(f), src);
    EXPECT_EQ(res.values.size(), 257u);
    return reg.to_json(false);
  };

  const std::string serial = metrics_at(1);
  EXPECT_EQ(serial, metrics_at(2));
  EXPECT_EQ(serial, metrics_at(8));
  EXPECT_NE(serial.find("\"stats.mc.samples\": 257"), std::string::npos)
      << serial;
}

TEST(ObsDriver, AmbientRegistryIsInheritedByRunner) {
  // A CLI installs the registry on the main thread; a Runner whose
  // options carry no registry must still record into it.
  Registry reg;
  ScopedContext ctx(&reg, 0);
  std::vector<stats::VariationSource> src(1);
  auto f = [](const numeric::Vector& w) { return w[0]; };
  stats::RunOptions opt;
  opt.samples = 16;
  opt.exec.threads = 2;
  stats::Runner(opt).run_monte_carlo(stats::per_sample(f), src);
  EXPECT_EQ(reg.snapshot().counters.at("stats.mc.samples"), 16u);
}

TEST(ObsExport, TimingReportAndChromeTraceSmoke) {
  Registry r;
  {
    ScopedContext ctx(&r, 0);
    ScopedSpan outer("alpha");
    ScopedSpan inner("beta");
  }
  const std::string report = r.timing_report();
  EXPECT_NE(report.find("alpha"), std::string::npos);
  EXPECT_NE(report.find("beta"), std::string::npos);

  const std::string trace = r.chrome_trace_json();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"alpha/beta\""), std::string::npos);
}

}  // namespace
}  // namespace lcsf::obs
