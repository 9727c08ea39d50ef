// The engines behind stats::Runner: the one Monte-Carlo sampling loop
// (shared by the scalar and batch-dispatched overloads), the gradient
// probes and the Monte-Carlo yield. The observability hooks never touch
// the numerics, so every determinism contract holds with or without a
// registry.
#include "stats/runner.hpp"

#include <cmath>
#include <stdexcept>

#include "runtime/thread_pool.hpp"
#include "obs/span.hpp"
#include "stats/driver_detail.hpp"

namespace lcsf::stats {

using detail::DriverContext;
using detail::eval_fail_soft;
using detail::ignore_lane;
using numeric::Vector;

namespace {

/// The Monte-Carlo sampling loop behind every run_monte_carlo overload.
/// Work units are nb = floor(n / k) full k-blocks evaluated through `fb`,
/// then the remainder samples one by one through `f`; with no batch
/// function (`fb` null) there are zero blocks and every sample is a
/// remainder unit. Sample s draws the same variate vector whichever
/// evaluator consumes it.
MonteCarloResult sample_monte_carlo(
    const RunOptions& opt, const LanedPerformanceFn& f,
    const BatchPerformanceFn* fb, std::size_t k,
    const std::vector<VariationSource>& sources) {
  DriverContext obs_ctx(opt.registry);
  obs::Registry* reg = obs_ctx.registry();
  obs::ScopedSpan span("stats.monte_carlo");
  detail::check_sampling("monte_carlo", sources.size(), opt.samples);
  const std::size_t nw = sources.size();
  const std::size_t n = opt.samples;

  const detail::LhsStrata strata(opt.latin_hypercube, opt.seed, nw, n,
                                 stream_tag::kLhsPerm);
  auto draw = [&](std::size_t s) {
    SplitMix64 stream = sample_stream(opt.seed, s);
    Vector w(nw);
    for (std::size_t d = 0; d < nw; ++d) {
      const double uu = strata.variate(d, s, stream.uniform_open());
      const VariationSource& src = sources[d];
      w[d] = (src.kind == VariationSource::Kind::kUniform)
                 ? to_uniform(uu, src.mean - src.sigma, src.mean + src.sigma)
                 : to_normal(uu, src.mean, src.sigma);
    }
    return w;
  };

  // Per-sample slots; compacted to survivors after the parallel loop.
  std::vector<double> values(n);
  std::vector<Vector> samples(n);
  std::vector<char> died(n, 0);
  std::vector<SampleFailure> deaths(n);
  const bool fail_soft = opt.exec.on_failure == FailurePolicy::kSkip;

  // All units share one queue and each sample its own stream, so the
  // thread partition can change neither values nor the failed set.
  const std::size_t nb = fb != nullptr ? n / k : 0;
  const std::size_t rem = n - nb * k;
  runtime::parallel_for_lanes(
      opt.exec.threads, nb + rem,
      [&](std::size_t begin, std::size_t end, std::size_t lane) {
    // Route engine metrics recorded inside f to this chunk's lane sink.
    obs::ScopedContext chunk_ctx(reg, lane);
    const bool timed = obs::enabled();
    std::vector<Vector> block;
    std::vector<BatchSlot> slots;
    for (std::size_t u = begin; u < end; ++u) {
      if (u < nb) {
        const std::size_t s0 = u * k;
        block.resize(k);
        for (std::size_t b = 0; b < k; ++b) block[b] = draw(s0 + b);
        slots.assign(k, BatchSlot{});
        const std::uint64_t t0 = timed ? obs::now_ns() : 0;
        (*fb)(block, lane, slots);
        if (timed) {
          obs::record_value(
              "stats.mc.batch_seconds",
              static_cast<double>(obs::now_ns() - t0) / 1e9);
        }
        for (std::size_t b = 0; b < k; ++b) {
          const std::size_t s = s0 + b;
          if (slots[b].failed) {
            if (!fail_soft) throw sim::SimulationError(slots[b].diag);
            died[s] = 1;
            deaths[s] = {s, slots[b].diag.kind, slots[b].diag.message()};
          } else {
            values[s] = slots[b].value;
          }
          samples[s] = std::move(block[b]);
        }
      } else {
        const std::size_t s = nb * k + (u - nb);
        Vector w = draw(s);
        const std::uint64_t t0 = timed ? obs::now_ns() : 0;
        if (fail_soft) {
          died[s] =
              eval_fail_soft(f, w, lane, s, values[s], deaths[s]) ? 0 : 1;
        } else {
          values[s] = f(w, lane);
        }
        if (timed) {
          obs::record_value(
              "stats.mc.sample_seconds",
              static_cast<double>(obs::now_ns() - t0) / 1e9);
        }
        samples[s] = std::move(w);
      }
    }
  });

  // Compact + accumulate serially in sample order: identical to a serial
  // run (and to any other thread count) by construction.
  MonteCarloResult res;
  detail::fold_failures(died, deaths, res.failures);
  res.values.reserve(res.failures.survived);
  res.samples.reserve(res.failures.survived);
  for (std::size_t s = 0; s < n; ++s) {
    if (died[s]) continue;
    res.stats.add(values[s]);
    res.values.push_back(values[s]);
    res.samples.push_back(std::move(samples[s]));
  }
  obs::add_counter("stats.mc.samples", static_cast<std::uint64_t>(n));
  obs::add_counter("stats.mc.skipped",
                   static_cast<std::uint64_t>(res.failures.failed()));
  if (fb != nullptr) {
    // Serial so the distribution merges identically for any thread count.
    obs::add_counter("stats.mc.batches", static_cast<std::uint64_t>(nb));
    obs::add_counter("stats.mc.batch_remainder_samples",
                     static_cast<std::uint64_t>(rem));
    for (std::size_t u = 0; u < nb; ++u) {
      obs::record_value("stats.mc.batch_fill", static_cast<double>(k));
    }
    for (std::size_t r = 0; r < rem; ++r) {
      obs::record_value("stats.mc.batch_fill", 1.0);
    }
  }
  return res;
}

}  // namespace

MonteCarloResult Runner::run_monte_carlo(
    const PerformanceFn& f, const std::vector<VariationSource>& sources)
    const {
  return run_monte_carlo(ignore_lane(f), sources);
}

MonteCarloResult Runner::run_monte_carlo(
    const LanedPerformanceFn& f, const std::vector<VariationSource>& sources)
    const {
  return sample_monte_carlo(opt_, f, nullptr, 1, sources);
}

MonteCarloResult Runner::run_monte_carlo(
    const LanedPerformanceFn& f, const BatchPerformanceFn& fb,
    const std::vector<VariationSource>& sources) const {
  const std::size_t k = opt_.exec.batch == 0 ? kDefaultBatch : opt_.exec.batch;
  return sample_monte_carlo(opt_, f, k > 1 && fb ? &fb : nullptr, k,
                            sources);
}

GradientAnalysisResult Runner::run_gradients(
    const PerformanceFn& f, const std::vector<VariationSource>& sources)
    const {
  return run_gradients(ignore_lane(f), sources);
}

GradientAnalysisResult Runner::run_gradients(
    const LanedPerformanceFn& f, const std::vector<VariationSource>& sources)
    const {
  DriverContext obs_ctx(opt_.registry);
  obs::Registry* reg = obs_ctx.registry();
  obs::ScopedSpan span("stats.gradient_analysis");
  if (sources.empty()) {
    sim::throw_invalid_input("gradient_analysis: no sources");
  }
  if (opt_.step_fraction <= 0.0) {
    sim::throw_invalid_input("gradient_analysis: bad step");
  }
  const std::size_t nw = sources.size();
  GradientAnalysisResult res;
  res.gradient.assign(nw, 0.0);

  Vector w0(nw);
  for (std::size_t d = 0; d < nw; ++d) w0[d] = sources[d].mean;
  // A failed nominal always rethrows: there is no gradient about a point
  // that does not evaluate. The nominal runs on the calling thread's lane.
  res.nominal = f(w0, 0);
  res.evaluations = 1;

  const bool fail_soft = opt_.exec.on_failure == FailurePolicy::kSkip;
  std::vector<char> died(nw, 0);
  std::vector<SampleFailure> deaths(nw);

  // The 2 * nw central-difference probes are independent; run them on the
  // pool and fold the Eq. 24 sum serially in source order afterwards.
  runtime::parallel_for_lanes(
      opt_.exec.threads, nw,
      [&](std::size_t begin, std::size_t end, std::size_t lane) {
    obs::ScopedContext chunk_ctx(reg, lane);
    const bool timed = obs::enabled();
    for (std::size_t d = begin; d < end; ++d) {
      const double h = opt_.step_fraction * sources[d].sigma;
      if (h <= 0.0) continue;
      Vector wp = w0, wm = w0;
      wp[d] += h;
      wm[d] -= h;
      const std::uint64_t t0 = timed ? obs::now_ns() : 0;
      if (fail_soft) {
        double fp = 0.0, fm = 0.0;
        if (eval_fail_soft(f, wp, lane, d, fp, deaths[d]) &&
            eval_fail_soft(f, wm, lane, d, fm, deaths[d])) {
          res.gradient[d] = (fp - fm) / (2.0 * h);
        } else {
          died[d] = 1;  // gradient entry stays 0 and leaves the RSS sum
        }
      } else {
        res.gradient[d] = (f(wp, lane) - f(wm, lane)) / (2.0 * h);
      }
      if (timed) {
        obs::record_value(
            "stats.ga.probe_seconds",
            static_cast<double>(obs::now_ns() - t0) / 1e9);
      }
    }
  });

  detail::fold_failures(died, deaths, res.failures);
  double var = 0.0;
  for (std::size_t d = 0; d < nw; ++d) {
    if (opt_.step_fraction * sources[d].sigma <= 0.0 || died[d]) continue;
    res.evaluations += 2;
    const double g = res.gradient[d];
    // Uniform(+-sigma) has variance sigma^2/3; normal has sigma^2.
    const double s2 =
        sources[d].kind == VariationSource::Kind::kUniform
            ? sources[d].sigma * sources[d].sigma / 3.0
            : sources[d].sigma * sources[d].sigma;
    var += s2 * g * g;
  }
  res.stddev = std::sqrt(var);
  obs::add_counter("stats.ga.probes",
                   static_cast<std::uint64_t>(res.evaluations));
  obs::add_counter("stats.ga.skipped",
                   static_cast<std::uint64_t>(res.failures.failed()));
  return res;
}

McYieldEstimate Runner::run_yield(const PerformanceFn& f,
                                  const std::vector<VariationSource>& sources,
                                  double clock_period) const {
  return run_yield(ignore_lane(f), sources, clock_period);
}

McYieldEstimate Runner::run_yield(const LanedPerformanceFn& f,
                                  const std::vector<VariationSource>& sources,
                                  double clock_period) const {
  DriverContext obs_ctx(opt_.registry);
  obs::ScopedSpan span("stats.yield");
  McYieldEstimate est(run_monte_carlo(f, sources), clock_period);
  std::uint64_t pass = 0;
  for (const double v : est.samples().values) {
    if (v <= clock_period) ++pass;
  }
  obs::add_counter("stats.yield.pass", pass);
  return est;
}

}  // namespace lcsf::stats
