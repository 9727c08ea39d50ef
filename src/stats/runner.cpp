// The engines behind stats::Runner: the one block loop every driver
// evaluates its points through, the Monte-Carlo sampling and the gradient
// probes. The observability hooks never touch the numerics, so every
// determinism contract holds with or without a registry.
#include "stats/runner.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "runtime/thread_pool.hpp"
#include "obs/span.hpp"
#include "stats/driver_detail.hpp"

namespace lcsf::stats {

using detail::DriverContext;
using numeric::Vector;

namespace detail {

void evaluate_blocks(const ExecutionOptions& exec, obs::Registry* reg,
                     const BatchPerformanceFn& fb, std::size_t n,
                     const std::function<Vector(std::size_t)>& draw,
                     const char* block_seconds, std::vector<BatchSlot>& slots,
                     std::vector<Vector>* points) {
  const std::size_t k = block_width(exec);
  const bool fail_soft = exec.on_failure == FailurePolicy::kSkip;
  slots.assign(n, BatchSlot{});
  if (points != nullptr) points->assign(n, Vector{});
  // Blocks are the work units of one queue and each point owns its
  // index, so the thread partition can change neither a value nor the
  // failed set.
  runtime::parallel_for_lanes(
      exec.threads, (n + k - 1) / k,
      [&](std::size_t begin, std::size_t end, std::size_t lane) {
    // Route engine metrics recorded inside fb to this chunk's lane sink.
    obs::ScopedContext chunk_ctx(reg, lane);
    const bool timed = obs::enabled();
    std::vector<Vector> block;
    std::vector<BatchSlot> out;
    for (std::size_t u = begin; u < end; ++u) {
      const std::size_t first = u * k;
      const std::size_t width = std::min(k, n - first);
      block.resize(width);
      for (std::size_t b = 0; b < width; ++b) block[b] = draw(first + b);
      out.assign(width, BatchSlot{});
      const std::uint64_t t0 = timed ? obs::now_ns() : 0;
      fb(block, lane, out);
      if (timed) {
        obs::record_value(block_seconds,
                          static_cast<double>(obs::now_ns() - t0) / 1e9);
      }
      for (std::size_t b = 0; b < width; ++b) {
        if (out[b].failed && !fail_soft) {
          throw sim::SimulationError(std::move(out[b].diag));
        }
        slots[first + b] = std::move(out[b]);
        if (points != nullptr) (*points)[first + b] = std::move(block[b]);
      }
    }
  });
}

}  // namespace detail

MonteCarloResult Runner::run_monte_carlo(
    const BatchPerformanceFn& f, const std::vector<VariationSource>& sources)
    const {
  DriverContext obs_ctx(opt_.registry);
  obs::ScopedSpan span("stats.monte_carlo");
  detail::check_sampling("monte_carlo", sources.size(), opt_.samples);
  const std::size_t nw = sources.size();
  const std::size_t n = opt_.samples;

  const detail::LhsStrata strata(opt_.latin_hypercube, opt_.seed, nw, n,
                                 stream_tag::kLhsPerm);
  const auto draw = [&](std::size_t s) {
    SplitMix64 stream = sample_stream(opt_.seed, s);
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
  std::vector<BatchSlot> slots;
  std::vector<Vector> samples;
  detail::evaluate_blocks(opt_.exec, obs_ctx.registry(), f, n, draw,
                          "stats.mc.block_seconds", slots, &samples);

  // Compact + accumulate serially in sample order: identical to a serial
  // run (and to any other thread count) by construction.
  MonteCarloResult res;
  detail::fold_failures(slots, res.failures);
  res.values.reserve(res.failures.survived);
  res.samples.reserve(res.failures.survived);
  for (std::size_t s = 0; s < n; ++s) {
    if (slots[s].failed) continue;
    res.stats.add(slots[s].value);
    res.values.push_back(slots[s].value);
    res.samples.push_back(std::move(samples[s]));
  }
  obs::add_counter("stats.mc.samples", static_cast<std::uint64_t>(n));
  obs::add_counter("stats.mc.skipped",
                   static_cast<std::uint64_t>(res.failures.failed()));
  const std::size_t k = detail::block_width(opt_.exec);
  if (k > 1) {
    // Serial so the distribution merges identically for any thread count.
    obs::add_counter("stats.mc.batches", static_cast<std::uint64_t>(n / k));
    obs::add_counter("stats.mc.batch_remainder_samples",
                     static_cast<std::uint64_t>(n % k));
    for (std::size_t u = 0; u < n / k; ++u) {
      obs::record_value("stats.mc.batch_fill", static_cast<double>(k));
    }
    if (n % k != 0) {
      obs::record_value("stats.mc.batch_fill", static_cast<double>(n % k));
    }
  }
  return res;
}

GradientAnalysisResult Runner::run_gradients(
    const BatchPerformanceFn& f, const std::vector<VariationSource>& sources)
    const {
  DriverContext obs_ctx(opt_.registry);
  obs::ScopedSpan span("stats.gradient_analysis");
  if (sources.empty()) {
    sim::throw_invalid_input("gradient_analysis: no sources");
  }
  const std::size_t nw = sources.size();
  // The central-difference step is a tenth of each source's sigma.
  const auto step = [&](std::size_t d) { return 0.1 * sources[d].sigma; };
  // A source without a positive step has no probes and no gradient.
  const auto unprobed = [&](std::size_t d) { return step(d) <= 0.0; };
  GradientAnalysisResult res;
  res.gradient.assign(nw, 0.0);

  Vector w0(nw);
  for (std::size_t d = 0; d < nw; ++d) w0[d] = sources[d].mean;
  // A failed nominal always rethrows: there is no gradient about a point
  // that does not evaluate. The nominal runs alone, on the calling
  // thread's lane.
  std::vector<BatchSlot> nominal(1);
  f({w0}, 0, nominal);
  if (nominal[0].failed) {
    throw sim::SimulationError(std::move(nominal[0].diag));
  }
  res.nominal = nominal[0].value;
  res.evaluations = 1;

  // The central-difference probes, +h then -h per probed source in
  // source order; independent, so they run in blocks on the pool and the
  // Eq. 24 sum folds serially in source order.
  std::vector<std::size_t> probed;
  for (std::size_t d = 0; d < nw; ++d) {
    if (!unprobed(d)) probed.push_back(d);
  }
  const auto probe = [&](std::size_t i) {
    const std::size_t d = probed[i / 2];
    Vector w = w0;
    if (i % 2 == 0) {
      w[d] += step(d);
    } else {
      w[d] -= step(d);
    }
    return w;
  };
  std::vector<BatchSlot> slots;
  detail::evaluate_blocks(opt_.exec, obs_ctx.registry(), f,
                          2 * probed.size(), probe, "stats.ga.block_seconds",
                          slots);

  // Under kSkip a source whose probe failed keeps a zero gradient entry,
  // leaves the RSS sum and is recorded under its source index.
  std::vector<BatchSlot> failed(nw);
  for (std::size_t j = 0; j < probed.size(); ++j) {
    const std::size_t d = probed[j];
    BatchSlot& plus = slots[2 * j];
    BatchSlot& minus = slots[2 * j + 1];
    if (plus.failed || minus.failed) {
      failed[d] = std::move(plus.failed ? plus : minus);
      continue;
    }
    res.gradient[d] = (plus.value - minus.value) / (2.0 * step(d));
  }
  detail::fold_failures(failed, res.failures);
  double var = 0.0;
  for (std::size_t d = 0; d < nw; ++d) {
    if (unprobed(d) || failed[d].failed) continue;
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

}  // namespace lcsf::stats
