// The importance-sampled yield engine behind Runner::run_yield_is (see
// importance.hpp for the estimator overview and docs/yield_estimation.md
// for the full derivation).
//
// Structure mirrors the plain Monte-Carlo engine in runner.cpp: the one
// block loop evaluates per-sample counter-based draws into
// index-addressed slots, and every statistic -- likelihood ratios, the
// yield-loss mean, control-variate moments, ESS, failure summaries, obs
// distributions -- is folded serially in sample order afterwards, so the
// result is bitwise identical for every thread count.
#include "stats/importance.hpp"

#include <cmath>
#include <utility>

#include "numeric/fp_compare.hpp"
#include "obs/span.hpp"
#include "stats/driver_detail.hpp"
#include "stats/runner.hpp"
#include "stats/yield.hpp"

namespace lcsf::stats {

using detail::DriverContext;
using numeric::Vector;

namespace {

/// Index-addressed per-sample slots of one IS phase (pilot or main),
/// filled by the block loop and folded serially afterwards.
struct PhaseSlots {
  std::vector<BatchSlot> eval;    ///< f's outcome per sample
  std::vector<double> weight;     ///< likelihood ratio p/q per sample
  std::vector<double> surrogate;  ///< linear-surrogate delay per sample
  /// Standardized variates per sample (only when keep_u: the pilot needs
  /// them for the cross-entropy shift refinement).
  std::vector<Vector> u;
};

/// One importance-sampled phase: draw n samples from the mean-shifted
/// proposal, evaluate f, and record value + weight + surrogate delay per
/// sample index. `phase_tag`/`perm_tag` select the counter-stream family
/// (stream_tag::kIsPilot*/kIsMain*), keeping the pilot and main draws
/// independent of each other and of plain MC.
void run_is_phase(const RunOptions& opt, obs::Registry* reg,
                  const BatchPerformanceFn& f,
                  const std::vector<VariationSource>& sources,
                  const IsSurrogate& sur, std::size_t n,
                  std::uint64_t phase_tag, std::uint64_t perm_tag,
                  bool keep_u, PhaseSlots& out) {
  const std::size_t nw = sources.size();

  // |theta|^2 of the proposal shift; exact_zero() detects the degenerate
  // plain-MC case where every likelihood ratio must be exactly 1.0.
  double theta_sq = 0.0;
  for (std::size_t d = 0; d < nw; ++d) {
    theta_sq += sur.shift[d] * sur.shift[d];
  }
  const bool shifted = !numeric::exact_zero(theta_sq);

  // Latin-Hypercube strata, independent of the plain-MC permutations via
  // perm_tag.
  const detail::LhsStrata strata(opt.latin_hypercube, opt.seed, nw, n,
                                 perm_tag);

  out.weight.assign(n, 1.0);
  out.surrogate.assign(n, 0.0);
  out.u.clear();
  if (keep_u) out.u.resize(n);

  // Each index is drawn once, on the thread evaluating its block, so the
  // per-index weight, surrogate and u writes never overlap.
  const auto draw = [&](std::size_t s) {
    SplitMix64 stream = sample_stream(opt.seed, s, phase_tag);
    Vector w(nw);
    double score = 0.0;       // theta . u over the normal dimensions
    double sur_delta = 0.0;   // gradient . (w - mean)
    Vector uvec;
    if (keep_u) uvec.assign(nw, 0.0);
    for (std::size_t d = 0; d < nw; ++d) {
      const double uu = strata.variate(d, s, stream.uniform_open());
      const VariationSource& src = sources[d];
      if (src.kind == VariationSource::Kind::kUniform) {
        // Uniform sources are never shifted (a mean shift would break
        // the absolute continuity the likelihood ratio needs); they
        // contribute a ratio factor of exactly 1.
        w[d] = to_uniform(uu, src.mean - src.sigma, src.mean + src.sigma);
      } else {
        const double u_d = inverse_normal_cdf(uu) +
                           (shifted ? sur.shift[d] : 0.0);
        w[d] = src.mean + src.sigma * u_d;
        score += sur.shift[d] * u_d;
        if (keep_u) uvec[d] = u_d;
      }
      sur_delta += sur.gradient[d] * (w[d] - src.mean);
    }
    // Likelihood ratio p(u)/q(u) = exp(|theta|^2/2 - theta . u), taken as
    // the reciprocal of exp(theta . u - |theta|^2/2): exp() of the negated
    // argument can differ in the last bit, and recorded results pin this
    // form. The degenerate zero-shift proposal is the original
    // distribution, so the ratio is pinned to exactly 1.0 rather than
    // round-tripped through exp().
    out.weight[s] = shifted ? 1.0 / std::exp(score - 0.5 * theta_sq) : 1.0;
    out.surrogate[s] = sur.nominal + sur_delta;
    if (keep_u) out.u[s] = std::move(uvec);
    return w;
  };
  detail::evaluate_blocks(opt.exec, reg, f, n, draw,
                          "stats.yield_is.block_seconds", out.eval);
}

}  // namespace

IsYieldEstimate Runner::run_yield_is(
    const BatchPerformanceFn& f, const std::vector<VariationSource>& sources,
    double clock_period) const {
  DriverContext obs_ctx(opt_.registry);
  obs::Registry* reg = obs_ctx.registry();
  obs::ScopedSpan span("stats.yield_is");
  detail::check_sampling("run_yield_is", sources.size(), opt_.samples);
  const ImportanceOptions& is_opt = opt_.importance;
  const std::size_t nw = sources.size();
  if (is_opt.control_variate) {
    for (const VariationSource& src : sources) {
      if (src.kind != VariationSource::Kind::kNormal) {
        sim::throw_invalid_input(
            "run_yield_is: the control variate needs the exact Gaussian "
            "surrogate tail probability, so every VariationSource must be "
            "kNormal (disable ImportanceOptions::control_variate or drop "
            "the uniform sources)");
      }
    }
  }

  // ---- Surrogate: linear delay model from the gradient sensitivities.
  // A failed nominal evaluation rethrows out of run_gradients (there is
  // no surrogate about a point that does not evaluate); under kSkip a
  // failed probe zeroes that source's gradient entry, which simply drops
  // the source from the shift.
  const GradientAnalysisResult ga = run_gradients(f, sources);

  IsYieldEstimate res;
  res.surrogate.nominal = ga.nominal;
  res.surrogate.gradient = ga.gradient;
  res.surrogate.sigma = ga.stddev;
  res.surrogate.shift.assign(nw, 0.0);
  res.main_samples = opt_.samples;

  // Most-probable failure point of the surrogate in standardized units:
  // minimize |u|^2 subject to sum_d a_d u_d = margin over the *normal*
  // dimensions (a_d = g_d sigma_d). Uniform sources cannot be shifted
  // and stay at zero.
  const double margin = clock_period - ga.nominal;
  res.surrogate.beta =
      res.surrogate.sigma > 0.0 ? margin / res.surrogate.sigma : 0.0;
  double a_norm_sq = 0.0;
  for (std::size_t d = 0; d < nw; ++d) {
    if (sources[d].kind != VariationSource::Kind::kNormal) continue;
    const double a_d = ga.gradient[d] * sources[d].sigma;
    a_norm_sq += a_d * a_d;
  }
  const bool degenerate = !(a_norm_sq > 0.0) || !(margin > 0.0);
  if (!degenerate) {
    for (std::size_t d = 0; d < nw; ++d) {
      if (sources[d].kind != VariationSource::Kind::kNormal) continue;
      const double a_d = ga.gradient[d] * sources[d].sigma;
      res.surrogate.shift[d] = a_d * margin / a_norm_sq;
    }
  }

  // ---- Pilot phase (adaptive two-phase allocation): refine the
  // analytic shift with the cross-entropy update -- the
  // likelihood-weighted centroid of the failing pilot samples, which is
  // the closed-form CE-optimal mean for a Gaussian proposal family.
  PhaseSlots slots;
  if (is_opt.pilot_samples > 0 && !degenerate) {
    obs::ScopedSpan pilot_span("stats.yield_is.pilot");
    run_is_phase(opt_, reg, f, sources, res.surrogate,
                 is_opt.pilot_samples, stream_tag::kIsPilot,
                 stream_tag::kIsPilotPerm, /*keep_u=*/true, slots);
    detail::fold_failures(slots.eval, res.pilot_failures);
    res.pilot_used = is_opt.pilot_samples;
    double wsum = 0.0;
    Vector centroid(nw);
    centroid.assign(nw, 0.0);
    for (std::size_t s = 0; s < is_opt.pilot_samples; ++s) {
      const BatchSlot& e = slots.eval[s];
      if (e.failed || !(e.value > clock_period)) continue;
      wsum += slots.weight[s];
      for (std::size_t d = 0; d < nw; ++d) {
        centroid[d] += slots.weight[s] * slots.u[s][d];
      }
    }
    if (wsum > 0.0) {
      for (std::size_t d = 0; d < nw; ++d) {
        if (sources[d].kind != VariationSource::Kind::kNormal) continue;
        res.surrogate.shift[d] = centroid[d] / wsum;
      }
    }
    // No failing pilot sample: the analytic shift stands unrefined.
  }

  // ---- Main phase.
  {
    obs::ScopedSpan main_span("stats.yield_is.main");
    run_is_phase(opt_, reg, f, sources, res.surrogate, opt_.samples,
                 stream_tag::kIsMain, stream_tag::kIsMainPerm,
                 /*keep_u=*/false, slots);
  }

  // ---- Serial sample-order fold: failure summary, estimator moments,
  // ESS, obs distributions. This ordering discipline is what makes the
  // result (and the merged obs counters) thread-count invariant.
  detail::fold_failures(slots.eval, res.failures);
  const std::size_t n_surv = res.failures.survived;
  res.values.reserve(n_surv);
  res.weights.reserve(n_surv);
  std::uint64_t pass = 0;
  double sy = 0.0, syy = 0.0;        // y_i = L_i * 1{D_i > T}
  double sc = 0.0, scc = 0.0;        // c_i = L_i * 1{surrogate_i > T}
  double syc = 0.0;
  double sw = 0.0, sww = 0.0;        // raw weights, for ESS
  for (std::size_t s = 0; s < opt_.samples; ++s) {
    if (slots.eval[s].failed) continue;
    const double v = slots.eval[s].value;
    const double lr = slots.weight[s];
    const double y = v > clock_period ? lr : 0.0;
    const double c = slots.surrogate[s] > clock_period ? lr : 0.0;
    if (!(v > clock_period)) ++pass;
    res.values.push_back(v);
    res.weights.push_back(lr);
    obs::record_value("stats.yield_is.likelihood_ratio", lr);
    sy += y;
    syy += y * y;
    sc += c;
    scc += c * c;
    syc += y * c;
    sw += lr;
    sww += lr * lr;
  }

  if (n_surv == 0) {
    // Every sample failed under kSkip: same ISLE-style convention as
    // McYieldEstimate -- a sample that diverges cannot meet timing.
    res.yield = 0.0;
    res.yield_loss = 1.0;
  } else {
    const double ns = static_cast<double>(n_surv);
    const double p = sy / ns;
    double variance = 0.0;  // per-sample variance of the fold
    if (n_surv > 1) {
      variance = (syy - ns * p * p) / (ns - 1.0);
    }
    res.yield_loss = p;
    if (is_opt.control_variate) {
      res.control_variate_used = true;
      res.control_expectation = normal_cdf(-res.surrogate.beta);
      const double cbar = sc / ns;
      if (n_surv > 1) {
        const double var_c = (scc - ns * cbar * cbar) / (ns - 1.0);
        const double cov = (syc - ns * p * cbar) / (ns - 1.0);
        if (var_c > 0.0) {
          res.control_coefficient = cov / var_c;
          res.yield_loss =
              p - res.control_coefficient * (cbar - res.control_expectation);
          variance -= cov * cov / var_c;  // residual variance at c*
          if (variance < 0.0) variance = 0.0;
        }
        // var_c == 0 (the surrogate never crossed T in-sample): the
        // control carries no information; fall through with c* = 0.
      }
    }
    if (n_surv > 1) {
      res.std_error = std::sqrt(variance / ns);
    }
    // The CV correction (and pathological weights) can push the point
    // estimate marginally outside [0, 1]; yield is reported clamped,
    // yield_loss is left raw so the bias behaviour stays visible.
    double y_clamped = 1.0 - res.yield_loss;
    if (y_clamped < 0.0) y_clamped = 0.0;
    if (y_clamped > 1.0) y_clamped = 1.0;
    res.yield = y_clamped;
  }
  res.ess = sww > 0.0 ? sw * sw / sww : 0.0;

  obs::add_counter("stats.yield_is.samples",
                   static_cast<std::uint64_t>(opt_.samples));
  obs::add_counter("stats.yield_is.pilot_samples",
                   static_cast<std::uint64_t>(res.pilot_used));
  obs::add_counter("stats.yield_is.skipped",
                   static_cast<std::uint64_t>(res.failures.failed() +
                                              res.pilot_failures.failed()));
  obs::add_counter("stats.yield_is.pass", pass);
  if (degenerate) obs::add_counter("stats.yield_is.degenerate_shift");
  obs::record_value("stats.yield_is.ess", res.ess);
  return res;
}

}  // namespace lcsf::stats
