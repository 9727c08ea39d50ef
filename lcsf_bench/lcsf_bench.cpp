// lcsf_bench: the repository's benchmark program, one process per workload.
//
//   lcsf_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--serve-bin PATH] [--trace-out FILE]
//
// Workloads (README.md gives the reasons):
//   mc_long_path  Monte Carlo on s9234's 58-stage longest path, all four
//                 sigmas nonzero (the batched TETA hot path).
//   wide_wire     s208's longest path at 500 elements/stage: cold
//                 characterization dominates set-up (the paper's Table 4).
//   graph_topk    graph session, s1423 top-16 paths (scalar engine, stage
//                 memo, merges).
//   serve_mixed   lcsf_serve as a child process under a seeded request mix
//                 on three persistent connections.
//   serve_explain bench_serve's configuration (8 clients, threads unset),
//                 split into queue wait and analysis; not a timed workload.
//
// --trace 0 measures the end-to-end metrics with nothing traced; --trace 1
// replays the same inputs through each layer's public functions and
// reports the per-layer ledger (writing the spans to --trace-out as
// Chrome trace JSON). The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A failed check makes the
// exit status 1. LCSF_BENCH_QUICK=1 shrinks every size for smoke runs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "bench_common.hpp"
#include "ledger.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve_load.hpp"
#include "timing/graph.hpp"

namespace {

using namespace lcsf;
using namespace lcsf::benchsuite;

// ---- report --------------------------------------------------------------

/// Every per-layer metric the trace run reports, with its unit. A metric a
/// workload does not exercise reads 0 (README.md lists which workload
/// moves which metric).
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"timing.generate.ms", "ms"},
    {"mor.characterize.ms", "ms"},
    {"mor.characterize.count", "count"},
    {"api.load.other.ms", "ms"},
    {"mor.evaluate.us_per_stage", "us"},
    {"mor.poleres.us_per_stage", "us"},
    {"mor.stabilize.us_per_stage", "us"},
    {"mor.dropped_poles.per_stage", "count"},
    {"teta.build.us_per_stage", "us"},
    {"teta.setup_dc.us_per_stage", "us"},
    {"teta.step_loop.us_per_stage", "us"},
    {"teta.scalar.us_per_stage", "us"},
    {"teta.chord_iters.per_stage", "count"},
    {"teta.lockstep.frac", "1"},
    {"teta.window_retry.frac", "1"},
    {"timing.measure.us_per_stage", "us"},
    {"core.propagate.us_per_stage", "us"},
    {"core.stage_sims.per_sample", "count"},
    {"core.memo_hit.frac", "1"},
    {"core.merges.per_sample", "count"},
    {"core.evaluate.ms_per_sample", "ms"},
    {"stats.overhead.ms_per_sample", "ms"},
    {"ledger.coverage", "1"},
    {"runtime.scaling.eff", "1"},
    {"spice.ms_per_sample", "ms"},
    {"spice.speedup", "1"},
    {"spice.rel_err", "1"},
    {"spice.newton_iters.per_sample", "count"},
    {"spice.steps.per_sample", "count"},
    {"spice.lu_refactor.frac", "1"},
    {"serve.parse.us", "us"},
    {"serve.cache.hit.us", "us"},
    {"serve.cache.miss.ms", "ms"},
    {"serve.analyze.ms", "ms"},
    {"serve.encode.us", "us"},
    {"serve.cache.hit.frac", "1"},
    {"serve.cache.evictions.per_1k", "count"},
    {"serve.dispatch.p50_ms", "ms"},
    {"serve.wait.p50_ms", "ms"},
    {"serve.latency.p90_ms", "ms"},
    {"serve.generator.late_ms", "ms"},
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    values_[name] = {value, unit};
  }
  /// Per-layer metric declared in kLayerMetrics.
  void layer(const std::string& name, double value) {
    for (const auto& [n, unit] : kLayerMetrics) {
      if (name == n) {
        set(name, value, unit);
        return;
      }
    }
    throw std::logic_error("undeclared layer metric " + name);
  }
  void layer_defaults() {
    for (const auto& [n, unit] : kLayerMetrics) set(n, 0.0, unit);
  }
  void check(const std::string& what, bool ok) {
    std::printf("check  %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) {
      correct_ = false;
      ++failed;
    }
  }
  bool correct() const { return correct_; }

  void print() const {
    for (const auto& [name, v] : values_) {
      std::printf("metric %-34s %16.6f %s\n", name.c_str(), v.first,
                  v.second.c_str());
    }
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool first = true;
    char buf[64];
    for (const auto& [name, v] : values_) {
      std::snprintf(buf, sizeof(buf), "%.17g", v.first);
      out += first ? "" : ", ";
      first = false;
      out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             v.second + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
  bool correct_ = true;
};

std::size_t worker_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

std::uint64_t job_seed(std::uint64_t seed, std::size_t rep) {
  return seed * 1000003u + rep + 1;
}

bool same_values(const stats::MonteCarloResult& a,
                 const stats::MonteCarloResult& b) {
  return a.values.size() == b.values.size() &&
         a.failures.failed() == b.failures.failed() &&
         std::memcmp(a.values.data(), b.values.data(),
                     a.values.size() * sizeof(double)) == 0;
}

// ---- Monte-Carlo workloads -----------------------------------------------

struct McWorkload {
  api::DesignSpec spec;
  core::PathVariationModel model;
  /// Samples per one-thread job. A parallel job holds four times as many,
  /// so every thread takes several blocks from the shared work queue and
  /// one preempted thread does not set the job's time.
  std::size_t job = 16;
  std::size_t spice_samples = 2;  ///< comparator samples in the trace run
  bool spice_gate = false;        ///< check spice.rel_err <= 0.05
};

McWorkload mc_workload(const std::string& name, bool quick) {
  McWorkload w;
  // Nonzero wire sigmas force real ROM evaluation (the all-zero-w fast
  // path is bypassed).
  w.model.std_dl = w.model.std_vt = 0.33;
  w.model.std_wire_w = w.model.std_wire_h = 0.33;
  if (name == "mc_long_path") {
    w.spec.circuit = quick ? "s27" : "s9234";
    w.job = quick ? 8 : 16;
    w.spice_samples = 1;
  } else if (name == "wide_wire") {
    w.spec.circuit = quick ? "s27" : "s208";
    w.spec.elements = quick ? 100 : 500;
    w.job = quick ? 8 : 32;
    w.spice_samples = quick ? 1 : 5;
    w.spice_gate = true;
  } else if (name == "graph_topk") {
    w.spec.circuit = quick ? "s208" : "s1423";
    w.spec.graph = true;
    w.spec.top_k = quick ? 4 : 16;
    w.job = 8;
    w.spice_samples = 1;
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  return w;
}

struct Job {
  stats::MonteCarloResult mc;
  double seconds = 0.0;
};

Job run_job(const api::Session& s, const McWorkload& w, std::uint64_t seed,
            std::size_t samples, std::size_t threads, Report& rep) {
  stats::RunOptions opt;
  opt.samples = samples;
  opt.seed = seed;
  opt.exec.threads = threads;
  opt.exec.batch = stats::kDefaultBatch;
  opt.exec.on_failure = stats::FailurePolicy::kSkip;
  Job j;
  const double t0 = now_s();
  j.mc = s.run_monte_carlo(w.model, opt);
  j.seconds = now_s() - t0;
  rep.attempted += samples;
  rep.failed += j.mc.failures.failed();
  return j;
}

double rate(const Job& j) {
  return static_cast<double>(j.mc.failures.attempted) / j.seconds;
}

/// One cold Session::load (a fresh session: nothing is cached between
/// loads); returns its seconds.
double cold_load(const api::DesignSpec& spec,
                 std::shared_ptr<api::Session>& session) {
  const double t0 = now_s();
  session = api::Session::load(spec);
  return now_s() - t0;
}

void run_mc(const McWorkload& w, std::uint64_t seed, double seconds,
            Report& rep) {
  std::shared_ptr<api::Session> s;
  std::vector<double> loads;
  while (loads.size() < 3) loads.push_back(cold_load(w.spec, s));
  const std::size_t threads = worker_threads();

  // The discarded warm-ups of both passes run the same (seed, samples):
  // they double as the thread-count invariance check.
  const Job warm_par = run_job(*s, w, job_seed(seed, 0), w.job, threads, rep);
  const Job warm_ser = run_job(*s, w, job_seed(seed, 0), w.job, 1, rep);
  rep.check("1-thread and " + std::to_string(threads) +
                "-thread Monte-Carlo values bitwise equal",
            same_values(warm_par.mc, warm_ser.mc));

  // The host's speed drifts over seconds, so the passes interleave: every
  // round runs one job of each kind (and more loads while they are
  // cheap), and each metric is the median over rounds spanning the run.
  const bool cheap_loads = median(loads) < 0.05;
  std::vector<double> rates, ms_per_sample;
  const double start = now_s();
  for (std::size_t r = 1; r <= 3 || now_s() - start < seconds; ++r) {
    rates.push_back(
        rate(run_job(*s, w, job_seed(seed, r), 4 * w.job, threads, rep)));
    ms_per_sample.push_back(
        1e3 / rate(run_job(*s, w, job_seed(seed, r), w.job, 1, rep)));
    for (int i = 0; cheap_loads && i < 3; ++i) {
      loads.push_back(cold_load(w.spec, s));
    }
  }

  rep.set("setup_s", median(loads), "s");
  rep.set("throughput", median(rates), "1/s");
  rep.set("latency_ms", median(ms_per_sample), "ms");
  rep.set("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Per-stage ledger metrics shared by every workload's trace run.
void report_stage_layers(const Tracer& tr, const ReplayCounts& c,
                         bool batched, double untraced_ms_per_sample,
                         Report& rep) {
  const double ls =
      static_cast<double>(std::max<std::size_t>(1, c.stage_sims));
  const double ns = static_cast<double>(std::max<std::size_t>(1, c.samples));
  auto us = [&](const char* name) { return tr.self_s(name) / ls * 1e6; };
  const double teta_main = tr.total_s(batched ? "teta.batch" : "teta.scalar");
  const double setup_dc = tr.total_s("probe.teta.setup_dc");
  rep.layer("mor.evaluate.us_per_stage", us("mor.evaluate"));
  rep.layer("mor.poleres.us_per_stage", us("mor.poleres"));
  rep.layer("mor.stabilize.us_per_stage", us("mor.stabilize"));
  rep.layer("mor.dropped_poles.per_stage",
            static_cast<double>(c.dropped_poles) / ls);
  rep.layer("teta.build.us_per_stage", us("teta.build"));
  rep.layer("teta.setup_dc.us_per_stage", setup_dc / ls * 1e6);
  rep.layer("teta.step_loop.us_per_stage", (teta_main - setup_dc) / ls * 1e6);
  rep.layer("teta.scalar.us_per_stage",
            (batched ? tr.total_s("probe.teta.scalar") : teta_main) / ls *
                1e6);
  rep.layer("teta.chord_iters.per_stage",
            static_cast<double>(c.chord_iters) / ls);
  rep.layer("teta.lockstep.frac", static_cast<double>(c.lockstep) / ls);
  rep.layer("teta.window_retry.frac",
            static_cast<double>(c.window_retry) / ls);
  rep.layer("timing.measure.us_per_stage", us("timing.measure"));
  rep.layer("core.propagate.us_per_stage",
            us("core.propagate") + us("core.memo"));
  rep.layer("core.stage_sims.per_sample", ls / ns);
  rep.layer("core.memo_hit.frac",
            static_cast<double>(c.memo_hits) /
                static_cast<double>(std::max<std::size_t>(
                    1, c.memo_hits + c.stage_sims)));
  rep.layer("core.merges.per_sample", static_cast<double>(c.merges) / ns);

  double ledger_s = 0.0;
  for (const char* name :
       {"core.sample", "core.propagate", "core.memo", "mor.evaluate",
        "mor.poleres", "mor.stabilize", "teta.build", "teta.batch",
        "teta.scalar", "timing.measure", "core.fallback"}) {
    ledger_s += tr.self_s(name);
  }
  const double ledger_ms = ledger_s / ns * 1e3;
  rep.layer("core.evaluate.ms_per_sample", ledger_ms);
  rep.layer("stats.overhead.ms_per_sample",
            untraced_ms_per_sample - ledger_ms);
  rep.layer("ledger.coverage", ledger_ms / untraced_ms_per_sample);
  rep.check("replayed delays bitwise equal to the Monte-Carlo values (" +
                std::to_string(c.samples) + " samples)",
            c.mismatches == 0 && c.samples > 0);
}

void report_spice(const SpiceCompare& sc, bool gate, Report& rep) {
  const double n = static_cast<double>(std::max<std::size_t>(1, sc.samples));
  rep.layer("spice.ms_per_sample", sc.spice_s / n * 1e3);
  rep.layer("spice.speedup", sc.spice_s / sc.framework_s);
  rep.layer("spice.rel_err", sc.max_rel_err);
  rep.layer("spice.newton_iters.per_sample",
            static_cast<double>(sc.newton_iters) / n);
  rep.layer("spice.steps.per_sample", static_cast<double>(sc.steps) / n);
  rep.layer("spice.lu_refactor.frac",
            static_cast<double>(sc.lu_refactors) /
                static_cast<double>(std::max<std::uint64_t>(
                    1, sc.lu_refactors + sc.lu_full_factors)));
  if (gate) {
    rep.check("framework within 5% of SPICE on every compared sample",
              sc.max_rel_err <= 0.05);
  }
}

/// Set-up ledger of one design: netlist generation and path enumeration,
/// stage-load characterization, and the rest of a cold Session::load.
struct SetupLedger {
  double generate_s = 0.0;
  double characterize_s = 0.0;
  double load_s = 0.0;
  std::size_t blocks = 0;
};

void report_setup(const SetupLedger& l, Report& rep) {
  rep.layer("timing.generate.ms", l.generate_s * 1e3);
  rep.layer("mor.characterize.ms", l.characterize_s * 1e3);
  rep.layer("mor.characterize.count", static_cast<double>(l.blocks));
  rep.layer("api.load.other.ms",
            (l.load_s - l.generate_s - l.characterize_s) * 1e3);
}

double time_generate(const api::DesignSpec& spec, Tracer& tr) {
  Tracer::Scope span(tr, "timing.generate");
  const double t0 = now_s();
  const timing::GateNetlist nl =
      timing::generate_benchmark(timing::find_benchmark(spec.circuit));
  if (spec.graph) {
    const timing::TimingGraph g(nl);
    (void)g.k_most_critical_paths(spec.top_k);
  } else {
    (void)timing::longest_path(nl);
  }
  return now_s() - t0;
}

void trace_mc(const McWorkload& w, std::uint64_t seed, Report& rep,
              Tracer& tr) {
  // Each set-up layer is the median of three cold runs, like the load.
  std::shared_ptr<api::Session> s;
  SetupLedger setup;
  std::vector<double> load_t, gen_t, char_t;
  PathModels pm;
  GraphModels gm;
  const core::PathAnalyzer* pa = nullptr;
  const core::GraphAnalyzer* ga = nullptr;
  for (int i = 0; i < 3; ++i) {
    gen_t.push_back(time_generate(w.spec, tr));
    {
      Tracer::Scope span(tr, "api.load");
      load_t.push_back(cold_load(w.spec, s));
    }
    pa = s->path_analyzer();
    ga = s->graph_analyzer();
    const double t0 = now_s();
    if (pa != nullptr) {
      pm = characterize_path(pa->spec(), tr);
    } else {
      gm = characterize_graph(*ga, tr);
    }
    char_t.push_back(now_s() - t0);
    setup.blocks = pa != nullptr ? pm.blocks : gm.blocks;
  }
  setup.generate_s = median(gen_t);
  setup.load_s = median(load_t);
  setup.characterize_s = median(char_t);
  report_setup(setup, rep);

  const std::size_t threads = worker_threads();
  const Job warm = run_job(*s, w, job_seed(seed, 0), w.job, threads, rep);
  // Three rounds of (parallel job, untraced 1-thread job, traced replay of
  // that job's samples): each replay follows its untraced baseline within
  // a second, so the host's drift cancels out of ledger.coverage.
  ReplayCounts c;
  double untraced_s = 0.0;
  std::vector<double> eff;
  bool same = true;
  for (std::size_t r = 1; r <= 3; ++r) {
    const Job par = run_job(*s, w, job_seed(seed, r), 4 * w.job, threads, rep);
    const Job ser = run_job(*s, w, job_seed(seed, 0), w.job, 1, rep);
    same = same && same_values(warm.mc, ser.mc);
    untraced_s += ser.seconds;
    eff.push_back(rate(par) / (static_cast<double>(threads) * rate(ser)));
    c += pa != nullptr ? replay_path(*pa, pm, w.model, ser.mc,
                                     stats::kDefaultBatch, tr)
                       : replay_graph(*ga, gm, w.model, ser.mc, tr);
  }
  rep.check("1-thread and " + std::to_string(threads) +
                "-thread Monte-Carlo values bitwise equal",
            same);
  report_stage_layers(tr, c, pa != nullptr,
                      untraced_s * 1e3 / static_cast<double>(c.samples), rep);
  rep.layer("runtime.scaling.eff", median(eff));

  // The comparator runs on the analyzed path itself, or on the graph's
  // most critical path.
  std::unique_ptr<core::PathAnalyzer> top;
  if (pa == nullptr) {
    core::PathSpec ps = core::PathSpec::from_benchmark(
        s->tech(), s->netlist(), ga->paths().front(), w.spec.elements);
    ps.stage_window = w.spec.stage_window;
    top = std::make_unique<core::PathAnalyzer>(ps);
    pa = top.get();
  }
  report_spice(spice_compare(*pa, w.model, w.spice_samples, job_seed(seed, 1),
                             tr),
               w.spice_gate, rep);
}

// ---- serve workloads -----------------------------------------------------

struct ServeWorkload {
  std::vector<Design> designs;
  std::size_t mc_samples = 16;
  std::size_t load_elements_base = 201;
  std::size_t workers = 3;
  /// Design-cache budget. Sessions are tens of KB and --cache-mb counts
  /// whole MB, so 1 is the smallest budget that keeps the working set.
  std::size_t cache_mb = 1;
  double rate = 10.0;  ///< open-loop requests per second
};

ServeWorkload serve_workload(bool quick) {
  ServeWorkload w;
  if (quick) {
    w.designs = {{"s27", 10}, {"s27", 40}};
    w.mc_samples = 8;
    w.load_elements_base = 41;
    return w;
  }
  for (const char* c : {"s27", "s208", "s832"}) {
    for (const std::size_t e : {10u, 200u}) w.designs.push_back({c, e});
  }
  return w;
}

bool response_ok(const std::string& response) {
  const serve::Json r = serve::Json::parse(response);
  const serve::Json* ok = r.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

/// Start a server and cold-load the working set on one connection;
/// returns the server and the time from spawn to the last answer.
std::unique_ptr<ServerProcess> start_server(const ServeWorkload& w,
                                            const std::string& bin,
                                            double* setup_s, Report& rep) {
  const double t0 = now_s();
  auto srv = std::make_unique<ServerProcess>(bin, w.workers, w.cache_mb);
  Connection c(srv->port());
  std::size_t id = 0;
  for (const Design& d : w.designs) {
    const bool ok = response_ok(c.request(RequestMix::load_line(++id, d)));
    ++rep.attempted;
    if (!ok) ++rep.failed;
  }
  *setup_s = now_s() - t0;
  return srv;
}

std::vector<double> latencies_ms(const std::vector<Exchange>& xs) {
  std::vector<double> v;
  for (const Exchange& x : xs) v.push_back((x.done - x.due) * 1e3);
  return v;
}

/// Completion rate of one closed loop: answers over the time from its
/// start to its last answer (not a fixed window, which would quantize it).
double closed_rate(const std::vector<Exchange>& xs) {
  double start = xs.front().due;
  double end = xs.front().done;
  for (const Exchange& x : xs) {
    start = std::min(start, x.due);
    end = std::max(end, x.done);
  }
  return static_cast<double>(xs.size()) / (end - start);
}

/// Count every exchange, check it answered ok, and compare up to `limit`
/// evenly spaced responses byte-for-byte with an in-process dispatch of
/// the same line (limit 0 = all of them).
void verify_exchanges(const std::vector<Exchange>& xs, std::size_t cache_mb,
                      std::size_t limit, Report& rep) {
  std::size_t not_ok = 0;
  for (const Exchange& x : xs) {
    ++rep.attempted;
    if (!response_ok(x.response)) ++not_ok;
  }
  rep.failed += not_ok;
  rep.check("every server response ok (" + std::to_string(xs.size()) +
                " requests)",
            not_ok == 0);
  serve::DesignCache cache(serve::DesignCache::Config{cache_mb << 20});
  serve::ServeContext ctx;
  ctx.cache = &cache;
  const std::size_t stride =
      limit == 0 ? 1 : std::max<std::size_t>(1, xs.size() / limit);
  std::size_t compared = 0;
  std::size_t differ = 0;
  for (std::size_t i = 0; i < xs.size(); i += stride) {
    ++compared;
    if (serve::dispatch_request(xs[i].line, ctx).response != xs[i].response) {
      ++differ;
    }
  }
  rep.failed += differ;
  rep.check("server responses byte-equal to in-process dispatch (" +
                std::to_string(compared) + " compared)",
            differ == 0);
}

void run_serve(const ServeWorkload& w, const std::string& bin,
               std::uint64_t seed, double seconds, Report& rep) {
  std::vector<double> setups(3);
  std::unique_ptr<ServerProcess> srv;
  for (double& t : setups) {
    if (srv) srv->shutdown();
    srv = start_server(w, bin, &t, rep);
  }
  RequestMix mix(seed, w.designs, w.mc_samples, w.load_elements_base);
  const RequestSource next = [&mix](std::string* type) {
    return mix.next(type);
  };
  // The host's speed drifts over seconds, so open-loop and closed-loop
  // phases alternate in rounds spanning the run: latency is the p50 over
  // every open-loop request, throughput the median closed-loop rate.
  const int rounds = 4;
  const auto per_round = std::max<std::size_t>(
      5,
      static_cast<std::size_t>(std::lround(w.rate * 0.5 * seconds / rounds)));
  std::vector<Exchange> all, open;
  std::vector<double> rates;
  {
    LoadGenerator gen(srv->port(), w.workers);
    all = gen.closed_loop(next, std::min(1.0, 0.1 * seconds));  // warm-up
    for (int r = 0; r < rounds; ++r) {
      const std::vector<Exchange> o = gen.open_loop(next, w.rate, per_round);
      const std::vector<Exchange> c =
          gen.closed_loop(next, 0.4 * seconds / rounds);
      rates.push_back(closed_rate(c));
      open.insert(open.end(), o.begin(), o.end());
      all.insert(all.end(), o.begin(), o.end());
      all.insert(all.end(), c.begin(), c.end());
    }
  }
  const double rss = peak_rss_mb(srv->pid());
  srv->shutdown();
  verify_exchanges(all, w.cache_mb, 12, rep);

  rep.set("setup_s", median(setups), "s");
  rep.set("throughput", median(rates), "1/s");
  rep.set("latency_ms", median(latencies_ms(open)), "ms");
  rep.set("peak_rss_mb", rss, "MB");
}

/// p50 of the server's own dispatch-time distribution (serve.request_ms)
/// from a `metrics` request.
double server_dispatch_p50(int port) {
  Connection c(port);
  const serve::Json r =
      serve::Json::parse(c.request(R"({"id":"m","type":"metrics"})"));
  const serve::Json* m = r.find("metrics");
  const serve::Json* d = m != nullptr ? m->find("distributions") : nullptr;
  const serve::Json* q = d != nullptr ? d->find("serve.request_ms") : nullptr;
  const serve::Json* p = q != nullptr ? q->find("p50") : nullptr;
  if (p == nullptr) throw std::runtime_error("metrics lack serve.request_ms");
  return p->as_double();
}

api::DesignSpec spec_of(const Design& d) {
  api::DesignSpec s;
  s.circuit = d.circuit;
  s.elements = d.elements;
  return s;
}

void trace_serve(const ServeWorkload& w, const std::string& bin,
                 std::uint64_t seed, double seconds, Report& rep,
                 Tracer& tr) {
  // Set-up ledger over the working set, and the stage models the
  // per-sample replay needs.
  SetupLedger setup;
  std::map<std::string, PathModels> models;
  for (const Design& d : w.designs) {
    const api::DesignSpec spec = spec_of(d);
    setup.generate_s += time_generate(spec, tr);
    std::shared_ptr<api::Session> s;
    {
      Tracer::Scope span(tr, "api.load");
      setup.load_s += cold_load(spec, s);
    }
    const double t0 = now_s();
    PathModels& pm = models[s->key()];
    pm = characterize_path(s->path_analyzer()->spec(), tr);
    setup.characterize_s += now_s() - t0;
    setup.blocks += pm.blocks;
  }
  report_setup(setup, rep);

  // Live server: open loop, the server's own dispatch times, then a short
  // closed loop for the scaling figure. No warm-up here, so the server's
  // dispatch distribution holds only the working-set loads and the open
  // loop.
  double setup_s = 0.0;
  auto srv = start_server(w, bin, &setup_s, rep);
  RequestMix mix(seed, w.designs, w.mc_samples, w.load_elements_base);
  const RequestSource next = [&mix](std::string* type) {
    return mix.next(type);
  };
  std::vector<Exchange> open, closed;
  {
    LoadGenerator gen(srv->port(), w.workers);
    open = gen.open_loop(
        next, w.rate,
        std::max<std::size_t>(10, static_cast<std::size_t>(
                                      std::lround(w.rate * 0.5 * seconds))));
  }
  const double dispatch_p50 = server_dispatch_p50(srv->port());
  {
    LoadGenerator gen(srv->port(), w.workers);
    closed = gen.closed_loop(next, 0.2 * seconds);
  }
  srv->shutdown();
  const std::vector<double> lat = latencies_ms(open);
  double late = 0.0;
  for (const Exchange& x : open) late = std::max(late, x.queued - x.due);
  rep.layer("serve.dispatch.p50_ms", dispatch_p50);
  rep.layer("serve.wait.p50_ms", median(lat) - dispatch_p50);
  rep.layer("serve.latency.p90_ms", percentile(lat, 0.9));
  rep.layer("serve.generator.late_ms", late * 1e3);

  // In-process replay of the open-loop lines. Cache `a` serves
  // dispatch_request; `b` (same history) times the cache layer alone.
  serve::DesignCache a(serve::DesignCache::Config{w.cache_mb << 20});
  serve::DesignCache b(serve::DesignCache::Config{w.cache_mb << 20});
  for (const Design& d : w.designs) {
    (void)a.get(spec_of(d));
    (void)b.get(spec_of(d));
  }
  const serve::DesignCache::Stats b0 = b.stats();
  serve::ServeContext ctx;
  ctx.cache = &a;
  std::vector<double> parse, hit, miss, analyze, encode, dispatch;
  std::size_t differ = 0;
  for (const Exchange& x : open) {
    Tracer::Scope request(tr, "serve.request");
    double t0 = now_s();
    serve::Json req;
    {
      Tracer::Scope span(tr, "serve.parse");
      req = serve::Json::parse(x.line);
    }
    const double t_parse = now_s() - t0;
    Design d{req.find("circuit")->as_string(),
             static_cast<std::size_t>(req.find("elements")->as_int())};
    const std::uint64_t misses = b.stats().misses;
    t0 = now_s();
    {
      Tracer::Scope span(tr, "serve.cache");
      (void)b.get(spec_of(d));
    }
    const double t_cache = now_s() - t0;
    (b.stats().misses > misses ? miss : hit).push_back(t_cache);
    t0 = now_s();
    std::string response;
    {
      Tracer::Scope span(tr, "serve.dispatch");
      response = serve::dispatch_request(x.line, ctx).response;
    }
    const double t_dispatch = now_s() - t0;
    if (response != x.response) ++differ;
    const serve::Json parsed = serve::Json::parse(response);
    t0 = now_s();
    {
      Tracer::Scope span(tr, "serve.encode");
      (void)parsed.dump();
    }
    const double t_encode = now_s() - t0;
    parse.push_back(t_parse);
    encode.push_back(t_encode);
    dispatch.push_back(t_dispatch);
    if (x.type != "load") {
      analyze.push_back(t_dispatch - t_parse - t_cache - t_encode);
    }
  }
  rep.failed += differ;
  rep.check("replayed responses byte-equal to the server's (" +
                std::to_string(open.size()) + " requests)",
            differ == 0);
  auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  const serve::DesignCache::Stats b1 = b.stats();
  const double lookups =
      static_cast<double>(b1.hits + b1.misses - b0.hits - b0.misses);
  rep.layer("serve.parse.us", mean(parse) * 1e6);
  rep.layer("serve.cache.hit.us", mean(hit) * 1e6);
  rep.layer("serve.cache.miss.ms", mean(miss) * 1e3);
  rep.layer("serve.analyze.ms", mean(analyze) * 1e3);
  rep.layer("serve.encode.us", mean(encode) * 1e6);
  rep.layer("serve.cache.hit.frac",
            static_cast<double>(b1.hits - b0.hits) / lookups);
  rep.layer("serve.cache.evictions.per_1k",
            static_cast<double>(b1.evictions - b0.evictions) * 1e3 /
                static_cast<double>(open.size()));
  rep.layer("runtime.scaling.eff",
            closed_rate(closed) * mean(dispatch) /
                static_cast<double>(w.workers));

  // Per-sample ledger: the first Monte-Carlo requests, recomputed
  // in-process at one thread and replayed layer by layer.
  const core::PathVariationModel model{0.33, 0.33, 0.0, 0.0};
  ReplayCounts total;
  double untraced_s = 0.0;
  std::size_t replayed = 0;
  for (const Exchange& x : open) {
    if (x.type != "monte_carlo" || replayed == 3) continue;
    ++replayed;
    const serve::Json req = serve::Json::parse(x.line);
    const api::DesignSpec spec =
        spec_of({req.find("circuit")->as_string(),
                 static_cast<std::size_t>(req.find("elements")->as_int())});
    const auto s = a.get(spec);
    stats::RunOptions opt;
    opt.samples = static_cast<std::size_t>(req.find("samples")->as_int());
    opt.seed = static_cast<std::uint64_t>(req.find("seed")->as_int());
    opt.exec.threads = 1;
    opt.exec.batch = stats::kDefaultBatch;
    double t0 = now_s();
    const stats::MonteCarloResult mc = s->run_monte_carlo(model, opt);
    untraced_s += now_s() - t0;
    rep.attempted += mc.values.size();
    total += replay_path(*s->path_analyzer(), models.at(s->key()), model, mc,
                         stats::kDefaultBatch, tr);
  }
  report_stage_layers(
      tr, total, true,
      untraced_s * 1e3 / static_cast<double>(std::max<std::size_t>(
                             1, total.samples)),
      rep);

  const auto big = a.get(spec_of(w.designs.back()));
  report_spice(spice_compare(*big->path_analyzer(), model, 2,
                             job_seed(seed, 1), tr),
               false, rep);
}

/// bench_serve's configuration (8 clients x 25 monte_carlo(8) on s832 with
/// threads unset, 9 workers) split into queue wait and analysis: client
/// latency, the server's own dispatch time, and the same request served
/// alone. Prints its findings; it has no contract metrics.
void explain_serve(const std::string& bin, Report& rep) {
  const std::string line =
      R"({"id":"M","type":"monte_carlo","circuit":"s832","samples":8,)"
      R"("seed":42})";
  ServerProcess srv(bin, 9, 256);
  {
    Connection c(srv.port());
    const std::string load = R"({"id":"L","type":"load","circuit":"s832"})";
    rep.check("cold load ok", response_ok(c.request(load)));
  }
  std::vector<double> alone;
  {
    Connection c(srv.port());
    for (int i = 0; i < 11; ++i) {
      const double t0 = now_s();
      (void)c.request(line);
      if (i > 0) alone.push_back((now_s() - t0) * 1e3);
    }
  }
  const double dispatch_alone = server_dispatch_p50(srv.port());
  std::vector<Exchange> fleet;
  {
    LoadGenerator gen(srv.port(), 8);
    fleet = gen.closed_loop(
        [&](std::string* type) {
          *type = "monte_carlo";
          return line;
        },
        6.0);
  }
  // serve.request_ms now pools the lone requests with the fleet's; the
  // fleet dominates the count, so its p50 is the fleet's dispatch time.
  const double dispatch_fleet = server_dispatch_p50(srv.port());
  srv.shutdown();
  const std::vector<double> lat = latencies_ms(fleet);
  std::printf("explain  alone    p50 %8.1f ms  (one connection, dispatch p50 "
              "%.1f ms)\n",
              median(alone), dispatch_alone);
  std::printf("explain  fleet    p50 %8.1f ms  p95 %8.1f ms  %.1f req/s "
              "(8 connections)\n",
              median(lat), percentile(lat, 0.95),
              static_cast<double>(fleet.size()) / 6.0);
  std::printf("explain  dispatch p50 %8.1f ms  (server-side, fleet)\n",
              dispatch_fleet);
  std::printf("explain  wait     p50 %8.1f ms  (client p50 - dispatch p50)\n",
              median(lat) - dispatch_fleet);
  std::printf("explain  inflation    %8.2fx  (fleet dispatch / alone)\n",
              dispatch_fleet / median(alone));
  std::printf("explain  analysis threads: 8 requests x %zu threads on %u "
              "cores\n",
              static_cast<std::size_t>(std::thread::hardware_concurrency()),
              std::thread::hardware_concurrency());
  rep.attempted += fleet.size() + alone.size() + 1;
  for (const Exchange& x : fleet) {
    if (!response_ok(x.response)) ++rep.failed;
  }
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: lcsf_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--serve-bin PATH] [--trace-out FILE]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string serve_bin;
  std::string trace_out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Report rep;
  Tracer tr;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) usage();
      const std::string val = argv[++i];
      if (arg == "--workload") {
        workload = val;
      } else if (arg == "--seed") {
        seed = std::stoull(val);
      } else if (arg == "--seconds") {
        seconds = std::stod(val);
      } else if (arg == "--trace") {
        trace = val == "1";
      } else if (arg == "--serve-bin") {
        serve_bin = val;
      } else if (arg == "--trace-out") {
        trace_out = val;
      } else {
        usage();
      }
    }
    const bool quick = bench::quick_mode();
    if (trace) rep.layer_defaults();
    if (workload == "serve_mixed" || workload == "serve_explain") {
      if (serve_bin.empty()) usage();
      if (workload == "serve_explain") {
        explain_serve(serve_bin, rep);
      } else if (trace) {
        trace_serve(serve_workload(quick), serve_bin, seed, seconds, rep, tr);
      } else {
        run_serve(serve_workload(quick), serve_bin, seed, seconds, rep);
      }
    } else if (trace) {
      trace_mc(mc_workload(workload, quick), seed, rep, tr);
    } else {
      run_mc(mc_workload(workload, quick), seed, seconds, rep);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lcsf_bench: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
  if (trace && !trace_out.empty()) {
    std::ofstream(trace_out) << tr.chrome_json();
  }
  rep.print();
  return rep.correct() ? 0 : 1;
}
