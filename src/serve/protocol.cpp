#include "serve/protocol.hpp"

#include <cmath>
#include <cstdint>
#include <exception>
#include <initializer_list>
#include <mutex>
#include <utility>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "serve/json.hpp"
#include "sim/diagnostics.hpp"

namespace lcsf::serve {

namespace {

// ---- request field access (strict: unknown keys are errors) ----------

void check_fields(const Json& req,
                  std::initializer_list<const char*> allowed) {
  for (const Json::Member& m : req.members()) {
    bool ok = false;
    for (const char* a : allowed) {
      if (m.first == a) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      sim::throw_invalid_input("unknown request field '" + m.first + "'");
    }
  }
}

std::string get_string(const Json& req, const char* key,
                       const std::string& fallback) {
  const Json* v = req.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_string()) {
    sim::throw_invalid_input(std::string("field '") + key +
                             "' must be a string");
  }
  return v->as_string();
}

/// A non-negative integer field; `cap` bounds the fields that size a
/// request's work (kMaxRequest*).
std::size_t get_size(const Json& req, const char* key, std::size_t fallback,
                     std::size_t cap = SIZE_MAX) {
  const Json* v = req.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_int() || v->as_int() < 0) {
    sim::throw_invalid_input(std::string("field '") + key +
                             "' must be a non-negative integer");
  }
  const auto value = static_cast<std::size_t>(v->as_int());
  if (value > cap) {
    sim::throw_invalid_input(std::string("field '") + key +
                             "' exceeds the per-request cap of " +
                             std::to_string(cap));
  }
  return value;
}

double get_double(const Json& req, const char* key, double fallback) {
  const Json* v = req.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    sim::throw_invalid_input(std::string("field '") + key +
                             "' must be a number");
  }
  return v->as_double();
}

bool get_bool(const Json& req, const char* key, bool fallback) {
  const Json* v = req.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) {
    sim::throw_invalid_input(std::string("field '") + key +
                             "' must be a boolean");
  }
  return v->as_bool();
}

// ---- shared request fragments ----------------------------------------

/// The design-identity fields shared by load and the analysis requests.
/// `graph_mode`: the request type's stance on multi-path mode -- forced
/// off (gradients), forced on (graph), or reader's choice (load,
/// monte_carlo, yield take a `graph` boolean).
enum class GraphField { kOff, kOn, kOptional };

api::DesignSpec parse_design(const Json& req, GraphField graph_mode,
                             const std::string& on_failure) {
  api::DesignSpec spec;
  spec.circuit = get_string(req, "circuit", "");
  if (spec.circuit.empty()) {
    sim::throw_invalid_input("missing required field 'circuit'");
  }
  spec.elements = get_size(req, "elements", 10, kMaxRequestElements);
  switch (graph_mode) {
    case GraphField::kOff: spec.graph = false; break;
    case GraphField::kOn: spec.graph = true; break;
    case GraphField::kOptional:
      spec.graph = get_bool(req, "graph", false);
      break;
  }
  spec.top_k = get_size(req, "top_k", 8, kMaxRequestTopK);
  spec.retry = on_failure == "retry";
  return spec;
}

std::string parse_on_failure(const Json& req) {
  const std::string s = get_string(req, "on_failure", "abort");
  if (s != "abort" && s != "skip" && s != "retry") {
    sim::throw_invalid_input("field 'on_failure' must be abort, skip or "
                             "retry");
  }
  return s;
}

stats::RunOptions parse_run_options(const Json& req,
                                    const std::string& on_failure,
                                    obs::Registry* run_registry) {
  stats::RunOptions opt;
  opt.samples = get_size(req, "samples", 100, kMaxRequestSamples);
  if (opt.samples == 0) {
    sim::throw_invalid_input("field 'samples' must be >= 1");
  }
  opt.seed = static_cast<std::uint64_t>(get_size(req, "seed", 1));
  opt.exec.threads = get_size(req, "threads", 0, kMaxRequestThreads);
  opt.exec.batch = get_size(req, "batch", 0);
  opt.exec.on_failure = on_failure == "abort" ? stats::FailurePolicy::kAbort
                                              : stats::FailurePolicy::kSkip;
  opt.registry = run_registry;
  return opt;
}

core::PathVariationModel parse_model(const Json& req) {
  core::PathVariationModel model;
  model.std_dl = get_double(req, "std_dl", 0.33);
  model.std_vt = get_double(req, "std_vt", 0.33);
  return model;
}

// ---- response building ------------------------------------------------

Json response_base(const Json& id, const char* type, bool ok) {
  Json r = Json::object();
  r.set("id", id);
  r.set("ok", Json::boolean(ok));
  r.set("protocol", Json::string("lcsf-serve-v1"));
  r.set("type", Json::string(type));
  return r;
}

Json failures_json(const stats::FailureSummary& f) {
  Json out = Json::object();
  out.set("attempted", Json::integer(static_cast<std::int64_t>(f.attempted)));
  out.set("survived", Json::integer(static_cast<std::int64_t>(f.survived)));
  Json kinds = Json::object();
  for (std::size_t k = 0; k < sim::kNumFailureKinds; ++k) {
    const auto kind = static_cast<sim::FailureKind>(k);
    if (f.count(kind) > 0) {
      kinds.set(sim::failure_kind_name(kind),
                Json::integer(static_cast<std::int64_t>(f.count(kind))));
    }
  }
  out.set("kinds", std::move(kinds));
  return out;
}

Json mc_json(const stats::MonteCarloResult& mc) {
  Json out = Json::object();
  out.set("samples",
          Json::integer(static_cast<std::int64_t>(mc.failures.attempted)));
  out.set("survivors",
          Json::integer(static_cast<std::int64_t>(mc.values.size())));
  out.set("mean", Json::number(mc.stats.mean()));
  out.set("stddev", Json::number(mc.stats.stddev()));
  if (mc.failures.any()) out.set("failures", failures_json(mc.failures));
  return out;
}

/// The deterministic projection of a per-request registry, embedded
/// into the response when the request set include_metrics. Parsing our
/// own exporter's output keeps one source of truth for the metrics
/// schema (tools/metrics_schema.json).
void embed_metrics(Json& response, const obs::Registry& reg) {
  response.set("metrics", Json::parse(reg.to_json(false)));
}

/// Run `analysis` with the request's registry `reg` installed as the
/// ambient one, as the CLI does: work done outside stats::Runner (nominal
/// samples, block models, Gradient-Analysis probes) records there too.
/// The design load stays outside, so cold and warm responses embed the
/// same projection.
template <class F>
auto run_recorded(obs::Registry& reg, F&& analysis) {
  obs::ScopedContext run_scope(&reg, 0);
  return analysis();
}

/// Fold a finished per-request registry's engine counters into the
/// server-wide registry via the ambient obs context, so serve-level
/// dashboards see cumulative teta.*/stats.* work alongside serve.*.
void merge_counters(const obs::Registry& reg) {
  if (!obs::enabled()) return;
  const obs::Snapshot snap = reg.snapshot();
  for (const auto& [name, value] : snap.counters) {
    obs::add_counter(name, value);
  }
}

// ---- request handlers -------------------------------------------------

Json handle_load(const Json& req, const Json& id,
                 ServeContext& ctx) {
  check_fields(req, {"id", "type", "circuit", "elements", "graph", "top_k",
                     "on_failure"});
  const std::string on_failure = parse_on_failure(req);
  const api::DesignSpec spec =
      parse_design(req, GraphField::kOptional, on_failure);
  const auto session = ctx.cache->get(spec);

  Json r = response_base(id, "load", true);
  r.set("design", Json::string(session->key()));
  r.set("mode", Json::string(session->is_graph() ? "graph" : "path"));
  r.set("gates", Json::integer(static_cast<std::int64_t>(
                     session->netlist().gates.size())));
  r.set("latches", Json::integer(static_cast<std::int64_t>(
                       session->benchmark().num_latches)));
  if (session->is_graph()) {
    const core::GraphAnalyzer* g = session->graph_analyzer();
    r.set("paths", Json::integer(static_cast<std::int64_t>(
                       g->paths().size())));
    r.set("blocks",
          Json::integer(static_cast<std::int64_t>(g->num_blocks())));
    r.set("endpoints", Json::integer(static_cast<std::int64_t>(
                           g->endpoint_nets().size())));
  } else {
    r.set("stages", Json::integer(static_cast<std::int64_t>(
                        session->longest_path().length())));
  }
  r.set("memory_bytes",
        Json::integer(static_cast<std::int64_t>(session->memory_bytes())));
  return r;
}

Json handle_monte_carlo(const Json& req, const Json& id,
                        ServeContext& ctx) {
  check_fields(req, {"id", "type", "circuit", "elements", "graph", "top_k",
                     "on_failure", "samples", "seed", "threads", "batch",
                     "std_dl", "std_vt", "rho", "include_metrics"});
  const std::string on_failure = parse_on_failure(req);
  const api::DesignSpec spec =
      parse_design(req, GraphField::kOptional, on_failure);
  obs::Registry run_reg;
  const stats::RunOptions opt =
      parse_run_options(req, on_failure, &run_reg);
  const core::PathVariationModel model = parse_model(req);
  const double rho = get_double(req, "rho", -1.0);
  const auto session = ctx.cache->get(spec);

  Json r = response_base(id, "monte_carlo", true);
  r.set("design", Json::string(session->key()));
  if (rho > 0.0) {
    const auto corr = run_recorded(run_reg, [&] {
      return session->run_monte_carlo_correlated(model, rho, opt);
    });
    r.set("rho", Json::number(rho));
    r.set("total_sources", Json::integer(static_cast<std::int64_t>(
                               corr.total_sources)));
    r.set("factors_used", Json::integer(static_cast<std::int64_t>(
                              corr.factors_used)));
    r.set("monte_carlo", mc_json(corr.mc));
  } else {
    r.set("monte_carlo", mc_json(run_recorded(run_reg, [&] {
            return session->run_monte_carlo(model, opt);
          })));
  }
  merge_counters(run_reg);
  if (get_bool(req, "include_metrics", false)) embed_metrics(r, run_reg);
  return r;
}

Json handle_gradients(const Json& req, const Json& id,
                      ServeContext& ctx) {
  check_fields(req, {"id", "type", "circuit", "elements", "on_failure",
                     "std_dl", "std_vt", "include_metrics"});
  const std::string on_failure = parse_on_failure(req);
  const api::DesignSpec spec =
      parse_design(req, GraphField::kOff, on_failure);
  const core::PathVariationModel model = parse_model(req);
  const auto session = ctx.cache->get(spec);

  obs::Registry run_reg;
  const auto ga =
      run_recorded(run_reg, [&] { return session->run_gradients(model); });
  Json r = response_base(id, "gradients", true);
  r.set("design", Json::string(session->key()));
  r.set("nominal_delay", Json::number(ga.nominal_delay));
  r.set("stddev", Json::number(ga.stddev));
  r.set("simulations",
        Json::integer(static_cast<std::int64_t>(ga.simulations)));
  Json grad = Json::array();
  for (const double g : ga.gradient) grad.push(Json::number(g));
  r.set("gradient", std::move(grad));
  merge_counters(run_reg);
  if (get_bool(req, "include_metrics", false)) embed_metrics(r, run_reg);
  return r;
}

Json handle_yield(const Json& req, const Json& id,
                  ServeContext& ctx) {
  check_fields(req, {"id", "type", "circuit", "elements", "graph", "top_k",
                     "on_failure", "samples", "seed", "threads", "batch",
                     "std_dl", "std_vt", "estimator", "clock_period",
                     "yield_target", "is_pilot", "include_metrics"});
  const std::string on_failure = parse_on_failure(req);
  const api::DesignSpec spec =
      parse_design(req, GraphField::kOptional, on_failure);
  obs::Registry run_reg;
  stats::RunOptions opt = parse_run_options(req, on_failure, &run_reg);
  opt.importance.pilot_samples =
      get_size(req, "is_pilot", 0, kMaxRequestPilot);
  const core::PathVariationModel model = parse_model(req);
  const std::string estimator = get_string(req, "estimator", "mc");
  const double clock_period = get_double(req, "clock_period", 0.0);
  const double yield_target = get_double(req, "yield_target", 0.9987);
  const auto session = ctx.cache->get(spec);

  const api::YieldResult y = run_recorded(run_reg, [&] {
    return session->run_yield(model, clock_period, estimator, yield_target,
                              opt);
  });
  Json r = response_base(id, "yield", true);
  r.set("design", Json::string(session->key()));
  r.set("estimator", Json::string(y.estimator));
  r.set("clock_period", Json::number(y.clock_period));
  r.set("yield", Json::number(y.yield));
  r.set("yield_loss", Json::number(y.yield_loss));
  r.set("std_error", Json::number(y.std_error));
  r.set("samples", Json::integer(static_cast<std::int64_t>(y.samples)));
  if (y.is.has_value()) {
    const stats::IsYieldEstimate& is = *y.is;
    r.set("ess", Json::number(is.ess));
    r.set("pilot_used",
          Json::integer(static_cast<std::int64_t>(is.pilot_used)));
    r.set("surrogate_beta", Json::number(is.surrogate.beta));
    if (is.control_variate_used) {
      r.set("control_coefficient", Json::number(is.control_coefficient));
      r.set("control_expectation", Json::number(is.control_expectation));
    }
  }
  if (y.failures.any()) r.set("failures", failures_json(y.failures));
  merge_counters(run_reg);
  if (get_bool(req, "include_metrics", false)) embed_metrics(r, run_reg);
  return r;
}

Json handle_graph(const Json& req, const Json& id,
                  ServeContext& ctx) {
  check_fields(req, {"id", "type", "circuit", "elements", "top_k",
                     "on_failure", "samples", "seed", "threads", "batch",
                     "std_dl", "std_vt", "include_metrics"});
  const std::string on_failure = parse_on_failure(req);
  const api::DesignSpec spec = parse_design(req, GraphField::kOn, on_failure);
  obs::Registry run_reg;
  const stats::RunOptions opt =
      parse_run_options(req, on_failure, &run_reg);
  const core::PathVariationModel model = parse_model(req);
  const auto session = ctx.cache->get(spec);

  const api::GraphResult g =
      run_recorded(run_reg, [&] { return session->run_graph(model, opt); });
  Json r = response_base(id, "graph", true);
  r.set("design", Json::string(session->key()));
  r.set("paths", Json::integer(static_cast<std::int64_t>(
                     session->graph_analyzer()->paths().size())));
  r.set("blocks", Json::integer(static_cast<std::int64_t>(
                      session->graph_analyzer()->num_blocks())));
  r.set("monte_carlo", mc_json(g.mc));
  Json nominal = Json::object();
  nominal.set("max_delay", Json::number(g.nominal.max_delay));
  nominal.set("stages_simulated", Json::integer(static_cast<std::int64_t>(
                                      g.nominal.stages_simulated)));
  nominal.set("stage_cache_hits", Json::integer(static_cast<std::int64_t>(
                                      g.nominal.stage_cache_hits)));
  nominal.set("merges",
              Json::integer(static_cast<std::int64_t>(g.nominal.merges)));
  Json endpoints = Json::array();
  for (std::size_t k = 0; k < g.nominal.endpoints.size(); ++k) {
    const auto& e = g.nominal.endpoints[k];
    Json ep = Json::object();
    ep.set("net", Json::integer(static_cast<std::int64_t>(e.net)));
    ep.set("delay", Json::number(e.delay));
    ep.set("slew", Json::number(e.slew));
    ep.set("analytic_mean", Json::number(g.analytic[k].arrival.mean));
    ep.set("analytic_std",
           Json::number(std::sqrt(
               timing::ssta::variance(g.analytic[k].arrival))));
    endpoints.push(std::move(ep));
  }
  nominal.set("endpoints", std::move(endpoints));
  r.set("nominal", std::move(nominal));
  merge_counters(run_reg);
  if (get_bool(req, "include_metrics", false)) embed_metrics(r, run_reg);
  return r;
}

Json handle_metrics(const Json& req, const Json& id,
                    ServeContext& ctx) {
  check_fields(req, {"id", "type"});
  Json r = response_base(id, "metrics", true);
  if (ctx.registry != nullptr) {
    r.set("metrics", Json::parse(ctx.registry->to_json(true)));
  } else {
    r.set("metrics", Json::null());
  }
  if (ctx.cache != nullptr) {
    const DesignCache::Stats cs = ctx.cache->stats();
    Json cache = Json::object();
    cache.set("hits", Json::integer(static_cast<std::int64_t>(cs.hits)));
    cache.set("misses",
              Json::integer(static_cast<std::int64_t>(cs.misses)));
    cache.set("evictions",
              Json::integer(static_cast<std::int64_t>(cs.evictions)));
    cache.set("entries", Json::integer(static_cast<std::int64_t>(
                             ctx.cache->entries())));
    cache.set("resident_bytes", Json::integer(static_cast<std::int64_t>(
                                    ctx.cache->resident_bytes())));
    r.set("cache", std::move(cache));
  }
  return r;
}

Json error_response(const Json& id, const std::string& type,
                    sim::FailureKind kind, const std::string& message) {
  Json r = response_base(id, type.empty() ? "error" : type.c_str(), false);
  Json err = Json::object();
  err.set("kind", Json::string(sim::failure_kind_name(kind)));
  err.set("message", Json::string(message));
  r.set("error", std::move(err));
  return r;
}

}  // namespace

DispatchResult dispatch_request(const std::string& line, ServeContext& ctx) {
  // Install the server-wide registry for the serve.* metrics of this
  // request; analyses record into their own per-request registry (see
  // merge_counters). The TaskRootScope makes this handler a fresh
  // nesting root so per-request thread counts really parallelize even
  // though the connection handler itself runs inside a pool lane.
  obs::ScopedContext obs_scope(ctx.registry, ctx.lane);
  runtime::TaskRootScope task_root;

  Json id = Json::string("");
  std::string type;
  DispatchResult out;
  const std::uint64_t start_ns = obs::now_ns();

  // The metrics request snapshots the shared registry, which must not
  // run concurrently with another lane's recording: it takes the gate
  // exclusively, every other request holds it shared while it records.
  std::shared_lock<std::shared_mutex> read_gate;
  std::unique_lock<std::shared_mutex> write_gate;

  try {
    const Json req = Json::parse(line);
    if (!req.is_object()) {
      sim::throw_invalid_input("request must be a JSON object");
    }
    const Json* idv = req.find("id");
    if (idv == nullptr || !(idv->is_string() || idv->is_int())) {
      sim::throw_invalid_input(
          "missing required field 'id' (string or integer)");
    }
    id = *idv;
    type = get_string(req, "type", "");
    if (type.empty()) {
      sim::throw_invalid_input("missing required field 'type'");
    }

    if (ctx.metrics_gate != nullptr) {
      if (type == "metrics") {
        write_gate = std::unique_lock<std::shared_mutex>(*ctx.metrics_gate);
      } else {
        read_gate = std::shared_lock<std::shared_mutex>(*ctx.metrics_gate);
      }
    }
    obs::add_counter("serve.requests");
    obs::add_counter("serve.requests." + type);

    Json response;
    if (type == "shutdown") {
      check_fields(req, {"id", "type"});
      response = response_base(id, "shutdown", true);
      out.shutdown = true;
    } else if (type == "metrics") {
      response = handle_metrics(req, id, ctx);
    } else if (ctx.cache == nullptr) {
      sim::throw_invalid_input("server has no design cache");
    } else if (type == "load") {
      response = handle_load(req, id, ctx);
    } else if (type == "monte_carlo") {
      response = handle_monte_carlo(req, id, ctx);
    } else if (type == "gradients") {
      response = handle_gradients(req, id, ctx);
    } else if (type == "yield") {
      response = handle_yield(req, id, ctx);
    } else if (type == "graph") {
      response = handle_graph(req, id, ctx);
    } else {
      sim::throw_invalid_input("unknown request type '" + type + "'");
    }
    out.response = response.dump();
  } catch (const sim::SimulationError& e) {
    obs::add_counter("serve.errors");
    out.response =
        error_response(id, type, e.kind(), e.diagnostics().message())
            .dump();
  } catch (const std::exception& e) {
    obs::add_counter("serve.errors");
    out.response =
        error_response(id, type, sim::FailureKind::kOther, e.what()).dump();
  }

  const std::uint64_t end_ns = obs::now_ns();
  obs::record_value("serve.request_ms",
                    static_cast<double>(end_ns - start_ns) / 1.0e6);
  return out;
}

std::string error_line(sim::FailureKind kind, const std::string& message) {
  return error_response(Json::string(""), "", kind, message).dump();
}

}  // namespace lcsf::serve
