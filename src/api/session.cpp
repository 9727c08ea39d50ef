#include "api/session.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "circuit/parser.hpp"
#include "sim/diagnostics.hpp"
#include "stats/yield.hpp"

namespace lcsf::api {

namespace {

// FNV-1a 64-bit over a byte string: stable, dependency-free content
// hash. Collisions would only merge cache entries of *identical
// analyses* wrongly, and 64 bits over a handful of designs makes that
// astronomically unlikely.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void append_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
  out += '|';
}

void append_size(std::string& out, std::size_t v) {
  out += std::to_string(v);
  out += '|';
}

// Canonical byte serialization of a gate netlist for hashing: the full
// connectivity, not just the benchmark name, so the key really is a
// content address (a regenerated benchmark with different connectivity
// would get a different key).
void append_netlist(std::string& out, const timing::GateNetlist& nl) {
  append_size(out, nl.num_nets);
  append_size(out, nl.gates.size());
  for (const timing::Gate& g : nl.gates) {
    append_size(out, g.cell);
    append_size(out, g.output);
    for (const std::size_t in : g.inputs) append_size(out, in);
    out += ';';
  }
  for (const std::size_t n : nl.primary_inputs) append_size(out, n);
  out += ';';
  for (const std::size_t n : nl.latch_outputs) append_size(out, n);
  out += ';';
  for (const std::size_t n : nl.latch_inputs) append_size(out, n);
}

const timing::BenchmarkSpec& find_benchmark_classified(
    const std::string& name) {
  try {
    return timing::find_benchmark(name);
  } catch (const std::invalid_argument& e) {
    sim::throw_invalid_input(e.what());
  }
}

std::string spec_content(const DesignSpec& spec,
                         const timing::GateNetlist* nl) {
  if (spec.circuit.empty() == spec.deck.empty()) {
    sim::throw_invalid_input(
        "design spec must set exactly one of circuit and deck");
  }
  std::string content = "lcsf-design-v1|";
  content += spec.tech;
  content += '|';
  append_size(content, spec.elements);
  content += spec.graph ? "graph|" : "path|";
  append_size(content, spec.top_k);
  append_number(content, spec.stage_window);
  content += spec.retry ? "retry|" : "noretry|";
  if (!spec.deck.empty()) {
    content += "deck|";
    content += spec.deck;
  } else {
    content += "circuit|";
    append_netlist(content, *nl);
  }
  return content;
}

}  // namespace

circuit::Technology technology_by_name(const std::string& name) {
  if (name == "180nm") return circuit::technology_180nm();
  if (name == "600nm") return circuit::technology_600nm();
  sim::throw_invalid_input("unknown technology '" + name +
                           "' (expected 180nm or 600nm)");
}

std::string DesignSpec::cache_key() const {
  timing::GateNetlist nl;
  const timing::GateNetlist* nlp = nullptr;
  (void)technology_by_name(tech);  // classify a bogus tech up front
  if (!circuit.empty()) {
    nl = timing::generate_benchmark(find_benchmark_classified(circuit));
    nlp = &nl;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    fnv1a(spec_content(*this, nlp))));
  return buf;
}

std::shared_ptr<Session> Session::load(const DesignSpec& spec) {
  std::shared_ptr<Session> s(new Session());
  s->spec_ = spec;
  s->tech_ = technology_by_name(spec.tech);

  if (!spec.deck.empty()) {
    if (!spec.circuit.empty()) {
      sim::throw_invalid_input(
          "design spec must set exactly one of circuit and deck");
    }
    auto nl = std::make_unique<circuit::Netlist>();
    try {
      *nl = circuit::parse_netlist(spec.deck, s->tech_);
    } catch (const circuit::ParseError& e) {
      sim::throw_invalid_input(e.what());
    }
    nl->freeze_device_capacitances();
    s->deck_nl_ = std::move(nl);
    s->key_ = spec.cache_key();
    return s;
  }
  if (spec.circuit.empty()) {
    sim::throw_invalid_input(
        "design spec must set exactly one of circuit and deck");
  }

  s->bspec_ = find_benchmark_classified(spec.circuit);
  s->netlist_ = timing::generate_benchmark(s->bspec_);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a(
                    spec_content(spec, &s->netlist_))));
  s->key_ = buf;

  if (spec.graph) {
    core::GraphSpec gspec;
    gspec.tech = s->tech_;
    gspec.netlist = s->netlist_;
    gspec.top_k = spec.top_k;
    gspec.linear_elements_per_stage = spec.elements;
    gspec.stage_window = spec.stage_window;
    if (spec.retry) gspec.recovery.max_dt_retries = 3;
    s->graph_an_ = std::make_unique<core::GraphAnalyzer>(std::move(gspec));
  } else {
    s->path_ = timing::longest_path(s->netlist_);
    core::PathSpec pspec = core::PathSpec::from_benchmark(
        s->tech_, s->netlist_, s->path_, spec.elements);
    pspec.stage_window = spec.stage_window;
    if (spec.retry) pspec.recovery.max_dt_retries = 3;
    s->path_an_ = std::make_unique<core::PathAnalyzer>(pspec);
  }
  return s;
}

std::size_t Session::memory_bytes() const {
  std::size_t total = sizeof(*this) + netlist_.memory_bytes();
  if (path_an_) total += path_an_->memory_bytes();
  if (graph_an_) total += graph_an_->memory_bytes();
  if (deck_nl_) {
    // Parsed-deck footprint: the element tables dominate; approximate
    // with the deck text size plus a per-device constant.
    total += spec_.deck.size() +
             (deck_nl_->resistors().size() + deck_nl_->capacitors().size() +
              deck_nl_->mosfets().size() + deck_nl_->vsources().size()) *
                 64;
  }
  return total;
}

const timing::BenchmarkSpec& Session::benchmark() const {
  if (is_deck()) sim::throw_invalid_input("deck session has no benchmark");
  return bspec_;
}

const timing::GateNetlist& Session::netlist() const {
  if (is_deck()) {
    sim::throw_invalid_input("deck session has no gate netlist");
  }
  return netlist_;
}

const circuit::Netlist& Session::deck_netlist() const {
  if (deck_nl_ == nullptr) {
    sim::throw_invalid_input("not a deck session");
  }
  return *deck_nl_;
}

const timing::TimingPath& Session::longest_path() const {
  if (path_an_ == nullptr) {
    sim::throw_invalid_input(
        "longest_path requires a single-path circuit session");
  }
  return path_;
}

stats::MonteCarloResult Session::run_monte_carlo(
    const core::PathVariationModel& model,
    const stats::RunOptions& opt) const {
  if (graph_an_) return graph_an_->monte_carlo(model, opt);
  if (path_an_) return path_an_->monte_carlo(model, opt);
  sim::throw_invalid_input("monte_carlo requires a circuit session");
}

core::PathAnalyzer::CorrelatedMcResult Session::run_monte_carlo_correlated(
    const core::PathVariationModel& model, double rho,
    const stats::RunOptions& opt) const {
  if (path_an_ == nullptr) {
    sim::throw_invalid_input(
        "correlated monte_carlo requires a single-path session");
  }
  return path_an_->monte_carlo_correlated(model, rho, opt);
}

core::PathAnalyzer::GaResult Session::run_gradients(
    const core::PathVariationModel& model) const {
  if (path_an_ == nullptr) {
    sim::throw_invalid_input(
        "gradient analysis requires a single-path session");
  }
  return path_an_->gradient_analysis(model);
}

void check_yield_inputs(const std::string& estimator, double clock_period,
                        double yield_target) {
  if (estimator != "mc" && estimator != "is" && estimator != "is-cv") {
    sim::throw_invalid_input("field 'estimator' must be mc, is or is-cv, "
                             "not '" + estimator + "'");
  }
  if (!(yield_target > 0.0 && yield_target < 1.0)) {
    sim::throw_invalid_input("field 'yield_target' must lie in (0, 1)");
  }
  if (!(clock_period >= 0.0)) {
    sim::throw_invalid_input(
        "field 'clock_period' must be >= 0 (0 derives the GA period)");
  }
}

YieldResult Session::run_yield(const core::PathVariationModel& model,
                               double clock_period,
                               const std::string& estimator,
                               double yield_target,
                               const stats::RunOptions& opt) const {
  if (path_an_ == nullptr && graph_an_ == nullptr) {
    sim::throw_invalid_input("yield requires a circuit session");
  }
  check_yield_inputs(estimator, clock_period, yield_target);
  YieldResult res;
  res.estimator = estimator;
  double t_clk = clock_period;
  if (t_clk <= 0.0) {
    // Default to the Gradient-Analysis period for the target yield, so
    // the estimate probes exactly the tail the report quotes.
    const auto ga = run_gradients(model);  // single-path only; classifies
    t_clk = stats::gaussian_period_for_yield(ga.nominal_delay, ga.stddev,
                                             yield_target);
  }
  res.clock_period = t_clk;

  if (estimator == "mc") {
    auto mc = run_monte_carlo(model, opt);
    if (mc.values.empty()) {
      sim::throw_invalid_input("every Monte-Carlo sample failed");
    }
    const stats::McYieldEstimate est(std::move(mc), t_clk);
    res.yield = est.yield;
    res.yield_loss = 1.0 - est.yield;
    res.std_error = est.std_error;
    res.samples = est.samples().values.size();
    res.failures = est.samples().failures;
    return res;
  }

  if (path_an_ == nullptr) {
    sim::throw_invalid_input(
        "importance-sampled yield requires a single-path session");
  }
  stats::RunOptions is_opt = opt;
  is_opt.importance.control_variate = estimator == "is-cv";
  auto is = path_an_->yield_importance(model, t_clk, is_opt);
  res.yield = is.yield;
  res.yield_loss = is.yield_loss;
  res.std_error = is.std_error;
  res.samples = is.main_samples;
  res.failures = is.failures;
  res.is = std::move(is);
  return res;
}

GraphResult Session::run_graph(const core::PathVariationModel& model,
                               const stats::RunOptions& opt) const {
  if (graph_an_ == nullptr) {
    sim::throw_invalid_input("graph analysis requires a graph session");
  }
  GraphResult res;
  res.mc = graph_an_->monte_carlo(model, opt);
  core::GraphAnalyzer::Workspace ws;
  const numeric::Vector w0(graph_an_->sources(model).size(), 0.0);
  res.nominal =
      graph_an_->evaluate(graph_an_->sample_from_sources(model, w0), ws);
  res.analytic = graph_an_->analytic_endpoints(model);
  return res;
}

spice::TransientResult Session::run_transient(
    const spice::TransientOptions& opt) const {
  if (deck_nl_ == nullptr) {
    sim::throw_invalid_input("transient requires a deck session");
  }
  spice::TransientSimulator sim(*deck_nl_);
  return sim.run(opt);
}

}  // namespace lcsf::api
