// Tests for the analysis service stack (docs/serving.md): the strict
// serve::Json codec, the coalescing LRU serve::DesignCache, the
// lcsf-serve-v1 dispatcher (determinism, error classification) and the
// TCP server end to end. Concurrency tests use runtime::ThreadPool, the
// project's only sanctioned thread source.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.hpp"
#include "core/path.hpp"
#include "obs/registry.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/cache.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/diagnostics.hpp"
#include "stats/yield.hpp"
#include "timing/sta.hpp"

namespace lcsf {
namespace {

// ---- serve::Json ------------------------------------------------------

TEST(ServeJson, RoundTripsCanonically) {
  const std::string text =
      R"({"a":1,"b":-2.5,"c":"x\n\"y","d":[true,false,null],"e":{}})";
  const serve::Json v = serve::Json::parse(text);
  EXPECT_EQ(v.dump(), text);
  // Canonical: re-parsing the dump reproduces the same bytes.
  EXPECT_EQ(serve::Json::parse(v.dump()).dump(), text);
}

TEST(ServeJson, PreservesIntegerTokens) {
  const serve::Json v = serve::Json::parse(R"({"n":9007199254740993})");
  EXPECT_EQ(v.dump(), R"({"n":9007199254740993})");  // not 9.00720e+15
}

TEST(ServeJson, RejectsMalformedInput) {
  const auto kind = [](const std::string& text) {
    try {
      (void)serve::Json::parse(text);
    } catch (const sim::SimulationError& e) {
      return e.kind();
    }
    return sim::FailureKind::kNone;
  };
  EXPECT_EQ(kind("{"), sim::FailureKind::kInvalidInput);
  EXPECT_EQ(kind("{} trailing"), sim::FailureKind::kInvalidInput);
  EXPECT_EQ(kind(R"({"a":1,"a":2})"), sim::FailureKind::kInvalidInput);
  EXPECT_EQ(kind("nul"), sim::FailureKind::kInvalidInput);
  EXPECT_EQ(kind(R"(["unterminated)"), sim::FailureKind::kInvalidInput);
  EXPECT_EQ(kind("[1,]"), sim::FailureKind::kInvalidInput);
  EXPECT_EQ(kind(""), sim::FailureKind::kInvalidInput);
}

// ---- api::Session -----------------------------------------------------

TEST(ApiSession, MatchesDirectAnalyzerBitwise) {
  api::DesignSpec spec;
  spec.circuit = "s27";
  const auto session = api::Session::load(spec);

  // The CLI-equivalence contract: a Session analysis and a hand-built
  // analyzer over the same inputs agree bitwise.
  const auto& nl = session->netlist();
  const auto path = timing::longest_path(nl);
  core::PathSpec pspec = core::PathSpec::from_benchmark(
      session->tech(), nl, path, spec.elements);
  pspec.stage_window = spec.stage_window;
  core::PathAnalyzer direct(pspec);

  core::PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;
  stats::RunOptions opt;
  opt.samples = 8;
  opt.seed = 7;
  const auto a = session->run_monte_carlo(model, opt);
  const auto b = direct.monte_carlo(model, opt);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.values[i], b.values[i]);
  }
}

TEST(ApiSession, CacheKeyIsContentSensitive) {
  api::DesignSpec a;
  a.circuit = "s27";
  api::DesignSpec b = a;
  EXPECT_EQ(a.cache_key(), b.cache_key());
  b.elements = 12;
  EXPECT_NE(a.cache_key(), b.cache_key());
  b = a;
  b.graph = true;
  EXPECT_NE(a.cache_key(), b.cache_key());
  b = a;
  b.retry = true;
  EXPECT_NE(a.cache_key(), b.cache_key());
  b = a;
  b.circuit = "s208";
  EXPECT_NE(a.cache_key(), b.cache_key());
}

TEST(ApiSession, ClassifiesBadSpecs) {
  const auto kind_of_load = [](const api::DesignSpec& spec) {
    try {
      (void)api::Session::load(spec);
    } catch (const sim::SimulationError& e) {
      return e.kind();
    }
    return sim::FailureKind::kNone;
  };
  api::DesignSpec unknown;
  unknown.circuit = "does-not-exist";
  EXPECT_EQ(kind_of_load(unknown), sim::FailureKind::kInvalidInput);
  api::DesignSpec badtech;
  badtech.circuit = "s27";
  badtech.tech = "90nm";
  EXPECT_EQ(kind_of_load(badtech), sim::FailureKind::kInvalidInput);
  api::DesignSpec neither;
  EXPECT_EQ(kind_of_load(neither), sim::FailureKind::kInvalidInput);
  api::DesignSpec baddeck;
  baddeck.deck = "R1 a b not-a-number\n";
  EXPECT_EQ(kind_of_load(baddeck), sim::FailureKind::kInvalidInput);
}

TEST(ApiSession, ReportsPositiveMemoryFootprint) {
  api::DesignSpec spec;
  spec.circuit = "s27";
  EXPECT_GT(api::Session::load(spec)->memory_bytes(), sizeof(api::Session));
  spec.graph = true;
  spec.top_k = 4;
  EXPECT_GT(api::Session::load(spec)->memory_bytes(), sizeof(api::Session));
}

TEST(ApiSession, McYieldMatchesMcYieldEstimateBitwise) {
  api::DesignSpec spec;
  spec.circuit = "s27";
  const auto session = api::Session::load(spec);
  core::PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;
  stats::RunOptions opt;
  opt.samples = 16;
  opt.seed = 5;

  // The "mc" estimator is the McYieldEstimate of the session's own
  // Monte-Carlo run: same sample set, same yield and standard error.
  const stats::MonteCarloResult mc = session->run_monte_carlo(model, opt);
  const double t_clk = mc.stats.mean();
  const stats::McYieldEstimate est(mc, t_clk);
  const api::YieldResult y =
      session->run_yield(model, t_clk, "mc", 0.9987, opt);
  EXPECT_GT(est.yield, 0.0);
  EXPECT_LT(est.yield, 1.0);
  EXPECT_EQ(y.clock_period, t_clk);
  EXPECT_EQ(y.yield, est.yield);
  EXPECT_EQ(y.yield_loss, 1.0 - est.yield);
  EXPECT_EQ(y.std_error, est.std_error);
  EXPECT_EQ(y.samples, est.samples().values.size());
  EXPECT_EQ(y.failures.attempted, est.samples().failures.attempted);
  EXPECT_EQ(y.failures.survived, est.samples().failures.survived);
  EXPECT_FALSE(y.is.has_value());
}

// ---- serve::DesignCache -----------------------------------------------

api::DesignSpec spec_for(const std::string& circuit) {
  api::DesignSpec spec;
  spec.circuit = circuit;
  return spec;
}

TEST(DesignCache, HitsReturnTheSameSession) {
  serve::DesignCache cache;
  const auto a = cache.get(spec_for("s27"));
  const auto b = cache.get(spec_for("s27"));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.resident_bytes(), a->memory_bytes());
}

TEST(DesignCache, EvictsLruUnderByteBudget) {
  serve::DesignCache::Config cfg;
  cfg.max_bytes = 1;  // nothing fits; only the just-touched entry stays
  serve::DesignCache cache(cfg);
  const auto a = cache.get(spec_for("s27"));
  EXPECT_EQ(cache.entries(), 1u);  // a single over-budget entry is kept
  (void)cache.get(spec_for("s208"));
  EXPECT_EQ(cache.entries(), 1u);  // s27 evicted to admit s208
  EXPECT_EQ(cache.stats().evictions, 1u);
  // The evicted design is still usable by holders of the shared_ptr.
  EXPECT_GT(a->memory_bytes(), 0u);
  // Re-requesting the evicted key is a miss that re-characterizes.
  (void)cache.get(spec_for("s27"));
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(DesignCache, FailedLoadsAreNotCached) {
  serve::DesignCache cache;
  EXPECT_THROW((void)cache.get(spec_for("nope")), sim::SimulationError);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_THROW((void)cache.get(spec_for("nope")), sim::SimulationError);
}

TEST(DesignCache, CoalescesConcurrentLoadsOfOneKey) {
  serve::DesignCache cache;
  constexpr std::size_t kLanes = 4;
  std::vector<std::shared_ptr<api::Session>> got(kLanes);
  runtime::ThreadPool pool(kLanes);
  pool.parallel_for_lanes(
      kLanes,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          got[i] = cache.get(spec_for("s27"));
        }
      },
      1);
  for (std::size_t i = 1; i < kLanes; ++i) {
    EXPECT_EQ(got[0].get(), got[i].get());
  }
  // Exactly one characterization happened no matter the interleaving.
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, kLanes - 1);
}

// ---- dispatcher -------------------------------------------------------

struct DispatchFixture {
  serve::DesignCache cache;
  obs::Registry registry;
  std::shared_mutex gate;
  serve::ServeContext ctx;

  DispatchFixture() {
    ctx.cache = &cache;
    ctx.registry = &registry;
    ctx.metrics_gate = &gate;
  }

  std::string dispatch(const std::string& line) {
    return serve::dispatch_request(line, ctx).response;
  }
};

TEST(Dispatch, ColdAndWarmResponsesAreByteIdentical) {
  DispatchFixture f;
  const std::string req =
      R"({"id":"r1","type":"monte_carlo","circuit":"s27","samples":6,"seed":3})";
  const std::string cold = f.dispatch(req);
  const std::string warm = f.dispatch(req);
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(f.cache.stats().misses, 1u);
  EXPECT_EQ(f.cache.stats().hits, 1u);
  EXPECT_NE(cold.find("\"ok\":true"), std::string::npos);
}

TEST(Dispatch, ThreadCountDoesNotChangeResponseBytes) {
  DispatchFixture f;
  const auto req = [](std::size_t threads) {
    return std::string(R"({"id":"t","type":"monte_carlo","circuit":"s27",)") +
           R"("samples":12,"seed":5,"threads":)" + std::to_string(threads) +
           "}";
  };
  const std::string t1 = f.dispatch(req(1));
  const std::string t2 = f.dispatch(req(2));
  const std::string t8 = f.dispatch(req(8));
  // The thread count is part of the request line but not of the design
  // or the sampling contract: all three must carry identical numbers.
  const auto payload = [](const std::string& r) {
    return r.substr(r.find("\"monte_carlo\""));
  };
  EXPECT_EQ(payload(t1), payload(t2));
  EXPECT_EQ(payload(t1), payload(t8));
}

TEST(Dispatch, ConcurrentAndSerialResponsesAgree) {
  // The same request mix dispatched from concurrent lanes and serially
  // must produce identical per-request bytes (responses are a pure
  // function of the request line).
  std::vector<std::string> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(
        R"({"id":)" + std::to_string(i) +
        R"(,"type":"monte_carlo","circuit":)" +
        (i % 2 == 0 ? R"("s27")" : R"("s208")") +
        R"(,"samples":5,"seed":)" + std::to_string(2 + i % 3) + "}");
  }

  DispatchFixture serial;
  std::vector<std::string> expect;
  for (const auto& r : requests) expect.push_back(serial.dispatch(r));

  DispatchFixture shared;
  std::vector<std::string> got(requests.size());
  runtime::ThreadPool pool(4);
  pool.parallel_for_lanes(
      requests.size(),
      [&](std::size_t begin, std::size_t end, std::size_t lane) {
        serve::ServeContext ctx = shared.ctx;
        ctx.lane = lane;
        for (std::size_t i = begin; i < end; ++i) {
          got[i] = serve::dispatch_request(requests[i], ctx).response;
        }
      },
      1);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(got[i], expect[i]) << requests[i];
  }
  // Two designs, eight requests: everything after the two cold loads hit.
  EXPECT_EQ(shared.cache.stats().misses, 2u);
  EXPECT_EQ(shared.cache.stats().hits, 6u);
}

TEST(Dispatch, ClassifiesProtocolErrors) {
  DispatchFixture f;
  const auto expect_error = [&](const std::string& line,
                                const std::string& kind) {
    const std::string resp = f.dispatch(line);
    const serve::Json v = serve::Json::parse(resp);
    ASSERT_NE(v.find("error"), nullptr) << resp;
    EXPECT_EQ(v.find("error")->find("kind")->as_string(), kind) << resp;
    EXPECT_FALSE(v.find("ok")->as_bool());
  };
  expect_error("not json at all", "invalid-input");
  expect_error("[1,2,3]", "invalid-input");
  expect_error(R"({"type":"load","circuit":"s27"})", "invalid-input");
  expect_error(R"({"id":1,"type":"frobnicate"})", "invalid-input");
  expect_error(R"({"id":1,"type":"load"})", "invalid-input");
  expect_error(R"({"id":1,"type":"load","circuit":"bogus"})",
               "invalid-input");
  expect_error(R"({"id":1,"type":"load","circuit":"s27","bogus":1})",
               "invalid-input");
  expect_error(R"({"id":1,"type":"monte_carlo","circuit":"s27","samples":0})",
               "invalid-input");
  expect_error(
      R"({"id":1,"type":"monte_carlo","circuit":"s27","on_failure":"x"})",
      "invalid-input");
  // Error responses echo the id when it was parseable.
  const std::string resp = f.dispatch(R"({"id":"e9","type":"nope"})");
  EXPECT_NE(resp.find(R"("id":"e9")"), std::string::npos);
}

TEST(Dispatch, RejectsRunFieldsOverTheirCaps) {
  DispatchFixture f;
  const auto error_of = [&](const std::string& line) {
    const serve::Json v = serve::Json::parse(f.dispatch(line));
    const serve::Json* err = v.find("error");
    return err == nullptr
               ? std::string("ok")
               : err->find("kind")->as_string() + ": " +
                     err->find("message")->as_string();
  };
  // One probe per capped field, each naming the field and its cap. The
  // threads probe comes first with a single sample: without the cap it
  // answers ok at once, so an uncapped dispatcher fails here before the
  // probes whose unbounded work it would otherwise start.
  const std::string threads = error_of(
      R"({"id":1,"type":"monte_carlo","circuit":"s27","samples":1,)"
      R"("threads":257})");
  ASSERT_EQ(threads.rfind("invalid-input: ", 0), 0u) << threads;
  EXPECT_NE(threads.find("'threads'"), std::string::npos) << threads;
  EXPECT_NE(threads.find("256"), std::string::npos) << threads;

  const std::string samples = error_of(
      R"({"id":2,"type":"monte_carlo","circuit":"s27","samples":100001})");
  ASSERT_EQ(samples.rfind("invalid-input: ", 0), 0u) << samples;
  EXPECT_NE(samples.find("'samples'"), std::string::npos) << samples;
  EXPECT_NE(samples.find("100000"), std::string::npos) << samples;

  const std::string pilot = error_of(
      R"({"id":3,"type":"yield","circuit":"s27","samples":1,)"
      R"("estimator":"is","is_pilot":100001})");
  ASSERT_EQ(pilot.rfind("invalid-input: ", 0), 0u) << pilot;
  EXPECT_NE(pilot.find("'is_pilot'"), std::string::npos) << pilot;
  EXPECT_NE(pilot.find("100000"), std::string::npos) << pilot;

  const std::string top_k = error_of(
      R"({"id":4,"type":"load","circuit":"s27","graph":true,"top_k":1025})");
  ASSERT_EQ(top_k.rfind("invalid-input: ", 0), 0u) << top_k;
  EXPECT_NE(top_k.find("'top_k'"), std::string::npos) << top_k;
  EXPECT_NE(top_k.find("1024"), std::string::npos) << top_k;

  // An unknown circuit: the cap must be checked before any design work,
  // or the unknown-circuit error comes back instead.
  const std::string elements = error_of(
      R"({"id":6,"type":"load","circuit":"nope","elements":2001})");
  ASSERT_EQ(elements.rfind("invalid-input: ", 0), 0u) << elements;
  EXPECT_NE(elements.find("'elements'"), std::string::npos) << elements;
  EXPECT_NE(elements.find("2000"), std::string::npos) << elements;

  // One sample in one 65-lane block: the block is sized by `batch`, not
  // by the sample count.
  const std::string batch = error_of(
      R"({"id":8,"type":"monte_carlo","circuit":"s27","samples":1,)"
      R"("batch":65})");
  ASSERT_EQ(batch.rfind("invalid-input: ", 0), 0u) << batch;
  EXPECT_NE(batch.find("'batch'"), std::string::npos) << batch;
  EXPECT_NE(batch.find("64"), std::string::npos) << batch;

  // top_k = 0 is under its cap but selects no path: a classified
  // invalid-input, for a graph load and for a graph analysis alike.
  for (const char* line :
       {R"({"id":9,"type":"load","circuit":"s27","graph":true,"top_k":0})",
        R"({"id":10,"type":"graph","circuit":"s27","top_k":0,"samples":1})"}) {
    const std::string zero_k = error_of(line);
    ASSERT_EQ(zero_k.rfind("invalid-input: ", 0), 0u) << zero_k;
    EXPECT_NE(zero_k.find("top_k"), std::string::npos) << zero_k;
  }

  // A negative sigma is malformed, not "no variation".
  const std::string sigma = error_of(
      R"({"id":7,"type":"monte_carlo","circuit":"s27","samples":1,)"
      R"("std_vt":-0.1})");
  ASSERT_EQ(sigma.rfind("invalid-input: ", 0), 0u) << sigma;
  EXPECT_NE(sigma.find("'std_vt'"), std::string::npos) << sigma;

  // A value at its cap is accepted.
  EXPECT_EQ(error_of(R"({"id":5,"type":"monte_carlo","circuit":"s27",)"
                     R"("samples":1,"threads":256})"),
            "ok");
}

// A yield input no estimate can use is rejected while the request is
// parsed, naming the field: no design loads, so the cache stays empty.
TEST(Dispatch, RejectsBadYieldInputsBeforeLoading) {
  DispatchFixture f;
  const std::pair<const char*, const char*> probes[] = {
      {R"("estimator":"bogus")", "'estimator'"},
      {R"("yield_target":0)", "'yield_target'"},
      {R"("yield_target":1)", "'yield_target'"},
      {R"("yield_target":1.5)", "'yield_target'"},
      {R"("clock_period":-1)", "'clock_period'"},
      {R"("clock_period":-1e-12)", "'clock_period'"}};
  for (const auto& [field, name] : probes) {
    const std::string line =
        std::string(R"({"id":1,"type":"yield","circuit":"s27","samples":1,)") +
        field + "}";
    const serve::Json v = serve::Json::parse(f.dispatch(line));
    const serve::Json* err = v.find("error");
    ASSERT_NE(err, nullptr) << line;
    EXPECT_EQ(err->find("kind")->as_string(), "invalid-input") << line;
    EXPECT_NE(err->find("message")->as_string().find(name), std::string::npos)
        << line;
    EXPECT_EQ(f.cache.entries(), 0u) << line;
  }
}

// A number that overflows a double (1e999) is the parse error a
// malformed number gets, as it is for lcsf_sta's flags, in every numeric
// field: read as inf it would fail a monte_carlo run as `other` and
// answer a gradients run with a null stddev and a yield run with yield 1.
TEST(Dispatch, RejectsNumbersThatOverflowADouble) {
  DispatchFixture f;
  for (const char* line :
       {R"({"id":1,"type":"monte_carlo","circuit":"s27","samples":2,)"
        R"("std_dl":1e999})",
        R"({"id":2,"type":"gradients","circuit":"s27","std_dl":1e999})",
        R"({"id":3,"type":"yield","circuit":"s27","samples":2,)"
        R"("clock_period":1e999})",
        R"({"id":4,"type":"yield","circuit":"s27","samples":2,)"
        R"("clock_period":-1e999})"}) {
    const serve::Json v = serve::Json::parse(f.dispatch(line));
    EXPECT_FALSE(v.find("ok")->as_bool()) << line;
    const serve::Json* err = v.find("error");
    ASSERT_NE(err, nullptr) << line;
    EXPECT_EQ(err->find("kind")->as_string(), "invalid-input") << line;
    EXPECT_NE(err->find("message")->as_string().find("bad number"),
              std::string::npos)
        << line;
  }
  for (const char* text : {"[1e999]", "[-1.5e400]", R"({"a":2e308})"}) {
    try {
      (void)serve::Json::parse(text);
      ADD_FAILURE() << "accepted " << text;
    } catch (const sim::SimulationError& e) {
      EXPECT_EQ(e.kind(), sim::FailureKind::kInvalidInput) << text;
    }
  }
  // Underflow is not an error: 1e-999 reads as zero, a valid sigma.
  const serve::Json ok = serve::Json::parse(f.dispatch(
      R"({"id":5,"type":"gradients","circuit":"s27","std_dl":1e-999})"));
  EXPECT_TRUE(ok.find("ok")->as_bool());
}

TEST(Dispatch, EmbeddedMetricsCoverTheWholeAnalysis) {
  // The embedded projection of a response is the analysis run in-process
  // under one registry (the CLI's --metrics setup), design load excluded:
  // it counts the nominal sample, the block-model and Gradient-Analysis
  // probes as well as the Monte-Carlo samples.
  core::PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;
  stats::RunOptions opt;
  opt.samples = 8;
  opt.seed = 3;
  opt.exec.threads = 1;
  const auto in_process = [&](const api::DesignSpec& spec, auto&& analysis) {
    const auto session = api::Session::load(spec);
    obs::Registry reg;
    {
      obs::ScopedContext scope(&reg, 0);
      stats::RunOptions o = opt;
      o.registry = &reg;
      analysis(*session, o);
    }
    return serve::Json::parse(reg.to_json(false));
  };
  DispatchFixture f;

  api::DesignSpec graph_spec;
  graph_spec.circuit = "s27";
  graph_spec.graph = true;
  graph_spec.top_k = 8;
  const serve::Json graph = serve::Json::parse(f.dispatch(
      R"({"id":1,"type":"graph","circuit":"s27","top_k":8,"samples":8,)"
      R"("seed":3,"threads":1,"include_metrics":true})"));
  const serve::Json graph_ref =
      in_process(graph_spec, [&](const api::Session& s,
                                 const stats::RunOptions& o) {
        (void)s.run_graph(model, o);
      });
  ASSERT_NE(graph.find("metrics"), nullptr) << graph.dump();
  EXPECT_EQ(graph.find("metrics")->dump(), graph_ref.dump());
  // The counts of `lcsf_sta --circuit s27 --graph --top-k 8 --samples 8
  // --seed 3 --threads 1 --metrics`: 35 block-model probes, the nominal
  // sample and the Monte-Carlo samples.
  const serve::Json* counters = graph.find("metrics")->find("counters");
  EXPECT_EQ(counters->find("teta.transients")->as_int(), 89);
  EXPECT_EQ(counters->find("stats.graph.stages_simulated")->as_int(), 54);

  // A yield with no clock period takes it from Gradient Analysis first.
  const serve::Json yield = serve::Json::parse(f.dispatch(
      R"({"id":2,"type":"yield","circuit":"s27","samples":8,"seed":3,)"
      R"("threads":1,"include_metrics":true})"));
  const serve::Json yield_ref =
      in_process(spec_for("s27"), [&](const api::Session& s,
                                      const stats::RunOptions& o) {
        (void)s.run_yield(model, 0.0, "mc", 0.9987, o);
      });
  ASSERT_NE(yield.find("metrics"), nullptr) << yield.dump();
  EXPECT_EQ(yield.find("metrics")->dump(), yield_ref.dump());
}

TEST(Dispatch, MetricsReportsServeCounters) {
  DispatchFixture f;
  (void)f.dispatch(
      R"({"id":1,"type":"monte_carlo","circuit":"s27","samples":4})");
  (void)f.dispatch(R"({"id":2,"type":"bad-type"})");
  const std::string resp = f.dispatch(R"({"id":3,"type":"metrics"})");
  const serve::Json v = serve::Json::parse(resp);
  const serve::Json* counters = v.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("serve.requests")->as_int(), 3);
  EXPECT_EQ(counters->find("serve.errors")->as_int(), 1);
  EXPECT_EQ(counters->find("serve.requests.monte_carlo")->as_int(), 1);
  const serve::Json* cache = v.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("misses")->as_int(), 1);
  EXPECT_EQ(cache->find("entries")->as_int(), 1);
  // Engine counters from the per-request registry were merged in.
  EXPECT_GT(counters->find("stats.mc.samples")->as_int(), 0);
}

// A cold load characterizes under a registry of its own, folded into the
// server-wide one without its span events: cold loads leave the server's
// span log as it was, while its counters and timers count every load.
TEST(Dispatch, ColdLoadsAddNoServerSpanEvents) {
  DispatchFixture f;
  const std::size_t spans = f.registry.snapshot().spans.size();
  constexpr std::size_t kLoads = 3;
  for (std::size_t k = 0; k < kLoads; ++k) {
    const std::string resp =
        f.dispatch(R"({"id":1,"type":"load","circuit":"s27","elements":)" +
                   std::to_string(10 + k) + "}");
    ASSERT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
  }
  EXPECT_EQ(f.cache.stats().misses, kLoads);
  const obs::Snapshot snap = f.registry.snapshot();
  EXPECT_EQ(snap.spans.size(), spans);
  EXPECT_EQ(snap.timers.at("core.characterize").count, kLoads);
  EXPECT_EQ(snap.counters.at("serve.cache.misses"), kLoads);
  EXPECT_GT(snap.counters.at("mor.pact.eigensolves"), 0u);
}

TEST(Dispatch, ShutdownSetsTheFlag) {
  DispatchFixture f;
  const auto out =
      serve::dispatch_request(R"({"id":1,"type":"shutdown"})", f.ctx);
  EXPECT_TRUE(out.shutdown);
  EXPECT_NE(out.response.find("\"ok\":true"), std::string::npos);
  const auto bad = serve::dispatch_request(
      R"({"id":1,"type":"shutdown","extra":1})", f.ctx);
  EXPECT_FALSE(bad.shutdown);  // strict validation applies here too
}

// ---- TCP server end to end --------------------------------------------

/// Blocking TCP connection to the server's loopback port.
int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// Minimal blocking NDJSON client for the tests: connect to the
/// loopback port, send each request line, read one response line each.
std::vector<std::string> exchange(int port,
                                  const std::vector<std::string>& requests) {
  const int fd = connect_loopback(port);
  std::vector<std::string> responses;
  std::string buffer;
  for (const std::string& req : requests) {
    const std::string line = req + "\n";
    EXPECT_EQ(::send(fd, line.data(), line.size(), 0),
              static_cast<ssize_t>(line.size()));
    for (;;) {
      const std::size_t nl = buffer.find('\n');
      if (nl != std::string::npos) {
        responses.push_back(buffer.substr(0, nl));
        buffer.erase(0, nl + 1);
        break;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed mid-response";
        ::close(fd);
        return responses;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return responses;
}

TEST(Server, ServesRequestsOverTcpAndShutsDown) {
  obs::Registry registry;
  serve::ServerOptions opt;
  opt.workers = 2;
  opt.registry = &registry;
  serve::Server server(opt);
  server.bind_and_listen();
  ASSERT_GT(server.port(), 0);

  const std::string mc_req =
      R"({"id":"w1","type":"monte_carlo","circuit":"s27","samples":6,"seed":3})";

  // In-process dispatch must equal the over-the-wire bytes: compute the
  // expected response through a private context first.
  serve::DesignCache expected_cache;
  serve::ServeContext expected_ctx;
  expected_ctx.cache = &expected_cache;
  const std::string expected =
      serve::dispatch_request(mc_req, expected_ctx).response;

  std::vector<std::string> responses;
  runtime::ThreadPool pool(2);
  pool.parallel_for_lanes(
      2,
      [&](std::size_t begin, std::size_t, std::size_t) {
        if (begin == 0) {
          server.run();  // blocks until the client sends shutdown
        } else {
          responses = exchange(
              server.port(),
              {mc_req, mc_req, R"({"id":"w3","type":"shutdown"})"});
        }
      },
      1);

  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0], expected);  // wire == in-process, cold
  EXPECT_EQ(responses[1], expected);  // and cached
  EXPECT_NE(responses[2].find("\"type\":\"shutdown\""), std::string::npos);
  EXPECT_EQ(server.cache().stats().hits, 1u);
}

// A client that never sends a newline cannot grow the server's buffer
// without bound: past kMaxRequestLineBytes the server answers one
// classified invalid-input error and closes the connection, then keeps
// serving other clients.
TEST(Server, RejectsAnOverlongRequestLine) {
  serve::ServerOptions opt;
  opt.workers = 1;
  serve::Server server(opt);
  server.bind_and_listen();
  ASSERT_GT(server.port(), 0);

  std::string received;
  bool closed = false;
  std::vector<std::string> after;
  runtime::ThreadPool pool(2);
  pool.parallel_for_lanes(
      2,
      [&](std::size_t begin, std::size_t, std::size_t) {
        if (begin == 0) {
          server.run();  // blocks until the second client sends shutdown
          return;
        }
        const int fd = connect_loopback(server.port());
        const std::string junk(serve::kMaxRequestLineBytes + 1, 'x');
        std::size_t off = 0;
        while (off < junk.size()) {
          const ssize_t n = ::send(fd, junk.data() + off, junk.size() - off,
                                   MSG_NOSIGNAL);
          if (n <= 0) break;
          off += static_cast<std::size_t>(n);
        }
        char chunk[4096];
        for (;;) {
          const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
          if (n <= 0) {
            closed = n == 0;
            break;
          }
          received.append(chunk, static_cast<std::size_t>(n));
        }
        ::close(fd);
        after = exchange(server.port(), {R"({"id":2,"type":"shutdown"})"});
      },
      1);

  ASSERT_FALSE(received.empty());
  ASSERT_EQ(received.back(), '\n');
  ASSERT_EQ(received.find('\n'), received.size() - 1);  // one response
  const serve::Json v =
      serve::Json::parse(received.substr(0, received.size() - 1));
  EXPECT_FALSE(v.find("ok")->as_bool());
  EXPECT_EQ(v.find("error")->find("kind")->as_string(), "invalid-input");
  EXPECT_TRUE(closed);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_NE(after[0].find("\"type\":\"shutdown\""), std::string::npos);
}

}  // namespace
}  // namespace lcsf
