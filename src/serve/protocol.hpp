// The lcsf-serve-v1 request dispatcher (docs/serving.md).
//
// One request = one JSON object on one line; one response = one JSON
// object on one line. dispatch_request is a pure function of (request
// line, shared context): the TCP server calls it per received line, and
// the tests / bench call it in-process -- the wire layer adds nothing
// but framing, so in-process and over-the-wire behavior are identical
// by construction.
//
// Determinism: every response except `metrics` is built exclusively
// from deterministic analysis results and serializes via serve::Json's
// canonical dump, so the same request yields the same response bytes
// whether the design was cold or cached, and whichever thread/lane
// handled it. The `metrics` response (and only it) carries wall-clock
// content by design.
//
// Field-by-field request/response documentation lives in
// docs/serving.md; the machine-readable response contract is
// tools/serve_schema.json (validated by tools/check_serve.py).
#pragma once

#include <cstddef>
#include <shared_mutex>
#include <string>

#include "obs/registry.hpp"
#include "serve/cache.hpp"
#include "sim/diagnostics.hpp"

namespace lcsf::serve {

/// Per-request caps on the fields that size one request's work or its
/// resources: `threads` sizes the lane workspaces up front and starts up
/// to that many OS threads, the sample counts and `top_k` size the
/// result buffers and the path set, and `elements` sizes the
/// characterized stage wire. Each cap sits far above any
/// practical request; a value over it is an invalid-input error naming
/// the field and the cap, so no single request line can exhaust the
/// host. tools/serve_schema.json pins the same values in its `limits`
/// block.
inline constexpr std::size_t kMaxRequestSamples = 100000;  ///< `samples`
inline constexpr std::size_t kMaxRequestPilot = 100000;    ///< `is_pilot`
inline constexpr std::size_t kMaxRequestTopK = 1024;       ///< `top_k`
inline constexpr std::size_t kMaxRequestThreads = 256;     ///< `threads`
inline constexpr std::size_t kMaxRequestElements = 2000;   ///< `elements`

/// Shared state a dispatcher operates on. One ServeContext per
/// connection lane; `cache`, `registry` and `metrics_gate` are shared
/// across lanes (the registry through per-lane sinks, the gate
/// arbitrating recording vs. snapshotting).
struct ServeContext {
  DesignCache* cache = nullptr;
  /// Server-wide metrics (serve.* plus engine counters merged per
  /// request). Null disables recording.
  obs::Registry* registry = nullptr;
  /// Readers-writer gate between metric recording (shared, held for
  /// the duration of every non-metrics request) and Registry::snapshot
  /// (exclusive, taken by the `metrics` request). Required when
  /// `registry` is shared by concurrent lanes; may be null otherwise.
  std::shared_mutex* metrics_gate = nullptr;
  std::size_t lane = 0;  ///< obs lane of this connection handler
};

struct DispatchResult {
  std::string response;   ///< one JSON line (no trailing newline)
  bool shutdown = false;  ///< request asked the server to stop
};

/// Parse, validate, execute and serialize one request. Never throws:
/// every failure -- malformed JSON, unknown/missing fields, unknown
/// circuit, a diverging simulation under on_failure=abort -- becomes an
/// error response carrying the classified sim::FailureKind name.
DispatchResult dispatch_request(const std::string& line, ServeContext& ctx);

/// The error response (one JSON line, no trailing newline) for input the
/// server rejects before dispatch, such as an over-long request line: an
/// empty `id` and type "error", as for a request whose id is unreadable.
std::string error_line(sim::FailureKind kind, const std::string& message);

}  // namespace lcsf::serve
