// Structured simulation diagnostics shared by every engine and driver.
//
// The paper's central negative result is that conventional simulation of a
// non-passive variational macromodel *diverges* (Example 1, Table 3); a
// statistical driver therefore has to treat divergence as data, not as a
// fatal error. This header defines the taxonomy every engine reports in
// (FailureKind + SimDiagnostics), the exception type that carries a
// diagnostic through a call chain (SimulationError), and the bounded
// recovery policy knobs (RecoveryOptions) honored by the SPICE and TETA
// engines. It is deliberately header-only and dependency-free (std only)
// so that spice/, teta/, stats/ and core/ can all include it without a
// library cycle. See docs/robustness.md for the full story.
#pragma once

#include <array>
#include <cstddef>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace lcsf::sim {

/// Why a simulation (or one timestep of it) died. Kinds are ordered for
/// stable iteration; kCount is a sentinel for counting arrays.
enum class FailureKind {
  kNone = 0,             ///< no failure (diagnostics of a converged run)
  kDcFailure,            ///< no DC operating point even with homotopy
  kNewtonNonConvergence, ///< Newton/SC iteration limit hit inside a step
  kBlowUp,               ///< solution exceeded the blow-up bound
  kUnstableMacromodel,   ///< load model rejected as unstable/non-passive
  kSingularSystem,       ///< LU hit a zero pivot / singular impedance
  kInvalidInput,         ///< precondition violated: bad options/topology
  kOther,                ///< anything else (wrapped foreign exception)
  kCount,                ///< sentinel: number of kinds above
};

constexpr std::size_t kNumFailureKinds =
    static_cast<std::size_t>(FailureKind::kCount);

/// Short stable identifier, suitable for report tables and test baselines.
constexpr const char* failure_kind_name(FailureKind k) {
  switch (k) {
    case FailureKind::kNone:
      return "none";
    case FailureKind::kDcFailure:
      return "dc-failure";
    case FailureKind::kNewtonNonConvergence:
      return "newton-nonconvergence";
    case FailureKind::kBlowUp:
      return "blow-up";
    case FailureKind::kUnstableMacromodel:
      return "unstable-macromodel";
    case FailureKind::kSingularSystem:
      return "singular-system";
    case FailureKind::kInvalidInput:
      return "invalid-input";
    case FailureKind::kOther:
      return "other";
    case FailureKind::kCount:
      break;
  }
  return "invalid";
}

/// Structured record of how a simulation ended. Replaces the stringly-typed
/// `failure` members the engines used to carry: callers can branch on
/// `kind` (the statistical drivers classify and count) while `message()`
/// keeps the human-readable story.
struct SimDiagnostics {
  FailureKind kind = FailureKind::kNone;
  std::string detail;        ///< engine-specific context (free text)
  double failure_time = 0.0; ///< simulated time of death [s]
  long iterations = 0;       ///< Newton/SC iterations spent in total
  int retries_used = 0;      ///< recovery retries consumed before the end
  double max_abs_v = 0.0;    ///< max |v| over the unknowns at the end

  bool failed() const { return kind != FailureKind::kNone; }

  /// "newton-nonconvergence at t = 1.2e-10 s: <detail> (after 3 retries)"
  /// The time prints with six significant digits (%g): engine failures
  /// happen at picoseconds to nanoseconds, where fixed-point reads 0.
  std::string message() const {
    if (!failed()) return "converged";
    std::string m = failure_kind_name(kind);
    if (failure_time > 0.0) {
      char t[32];
      std::snprintf(t, sizeof t, "%g", failure_time);
      m += std::string(" at t = ") + t + " s";
    }
    if (!detail.empty()) m += ": " + detail;
    if (retries_used > 0) {
      m += " (after " + std::to_string(retries_used) + " retries)";
    }
    return m;
  }
};

/// Bounded recovery policy applied when one timestep refuses to converge:
/// halve the timestep and escalate (tighten) the damping, up to the budget,
/// before declaring the step dead. Both engines honor it; see
/// docs/robustness.md for the exact semantics per engine.
struct RecoveryOptions {
  /// Timestep-halving retries allowed (0 disables recovery entirely).
  int max_dt_retries = 0;
  /// Damping multiplier applied per escalation (each retry clamps the
  /// per-iteration update harder; must be in (0, 1]).
  double damping_factor = 0.5;
};

/// Exception that carries a SimDiagnostics through a call chain, so that
/// fail-soft drivers (stats::Runner's analyses) can classify a failed
/// sample without string matching. Engines return diagnostics in their
/// result structs; *facades* that must throw (e.g. core::PathAnalyzer's
/// per-sample evaluation) throw this.
class SimulationError : public std::runtime_error {
 public:
  explicit SimulationError(SimDiagnostics diag)
      : std::runtime_error(diag.message()), diag_(std::move(diag)) {}
  SimulationError(FailureKind kind, const std::string& detail)
      : SimulationError(SimDiagnostics{kind, detail, 0.0, 0, 0, 0.0}) {}

  const SimDiagnostics& diagnostics() const { return diag_; }
  FailureKind kind() const { return diag_.kind; }

 private:
  SimDiagnostics diag_;
};

/// Precondition failure in engine code (bad options, inconsistent
/// topology, out-of-domain argument). Engine code under src/{spice,teta,
/// stats} must not throw naked std::invalid_argument/runtime_error -- the
/// lcsf_lint rule `raw-engine-throw` enforces it -- because the fail-soft
/// drivers classify exceptions by FailureKind and a naked throw would be
/// lumped into kOther. This shorthand keeps the one-line throw sites
/// readable.
[[noreturn]] inline void throw_invalid_input(const std::string& detail) {
  throw SimulationError(FailureKind::kInvalidInput, detail);
}

}  // namespace lcsf::sim
