// Project-invariant lint engine behind the lcsf_lint driver.
//
// The framework's correctness rests on invariants the C++ toolchain
// cannot check: deterministic counter-based RNG streams (the
// thread-count-invariance contract of docs/monte_carlo.md), classified
// sim::SimDiagnostics failure paths instead of naked throws
// (docs/robustness.md), no exact floating-point comparison on computed
// quantities, all parallelism routed through runtime::ThreadPool, no
// hash-order iteration or wall-clock reads where results or serialized
// output could observe them. This engine scans source text for
// violations of those invariants; the rules are deliberately textual (a
// scrubber removes comments and string literals first) so the tool
// builds with zero dependencies and runs in milliseconds as a ctest.
// docs/static_analysis.md documents every rule, its paper invariant,
// and the suppression syntax.
//
// v2 is a multi-pass architecture:
//   pass 1 (this file): per-file scan -- scrub, parse suppressions and
//     `#include "..."` edges, run the line rules.
//   pass 2 (project_analyzer.hpp): cross-file analysis over all scans --
//     include graph, module layering manifest, cycles, orphan headers.
//   finalize: unused-suppression auditing once BOTH passes have had the
//     chance to consume a directive, then canonical ordering.
//
// Split from the driver so tests/test_lint.cpp can feed synthetic
// sources through scan_file()/analyze_project()/lint_source() and
// assert exact rule ids and lines.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace lcsf::lint {

/// One rule violation (or suppression problem) in one file.
struct Finding {
  std::string rule;     ///< stable rule id (see rules())
  std::size_t line = 0; ///< 1-based line number
  std::string message;  ///< human-readable explanation
  std::string file;     ///< repo-relative path (set by scan_file)
  /// For include-graph findings: the offending edge or cycle as a path
  /// of repo-relative files (or module names for module-level cycles).
  std::vector<std::string> edge_path;
  /// True when a file-scope directive silenced this finding. Suppressed
  /// findings are dropped from the text report but carried in the
  /// lcsf-lint-v2 JSON document with their status.
  bool suppressed = false;
};

/// Static description of one rule, for --list-rules and the docs.
struct RuleInfo {
  const char* id;
  const char* summary;
};

/// Every enforced rule, in reporting order. The meta-findings emitted by
/// the suppression checker (unknown-rule-suppression,
/// suppression-missing-justification, unused-suppression) are not listed
/// here and cannot themselves be suppressed.
const std::vector<RuleInfo>& rules();

/// True when `id` names an entry of rules().
bool is_rule(const std::string& id);

/// Source text split into parallel per-line views: `code` has comments,
/// string literals and char literals blanked out (line structure kept),
/// `comments` has only the comment text. Rules scan `code`; the
/// suppression parser scans `comments`. Exposed for direct testing.
struct ScrubbedSource {
  std::vector<std::string> code;
  std::vector<std::string> comments;
};
ScrubbedSource scrub(const std::string& content);

/// File-scope suppression directive parsed out of the comment stream.
struct Suppression {
  std::string rule;
  std::size_t line = 0;  ///< where the directive lives
  bool justified = false;
  bool used = false;
};

/// A quoted `#include "target"` directive (project include edge).
struct Include {
  std::string target;    ///< verbatim include path between the quotes
  std::size_t line = 0;  ///< 1-based line of the directive
};

/// Pass-1 result for one file: per-file findings (suppressed ones kept
/// and flagged), the parsed suppressions (with use-tracking state the
/// project pass continues), and the outgoing include edges the project
/// pass consumes.
struct FileScan {
  std::string path;  ///< repo-relative, forward slashes
  std::vector<Finding> findings;
  std::vector<Suppression> suppressions;
  std::vector<Include> includes;
};

/// Run pass 1 on one file. `path` must be the repo-relative path with
/// forward slashes (e.g. "src/spice/transient.cpp"): several rules
/// scope on it. Findings are not yet sorted and unused-suppression has
/// not run -- call finalize_scan() after any project-level pass.
FileScan scan_file(const std::string& path, const std::string& content);

/// Append `finding` to `scan`, marking it suppressed (and the directive
/// used) when the file carries a matching justified-or-not directive.
/// The project pass routes its findings through this so file-scope
/// suppressions apply uniformly across both passes.
void attach_finding(FileScan& scan, Finding finding);

/// Emit unused-suppression meta-findings and sort the findings into the
/// canonical (line, rule) order. Call exactly once per scan, after every
/// pass that could consume a suppression.
void finalize_scan(FileScan& scan);

/// One-shot per-file convenience used by the unit tests and subset
/// scans: scan + finalize, returning only the active (non-suppressed)
/// findings in canonical order. Cross-file rules never fire here.
std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content);

/// Serialize scans into the versioned machine-readable findings
/// document (schema id "lcsf-lint-v2", see tools/lint_schema.json):
/// every finding -- suppressed ones included, status flagged -- plus
/// files_scanned and the total suppression-directive count the CI
/// suppression-budget gate rides on. Scans must already be finalized;
/// findings appear in scan order (the driver scans paths sorted).
std::string findings_to_json(const std::vector<FileScan>& scans);

}  // namespace lcsf::lint
