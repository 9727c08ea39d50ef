// Unit tests for the lcsf_lint analyzer (tools/lint/lint_engine.* and
// tools/lint/project_analyzer.*).
//
// Synthetic sources go through lint_source() (per-file pass) or
// scan_file + analyze_project + finalize_scan (the full multi-pass
// pipeline) and the tests assert the exact rule ids, line numbers and
// edge paths -- including that suppressions work across both passes,
// that stale suppressions are themselves findings, and that violations
// hidden in comments or string literals never fire. Seeded violations
// below live inside string literals, which the engine scrubs when
// lcsf_lint scans this file, so they do not trip the tree-wide gate
// (and the quoted `#include` targets sit mid-line, so the raw-content
// include parser's line-start anchor skips them too).
#include "lint_engine.hpp"
#include "obs/json.hpp"
#include "project_analyzer.hpp"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace lcsf::lint {
namespace {

using Findings = std::vector<Finding>;

Findings run(const std::string& path, const std::string& src) {
  return lint_source(path, src);
}

/// "rule@line rule@line ..." rendering for compact exact-match asserts.
std::string ids(const Findings& f) {
  std::string out;
  for (const auto& x : f) {
    if (!out.empty()) out += ' ';
    out += x.rule + "@" + std::to_string(x.line);
  }
  return out;
}

TEST(LintScrub, BlanksCommentsAndLiterals) {
  const ScrubbedSource s = scrub(
      "int a; // trailing comment\n"
      "const char* s = \"rand()\";\n"
      "/* block\n"
      "   comment */ int b;\n");
  ASSERT_EQ(s.code.size(), 5u);  // 4 lines + empty tail after final \n
  EXPECT_EQ(s.code[0], "int a; ");
  EXPECT_EQ(s.comments[0], " trailing comment");
  // The literal body is gone from the code view.
  EXPECT_EQ(s.code[1].find("rand"), std::string::npos);
  EXPECT_EQ(s.comments[2], " block");
  EXPECT_NE(s.code[3].find("int b;"), std::string::npos);
}

TEST(LintScrub, HandlesRawStringsAndDigitSeparators) {
  const ScrubbedSource s = scrub(
      "auto r = R\"(std::thread inside raw string)\";\n"
      "int big = 1'000'000;\n");
  EXPECT_EQ(s.code[0].find("thread"), std::string::npos);
  // The digit separator must not open a char literal and eat the line.
  EXPECT_NE(s.code[1].find("000"), std::string::npos);
}

TEST(LintRng, FlagsLibcAndRandomDevice) {
  const auto f = run("src/stats/foo.cpp",
                     "void f() {\n"
                     "  int x = rand();\n"
                     "  srand(42);\n"
                     "  std::random_device rd;\n"
                     "  auto t = time(nullptr);\n"
                     "}\n");
  EXPECT_EQ(ids(f),
            "nondeterministic-rng@2 nondeterministic-rng@3 "
            "nondeterministic-rng@4 nondeterministic-rng@5");
}

TEST(LintRng, FlagsDefaultSeededMt19937Only) {
  const auto f = run("bench/foo.cpp",
                     "std::mt19937 bad;\n"
                     "std::mt19937_64 bad2{};\n"
                     "std::mt19937 good(42);\n"
                     "std::mt19937_64 good2(seed);\n");
  EXPECT_EQ(ids(f), "nondeterministic-rng@1 nondeterministic-rng@2");
}

TEST(LintRng, IdentifiersContainingTimeDoNotFire) {
  const auto f = run("src/spice/foo.cpp",
                     "double failure_time(int k);\n"
                     "auto v = res.time.size();\n"
                     "double settling_time(double x) { return x; }\n");
  EXPECT_EQ(ids(f), "");
}

TEST(LintThrow, FiresOnlyInEngineDirs) {
  const std::string src =
      "void f() {\n"
      "  throw std::invalid_argument(\"bad\");\n"
      "  throw std::runtime_error(\"worse\");\n"
      "}\n";
  EXPECT_EQ(ids(run("src/spice/x.cpp", src)),
            "raw-engine-throw@2 raw-engine-throw@3");
  EXPECT_EQ(ids(run("src/teta/x.cpp", src)),
            "raw-engine-throw@2 raw-engine-throw@3");
  EXPECT_EQ(ids(run("src/stats/x.cpp", src)),
            "raw-engine-throw@2 raw-engine-throw@3");
  // circuit/ and numeric/ are API layers, not fail-soft engines.
  EXPECT_EQ(ids(run("src/circuit/x.cpp", src)), "");
  EXPECT_EQ(ids(run("src/numeric/x.cpp", src)), "");
}

TEST(LintThrow, LogicErrorAndSimulationErrorAreFine) {
  const auto f = run("src/teta/x.cpp",
                     "void f() {\n"
                     "  throw std::logic_error(\"misuse\");\n"
                     "  throw sim::SimulationError(diag);\n"
                     "  sim::throw_invalid_input(\"bad dt\");\n"
                     "}\n");
  EXPECT_EQ(ids(f), "");
}

TEST(LintFloatEq, FlagsLiteralComparisonsBothSides) {
  const auto f = run("src/mor/x.cpp",
                     "bool a = x == 0.0;\n"
                     "bool b = 1.5e-3 != y;\n"
                     "bool c = z == -2.;\n"
                     "bool d = w == 1e9;\n");
  EXPECT_EQ(ids(f),
            "float-equality@1 float-equality@2 float-equality@3 "
            "float-equality@4");
}

TEST(LintFloatEq, TolerancesAssignmentsAndIntsAreFine) {
  const auto f = run("src/mor/x.cpp",
                     "bool a = std::abs(x - y) <= 1e-12;\n"
                     "double b = 1.0;\n"
                     "bool c = n == 0;\n"
                     "x *= 2.0;\n"
                     "bool d = numeric::exact_zero(x);\n");
  EXPECT_EQ(ids(f), "");
}

TEST(LintThread, RawThreadsOutsidePoolOnly) {
  const std::string src =
      "#pragma once\n"
      "#include <thread>\n"
      "std::thread t(f);\n"
      "auto fut = std::async(g);\n"
      "std::this_thread::yield();\n";
  EXPECT_EQ(ids(run("tests/x.cpp", src)),
            "thread-outside-pool@3 thread-outside-pool@4");
  EXPECT_EQ(ids(run("src/runtime/thread_pool.cpp", src)), "");
  EXPECT_EQ(ids(run("src/runtime/thread_pool.hpp", src)), "");
}

TEST(LintHeader, PragmaOnceRequired) {
  EXPECT_EQ(ids(run("src/mor/x.hpp", "namespace a {}\n")), "include-guard@1");
  EXPECT_EQ(ids(run("src/mor/x.hpp", "#pragma once\nnamespace a {}\n")), "");
  // Implementation files need no guard.
  EXPECT_EQ(ids(run("src/mor/x.cpp", "namespace a {}\n")), "");
}

TEST(LintHeader, LegacyIfndefGuardFlagged) {
  const auto f = run("src/mor/x.hpp",
                     "#ifndef LCSF_MOR_X_HPP\n"
                     "#define LCSF_MOR_X_HPP\n"
                     "#endif\n");
  // Missing #pragma once (line 1) plus the legacy guard itself (line 1).
  EXPECT_EQ(ids(f), "include-guard@1 include-guard@1");
}

TEST(LintHeader, UsingNamespaceOnlyInHeaders) {
  EXPECT_EQ(
      ids(run("src/mor/x.hpp", "#pragma once\nusing namespace std;\n")),
      "using-namespace-header@2");
  EXPECT_EQ(ids(run("src/mor/x.cpp", "using namespace lcsf;\n")), "");
}

TEST(LintSpan, FlagsTemporaryScopedSpans) {
  const auto f = run("src/mor/x.cpp",
                     "void f() {\n"
                     "  obs::ScopedSpan{\"phase\"};\n"
                     "  obs::ScopedSpan(\"phase\");\n"
                     "  ScopedSpan {\"unqualified\"};\n"
                     "}\n");
  EXPECT_EQ(ids(f),
            "obs-span-balance@2 obs-span-balance@3 obs-span-balance@4");
}

TEST(LintSpan, NamedSpansAndLookalikesAreFine) {
  const auto f = run("src/mor/x.cpp",
                     "void f() {\n"
                     "  obs::ScopedSpan span(\"phase\");\n"
                     "  obs::ScopedSpan braced{\"phase\"};\n"
                     "  MyScopedSpan(\"not the obs type\");\n"
                     "}\n");
  EXPECT_EQ(ids(f), "");
}

TEST(LintSpan, ObsSubsystemItselfIsExempt) {
  // The declaring header's own ctor/dtor signatures must not self-flag.
  const std::string src =
      "#pragma once\n"
      "class ScopedSpan {\n"
      "  explicit ScopedSpan(const char* name);\n"
      "  ~ScopedSpan();\n"
      "};\n";
  EXPECT_EQ(ids(run("src/obs/span.hpp", src)), "");
  // Elsewhere the class-shaped and ctor-shaped lines still fire (the
  // rule is conservative outside the one sanctioned directory); the
  // destructor declaration never does.
  EXPECT_EQ(ids(run("src/mor/x.hpp", src)),
            "obs-span-balance@2 obs-span-balance@3");
}

TEST(LintScrub, ViolationsInCommentsAndStringsDoNotFire) {
  const auto f = run("src/stats/x.cpp",
                     "// call rand() then throw std::runtime_error\n"
                     "const char* doc = \"if (x == 0.0) std::thread\";\n"
                     "/* std::random_device */\n");
  EXPECT_EQ(ids(f), "");
}

TEST(LintSuppress, JustifiedSuppressionSilencesRule) {
  const auto f = run("tests/x.cpp",
                     "// lcsf-lint: allow(thread-outside-pool) -- stress "
                     "test needs a raw thread\n"
                     "std::thread t(f);\n");
  EXPECT_EQ(ids(f), "");
}

TEST(LintSuppress, MissingJustificationIsAFinding) {
  const auto f = run("tests/x.cpp",
                     "// lcsf-lint: allow(thread-outside-pool)\n"
                     "std::thread t(f);\n");
  // The violation is still silenced, but the bare directive is reported.
  EXPECT_EQ(ids(f), "suppression-missing-justification@1");
}

TEST(LintSuppress, UnknownRuleIsAFinding) {
  const auto f =
      run("tests/x.cpp", "// lcsf-lint: allow(no-such-rule) -- because\n");
  EXPECT_EQ(ids(f), "unknown-rule-suppression@1");
}

TEST(LintSuppress, StaleSuppressionIsAFinding) {
  const auto f = run("tests/x.cpp",
                     "int x;\n"
                     "// lcsf-lint: allow(float-equality) -- no longer "
                     "needed after a refactor\n");
  EXPECT_EQ(ids(f), "unused-suppression@2");
}

TEST(LintSuppress, SuppressionIsFileScopedToItsRuleOnly) {
  const auto f = run("src/spice/x.cpp",
                     "// lcsf-lint: allow(raw-engine-throw) -- exercising "
                     "the legacy path in a fixture\n"
                     "void f() { throw std::runtime_error(\"x\"); }\n"
                     "bool g(double v) { return v == 0.0; }\n");
  // raw-engine-throw is silenced file-wide; float-equality still fires.
  EXPECT_EQ(ids(f), "float-equality@3");
}

TEST(LintIter, FlagsRangeForAndBeginOverUnordered) {
  const auto f = run("src/obs/x.cpp",
                     "std::unordered_map<std::string, int> counts;\n"
                     "void f() {\n"
                     "  for (const auto& kv : counts) use(kv);\n"
                     "  auto it = counts.begin();\n"
                     "}\n");
  EXPECT_EQ(ids(f),
            "nondeterministic-iteration@3 nondeterministic-iteration@4");
}

TEST(LintIter, OrderedMapAndLookupOnlyUseAreFine) {
  const auto f = run("src/obs/x.cpp",
                     "std::map<std::string, int> sorted;\n"
                     "std::unordered_map<std::string, int> index;\n"
                     "void f() {\n"
                     "  for (const auto& kv : sorted) use(kv);\n"
                     "  auto hit = index.find(key);\n"
                     "  index[key] = 1;\n"
                     "}\n");
  // Iterating the ordered map is the sanctioned fix; lookup-only use of
  // the hash map never exposes element order.
  EXPECT_EQ(ids(f), "");
}

TEST(LintIter, RuleIsScopedToSrcAndTools) {
  const std::string src =
      "std::unordered_set<int> pool;\n"
      "void f() { for (int v : pool) use(v); }\n";
  EXPECT_EQ(ids(run("src/stats/x.cpp", src)),
            "nondeterministic-iteration@2");
  EXPECT_EQ(ids(run("tools/x.cpp", src)), "nondeterministic-iteration@2");
  // Benches and tests may walk hash containers; their order never
  // reaches exported results.
  EXPECT_EQ(ids(run("bench/x.cpp", src)), "");
  EXPECT_EQ(ids(run("tests/x.cpp", src)), "");
}

TEST(LintWallClock, FiresInEngineNotInObsOrBench) {
  const std::string src =
      "auto t0 = std::chrono::steady_clock::now();\n"
      "double dt = elapsed(t0);\n";
  EXPECT_EQ(ids(run("src/teta/x.cpp", src)), "wall-clock-in-engine@1");
  EXPECT_EQ(ids(run("src/stats/x.cpp", src)), "wall-clock-in-engine@1");
  // src/obs/ owns the phase timers; bench/ measures wall time by design.
  EXPECT_EQ(ids(run("src/obs/x.cpp", src)), "");
  EXPECT_EQ(ids(run("bench/x.cpp", src)), "");
}

TEST(LintWallClock, ChronoIncludeAndBareClockNamesFire) {
  const auto f = run("src/mor/x.cpp",
                     "using clock = steady_clock;\n"
                     "auto now = system_clock::now();\n");
  EXPECT_EQ(ids(f), "wall-clock-in-engine@1 wall-clock-in-engine@2");
}

TEST(LintMutStatic, FlagsMutableHeaderStatics) {
  const auto f = run("src/mor/x.hpp",
                     "#pragma once\n"
                     "static int counter = 0;\n"
                     "inline static double total;\n"
                     "static constexpr int kDim = 4;\n"
                     "static const char* kName = \"x\";\n"
                     "static int helper() { return 1; }\n");
  // constexpr/const data and static functions are fine; the two mutable
  // objects are hidden cross-TU state.
  EXPECT_EQ(ids(f),
            "mutable-static-in-header@2 mutable-static-in-header@3");
}

TEST(LintMutStatic, ImplementationFilesAreExempt) {
  EXPECT_EQ(ids(run("src/mor/x.cpp", "static int counter = 0;\n")), "");
}

// ---------------------------------------------------------------------
// Pass 2: the cross-file include-graph rules, driven end to end through
// scan_file -> analyze_project -> finalize_scan on synthetic trees.
// ---------------------------------------------------------------------

using SourceTree = std::vector<std::pair<std::string, std::string>>;

std::vector<FileScan> project(const SourceTree& files,
                              const std::string& manifest_text) {
  std::vector<FileScan> scans;
  scans.reserve(files.size());
  for (const auto& [path, src] : files) {
    scans.push_back(scan_file(path, src));
  }
  const LayerManifest manifest = parse_layers(manifest_text);
  EXPECT_TRUE(manifest.error.empty()) << manifest.error;
  analyze_project(scans, manifest);
  for (auto& s : scans) finalize_scan(s);
  return scans;
}

/// All unsuppressed findings, rendered "file:rule@line ..." in scan
/// order (scans arrive sorted by the driver; tests pass sorted trees).
std::string project_ids(const std::vector<FileScan>& scans) {
  std::string out;
  for (const auto& s : scans) {
    for (const auto& f : s.findings) {
      if (f.suppressed) continue;
      if (!out.empty()) out += ' ';
      out += f.file + ":" + f.rule + "@" + std::to_string(f.line);
    }
  }
  return out;
}

TEST(LintLayers, ManifestParsesLayersAndRejectsDuplicates) {
  const LayerManifest m = parse_layers(
      "# comment line\n"
      "alpha beta\n"
      "\n"
      "gamma  # trailing comment\n");
  EXPECT_TRUE(m.error.empty());
  EXPECT_EQ(m.layer.at("alpha"), 0);
  EXPECT_EQ(m.layer.at("beta"), 0);
  EXPECT_EQ(m.layer.at("gamma"), 1);
  EXPECT_FALSE(parse_layers("alpha\nalpha\n").error.empty());
  EXPECT_FALSE(parse_layers("# only comments\n").error.empty());
}

TEST(LintLayers, ModuleOfCollapsesDirectories) {
  EXPECT_EQ(module_of("src/mor/pact.hpp"), "mor");
  EXPECT_EQ(module_of("tools/lint/lint_engine.cpp"), "tools");
  EXPECT_EQ(module_of("bench/bench_yield.cpp"), "bench");
  EXPECT_EQ(module_of("tests/test_lint.cpp"), "tests");
}

TEST(LintLayers, UpwardEdgeAcrossModulesIsAViolation) {
  const auto scans = project(
      {
          {"src/alpha/low.hpp",
           "#pragma once\n"
           "#include \"beta/high.hpp\"\n"},
          {"src/alpha/use.cpp", "#include \"alpha/low.hpp\"\n"},
          {"src/beta/high.hpp", "#pragma once\n"},
      },
      "alpha\nbeta\n");
  EXPECT_EQ(project_ids(scans),
            "src/alpha/low.hpp:layering-violation@2");
  // The finding carries the offending edge as a path.
  const Finding& f = scans[0].findings[0];
  ASSERT_EQ(f.edge_path.size(), 2u);
  EXPECT_EQ(f.edge_path[0], "src/alpha/low.hpp");
  EXPECT_EQ(f.edge_path[1], "src/beta/high.hpp");
}

TEST(LintLayers, DownwardAndSameLayerEdgesAreFine) {
  const auto scans = project(
      {
          {"src/alpha/low.hpp", "#pragma once\n"},
          {"src/beta/high.hpp",
           "#pragma once\n"
           "#include \"alpha/low.hpp\"\n"},
          {"src/beta/use.cpp", "#include \"beta/high.hpp\"\n"},
      },
      "alpha\nbeta\n");
  EXPECT_EQ(project_ids(scans), "");
}

TEST(LintLayers, ModuleMissingFromManifestIsReportedOnce) {
  const auto scans = project(
      {
          {"src/alpha/low.hpp", "#pragma once\n"},
          {"src/mystery/a.cpp", "#include \"alpha/low.hpp\"\n"},
          {"src/mystery/b.cpp", "#include \"alpha/low.hpp\"\n"},
      },
      "alpha\n");
  // One finding for the unknown module, not one per edge.
  EXPECT_EQ(project_ids(scans),
            "src/mystery/a.cpp:layering-violation@1");
}

TEST(LintCycles, FileLevelIncludeCycleReportsTheWholePath) {
  const auto scans = project(
      {
          {"src/gamma/a.hpp",
           "#pragma once\n"
           "#include \"gamma/b.hpp\"\n"},
          {"src/gamma/b.hpp",
           "#pragma once\n"
           "#include \"gamma/a.hpp\"\n"},
          {"src/gamma/use.cpp", "#include \"gamma/a.hpp\"\n"},
      },
      "gamma\n");
  // The finding lands on the back edge's includer, at its #include.
  EXPECT_EQ(project_ids(scans), "src/gamma/b.hpp:include-cycle@2");
  const Finding& f = scans[1].findings[0];
  ASSERT_EQ(f.edge_path.size(), 3u);
  EXPECT_EQ(f.edge_path[0], "src/gamma/a.hpp");
  EXPECT_EQ(f.edge_path[1], "src/gamma/b.hpp");
  EXPECT_EQ(f.edge_path[2], "src/gamma/a.hpp");
}

TEST(LintCycles, ModuleLevelCycleFiresWithoutAFileCycle) {
  // d1 -> e -> d2: acyclic at file level, cyclic once collapsed to
  // modules (delta -> eps -> delta), which the same-layer manifest
  // cannot catch.
  const auto scans = project(
      {
          {"src/delta/d1.hpp",
           "#pragma once\n"
           "#include \"eps/e.hpp\"\n"},
          {"src/delta/d2.hpp", "#pragma once\n"},
          {"src/delta/use.cpp", "#include \"delta/d1.hpp\"\n"},
          {"src/eps/e.hpp",
           "#pragma once\n"
           "#include \"delta/d2.hpp\"\n"},
      },
      "delta eps\n");
  EXPECT_EQ(project_ids(scans), "src/eps/e.hpp:include-cycle@2");
  const Finding& f = scans[3].findings[0];
  ASSERT_EQ(f.edge_path.size(), 3u);
  EXPECT_EQ(f.edge_path[0], "delta");
  EXPECT_EQ(f.edge_path[1], "eps");
  EXPECT_EQ(f.edge_path[2], "delta");
}

TEST(LintOrphan, UnincludedHeaderIsFlaggedAtLineOne) {
  const auto scans = project(
      {
          {"src/zeta/alone.hpp", "#pragma once\n"},
          {"src/zeta/used.hpp", "#pragma once\n"},
          {"src/zeta/use.cpp", "#include \"zeta/used.hpp\"\n"},
      },
      "zeta\n");
  EXPECT_EQ(project_ids(scans), "src/zeta/alone.hpp:orphan-header@1");
}

TEST(LintProject, SuppressionsApplyToIncludeGraphRules) {
  const auto scans = project(
      {
          {"src/alpha/low.hpp",
           "#pragma once\n"
           "// lcsf-lint: allow(layering-violation) -- legacy upward "
           "edge, migration tracked in the roadmap\n"
           "#include \"beta/high.hpp\"\n"},
          {"src/alpha/use.cpp", "#include \"alpha/low.hpp\"\n"},
          {"src/beta/high.hpp", "#pragma once\n"},
      },
      "alpha\nbeta\n");
  // Silenced in the text report, carried with status in the document.
  EXPECT_EQ(project_ids(scans), "");
  ASSERT_EQ(scans[0].findings.size(), 1u);
  EXPECT_EQ(scans[0].findings[0].rule, "layering-violation");
  EXPECT_TRUE(scans[0].findings[0].suppressed);
}

TEST(LintProject, StaleSuppressionOfAGraphRuleIsAFinding) {
  const auto scans = project(
      {
          {"src/alpha/clean.cpp",
           "// lcsf-lint: allow(include-cycle) -- cycle removed, "
           "directive left behind\n"
           "int x;\n"},
      },
      "alpha\n");
  EXPECT_EQ(project_ids(scans),
            "src/alpha/clean.cpp:unused-suppression@1");
}

TEST(LintJson, DocumentCarriesFindingsAndEdgePaths) {
  const auto scans = project(
      {
          {"src/alpha/low.hpp",
           "#pragma once\n"
           "#include \"beta/high.hpp\"\n"},
          {"src/alpha/use.cpp", "#include \"alpha/low.hpp\"\n"},
          {"src/beta/high.hpp", "#pragma once\n"},
      },
      "alpha\nbeta\n");
  const std::string doc = findings_to_json(scans);
  EXPECT_NE(doc.find("\"schema\": \"lcsf-lint-v2\""), std::string::npos);
  EXPECT_NE(doc.find("\"files_scanned\": 3"), std::string::npos);
  EXPECT_NE(doc.find("\"rule\": \"layering-violation\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"file\": \"src/alpha/low.hpp\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"line\": 2"), std::string::npos);
  EXPECT_NE(doc.find("\"suppressed\": false"), std::string::npos);
  EXPECT_NE(doc.find("\"edge_path\": [\"src/alpha/low.hpp\", "
                     "\"src/beta/high.hpp\"]"),
            std::string::npos);
}

TEST(LintJson, CleanTreeEmitsEmptyFindingsArray) {
  const auto scans = project(
      {
          {"src/alpha/low.hpp", "#pragma once\n"},
          {"src/alpha/use.cpp", "#include \"alpha/low.hpp\"\n"},
      },
      "alpha\n");
  const std::string doc = findings_to_json(scans);
  EXPECT_NE(doc.find("\"findings\": []"), std::string::npos);
  EXPECT_NE(doc.find("\"suppression_count\": 0"), std::string::npos);
}

// findings_to_json writes through the shared escaper.
TEST(LintJson, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(obs::json_escape("a\rb"), "a\\rb");
  EXPECT_EQ(obs::json_escape("a\x01" "b"), "a\\u0001b");
}

TEST(LintMeta, RuleRegistryIsConsistent) {
  EXPECT_FALSE(rules().empty());
  for (const auto& r : rules()) {
    EXPECT_TRUE(is_rule(r.id));
  }
  EXPECT_FALSE(is_rule("definitely-not-a-rule"));
}

}  // namespace
}  // namespace lcsf::lint
