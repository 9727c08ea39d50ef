#include "lint_engine.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <set>

#include "obs/json.hpp"

namespace lcsf::lint {

namespace {

// ---------------------------------------------------------------------
// Scrubber: blank out comments and literals, collect comment text.
// ---------------------------------------------------------------------

enum class ScrubState {
  kCode,
  kLineComment,
  kBlockComment,
  kString,
  kChar,
  kRawString,
};

bool is_ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

}  // namespace

ScrubbedSource scrub(const std::string& content) {
  ScrubbedSource out;
  std::string code;
  std::string comment;
  ScrubState state = ScrubState::kCode;
  std::string raw_delim;  // ")delim" terminator of an active raw string
  char prev_code = '\0';  // last code char, to tell 'c' from digit sep.

  auto flush_line = [&] {
    out.code.push_back(code);
    out.comments.push_back(comment);
    code.clear();
    comment.clear();
  };

  const std::size_t n = content.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = content[i];
    const char next = (i + 1 < n) ? content[i + 1] : '\0';
    if (c == '\n') {
      // Newline ends line comments; strings/blocks continue (a dangling
      // unterminated string just scrubs to end of file, fail-safe).
      if (state == ScrubState::kLineComment) state = ScrubState::kCode;
      flush_line();
      continue;
    }
    if (c == '\r') continue;
    switch (state) {
      case ScrubState::kCode:
        if (c == '/' && next == '/') {
          state = ScrubState::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = ScrubState::kBlockComment;
          ++i;
        } else if (c == '"') {
          // R"delim( opens a raw string; the R must not be glued to a
          // preceding identifier (operator""_x, LR"..." are not used).
          if (prev_code == 'R' &&
              (code.size() < 2 || !is_ident_char(code[code.size() - 2]))) {
            std::size_t j = i + 1;
            while (j < n && content[j] != '(' && content[j] != '\n') ++j;
            if (j < n && content[j] == '(') {
              raw_delim = ")" + content.substr(i + 1, j - i - 1) + "\"";
              state = ScrubState::kRawString;
              code += ' ';
              i = j;  // skip past the opening '('
              break;
            }
          }
          state = ScrubState::kString;
          code += ' ';
          prev_code = '\0';
        } else if (c == '\'' && !is_ident_char(prev_code)) {
          // A quote after an identifier/digit is a digit separator
          // (1'000) -- only a bare quote opens a char literal.
          state = ScrubState::kChar;
          code += ' ';
          prev_code = '\0';
        } else {
          code += c;
          prev_code = c;
        }
        break;
      case ScrubState::kLineComment:
        comment += c;
        break;
      case ScrubState::kBlockComment:
        if (c == '*' && next == '/') {
          state = ScrubState::kCode;
          code += ' ';
          ++i;
        } else {
          comment += c;
        }
        break;
      case ScrubState::kString:
      case ScrubState::kChar:
        if (c == '\\') {
          ++i;  // skip the escaped char (never a newline in valid C++)
        } else if ((state == ScrubState::kString && c == '"') ||
                   (state == ScrubState::kChar && c == '\'')) {
          state = ScrubState::kCode;
        }
        break;
      case ScrubState::kRawString:
        if (c == ')' && content.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          state = ScrubState::kCode;
        }
        break;
    }
  }
  flush_line();
  return out;
}

namespace {

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

const char* const kRngRule = "nondeterministic-rng";
const char* const kThrowRule = "raw-engine-throw";
const char* const kFloatEqRule = "float-equality";
const char* const kThreadRule = "thread-outside-pool";
const char* const kGuardRule = "include-guard";
const char* const kUsingRule = "using-namespace-header";
const char* const kSpanRule = "obs-span-balance";
const char* const kIterRule = "nondeterministic-iteration";
const char* const kWallClockRule = "wall-clock-in-engine";
const char* const kMutStaticRule = "mutable-static-in-header";

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::string suf(suffix);
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

bool is_header(const std::string& path) { return ends_with(path, ".hpp"); }

/// Engine directories whose failure paths must speak SimDiagnostics.
bool in_engine_dir(const std::string& path) {
  return starts_with(path, "src/spice/") || starts_with(path, "src/teta/") ||
         starts_with(path, "src/stats/");
}

/// The one sanctioned home for raw std::thread / std::async.
bool is_thread_pool_file(const std::string& path) {
  return path == "src/runtime/thread_pool.hpp" ||
         path == "src/runtime/thread_pool.cpp";
}

/// The obs subsystem itself declares/defines ScopedSpan, so the
/// span-balance rule must not scan it (its ctor/dtor signatures would
/// self-flag).
bool outside_obs_dir(const std::string& path) {
  return !starts_with(path, "src/obs/");
}

/// Engine + tooling sources whose iteration order can reach numeric
/// results, merged metrics, or serialized output. Tests and benches may
/// iterate hash containers for their own bookkeeping.
bool in_src_or_tools(const std::string& path) {
  return starts_with(path, "src/") || starts_with(path, "tools/");
}

/// Wall-clock reads are sanctioned only in the observability substrate
/// (phase timers) and the benches; engine results must be a pure
/// function of their inputs.
bool in_engine_wall_clock_scope(const std::string& path) {
  return starts_with(path, "src/") && !starts_with(path, "src/obs/");
}

struct Rule {
  const char* id;
  std::regex pattern;
  const char* message;
  bool (*applies)(const std::string& path);
};

const std::vector<Rule>& line_rules() {
  // Patterns run on scrubbed code, so string literals and comments can
  // never trigger them.
  static const std::vector<Rule> rules = {
      {kRngRule,
       std::regex(R"(\b(s?rand|time|clock)\s*\()"),
       "non-deterministic source: libc rand()/srand()/time()/clock() break "
       "the bitwise-reproducibility contract; derive variates from "
       "stats::sample_stream (counter-based SplitMix64)",
       [](const std::string&) { return true; }},
      {kRngRule,
       std::regex(R"(\brandom_device\b)"),
       "std::random_device is non-deterministic; seed explicitly and draw "
       "from stats::sample_stream (counter-based SplitMix64)",
       [](const std::string&) { return true; }},
      {kRngRule,
       std::regex(R"(\bmt19937(_64)?\s+[A-Za-z_]\w*\s*(;|\{\s*\}|\(\s*\)))"),
       "default-constructed mt19937 uses the fixed default seed and hides "
       "the seeding decision; construct with an explicit seed, or use "
       "stats::sample_stream for per-sample determinism",
       [](const std::string&) { return true; }},
      {kThrowRule,
       std::regex(R"(\bthrow\s+std\s*::\s*(runtime_error|invalid_argument)\b)"),
       "engine code must not throw naked std::runtime_error/"
       "invalid_argument: route failures through sim::SimulationError "
       "(sim::throw_invalid_input for precondition checks) so fail-soft "
       "drivers can classify them (docs/robustness.md)",
       in_engine_dir},
      {kFloatEqRule,
       std::regex(
           R"(((\d+\.\d*|\.\d+)([eE][-+]?\d+)?|\d+[eE][-+]?\d+)[fFlL]?\s*[=!]=)"
           R"(|[=!]=\s*[-+]?((\d+\.\d*|\.\d+)([eE][-+]?\d+)?|\d+[eE][-+]?\d+))"),
       "exact ==/!= against a floating-point literal: use "
       "numeric::exact_eq/exact_zero when bitwise comparison is intended, "
       "or an explicit |a-b| <= tol otherwise",
       [](const std::string&) { return true; }},
      {kThreadRule,
       std::regex(R"(\bstd\s*::\s*(thread|jthread|async)\b)"),
       "raw std::thread/std::async outside runtime::ThreadPool: all "
       "parallelism must go through the pool so LCSF_THREADS, nesting "
       "rules and the determinism contract hold",
       [](const std::string& p) { return !is_thread_pool_file(p); }},
      {kUsingRule,
       std::regex(R"(\busing\s+namespace\b)"),
       "`using namespace` in a header pollutes every includer",
       is_header},
      {kSpanRule,
       // `ScopedSpan(...)` / `ScopedSpan{...}` with no variable name in
       // between is a temporary: it is destroyed at the end of the full
       // expression, so the span it records covers nothing. The leading
       // class excludes destructor calls (~ScopedSpan) and identifiers
       // that merely end in ScopedSpan.
       std::regex(R"((^|[^~\w])ScopedSpan\s*[({])"),
       "temporary obs::ScopedSpan dies at the end of the statement and "
       "records a zero-length span; bind it to a named stack object "
       "(`obs::ScopedSpan span(\"phase\");`) so it covers the scope",
       outside_obs_dir},
      {kWallClockRule,
       std::regex(R"(\bstd\s*::\s*chrono\b)"
                  R"(|\b(steady_clock|system_clock|high_resolution_clock)\b)"
                  R"(|#\s*include\s*<chrono>)"),
       "wall-clock read in engine code: results must be a pure function "
       "of inputs; std::chrono is sanctioned only in src/obs/ (phase "
       "timers, excluded from the deterministic export) and bench/",
       in_engine_wall_clock_scope},
  };
  return rules;
}

// ---------------------------------------------------------------------
// nondeterministic-iteration: track variables declared (or passed) with
// an unordered container type, then flag loops that walk them. Element
// order in a hash container depends on insertion history, hash seeding
// and load factor, so any walk whose visit order can reach results or
// serialized/merged output breaks the reproducibility contract.
// ---------------------------------------------------------------------

/// The trailing identifier of an expression like `lane->counters_`,
/// `sink.values_`, `obs::registry().names` or plain `m`; empty when the
/// expression ends in something else (a call, an index, a literal).
std::string trailing_identifier(const std::string& expr) {
  std::size_t end = expr.size();
  while (end > 0 && std::isspace(static_cast<unsigned char>(expr[end - 1]))) {
    --end;
  }
  std::size_t begin = end;
  while (begin > 0 && is_ident_char(expr[begin - 1])) --begin;
  if (begin == end) return {};
  return expr.substr(begin, end - begin);
}

/// Names declared with unordered_map/unordered_set type in this file
/// (members, locals, parameters). A declaration whose name is followed
/// by '(' is a function returning the container and is not tracked.
std::set<std::string> unordered_container_names(
    const std::vector<std::string>& code) {
  static const std::regex decl(R"(\bunordered_(?:map|set|multimap|multiset)\s*<)");
  std::set<std::string> names;
  for (std::size_t i = 0; i < code.size(); ++i) {
    for (std::sregex_iterator it(code[i].begin(), code[i].end(), decl), end;
         it != end; ++it) {
      // Balance the template angle brackets, spilling over at most a few
      // lines (every in-tree declaration is single-line; the slack keeps
      // clang-formatted wrapping from hiding a declaration).
      std::size_t line = i;
      std::size_t pos = static_cast<std::size_t>(it->position()) +
                        static_cast<std::size_t>(it->length());
      int depth = 1;
      std::size_t scanned_lines = 0;
      std::string tail;
      while (depth > 0 && line < code.size() && scanned_lines < 6) {
        const std::string& text = code[line];
        for (; pos < text.size(); ++pos) {
          if (text[pos] == '<') ++depth;
          if (text[pos] == '>' && --depth == 0) {
            tail = text.substr(pos + 1);
            break;
          }
        }
        if (depth > 0) {
          ++line;
          pos = 0;
          ++scanned_lines;
        }
      }
      if (depth > 0) continue;  // unbalanced; give up on this one
      // Skip references/pointers/cv in `const unordered_map<..>& name`.
      std::size_t j = 0;
      while (j < tail.size() &&
             (std::isspace(static_cast<unsigned char>(tail[j])) ||
              tail[j] == '&' || tail[j] == '*')) {
        ++j;
      }
      std::size_t k = j;
      while (k < tail.size() && is_ident_char(tail[k])) ++k;
      if (k == j) continue;
      std::size_t after = k;
      while (after < tail.size() &&
             std::isspace(static_cast<unsigned char>(tail[after]))) {
        ++after;
      }
      if (after < tail.size() && tail[after] == '(') continue;  // function
      names.insert(tail.substr(j, k - j));
    }
  }
  return names;
}

/// Extract the range expression of a range-for on this line, if any:
/// the text between the top-level ':' and the matching ')'.
std::string range_for_expression(const std::string& line) {
  const std::size_t f = line.find("for");
  if (f == std::string::npos) return {};
  if (f > 0 && is_ident_char(line[f - 1])) return {};
  if (f + 3 < line.size() && is_ident_char(line[f + 3])) return {};
  std::size_t open = line.find('(', f);
  if (open == std::string::npos) return {};
  int depth = 0;
  std::size_t colon = std::string::npos;
  for (std::size_t i = open; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') {
      --depth;
      if (depth == 0) {
        if (colon == std::string::npos) return {};
        return line.substr(colon + 1, i - colon - 1);
      }
    }
    if (c == ':' && depth == 1) {
      const bool double_colon = (i > 0 && line[i - 1] == ':') ||
                                (i + 1 < line.size() && line[i + 1] == ':');
      if (!double_colon && colon == std::string::npos) colon = i;
    }
  }
  return {};  // spans lines; out of scope for the textual rule
}

void run_iteration_rule(const std::string& path, const ScrubbedSource& src,
                        FileScan& scan) {
  if (!in_src_or_tools(path)) return;
  const std::set<std::string> names = unordered_container_names(src.code);
  if (names.empty()) return;
  static const std::regex begin_call(
      R"((\w+)\s*(?:\.|->)\s*c?begin\s*\()");
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    const std::string& line = src.code[i];
    if (line.empty()) continue;
    std::string hit;
    const std::string range = range_for_expression(line);
    const std::string range_id = trailing_identifier(range);
    if (!range_id.empty() && names.count(range_id)) hit = range_id;
    if (hit.empty()) {
      std::smatch m;
      if (std::regex_search(line, m, begin_call) && names.count(m[1])) {
        hit = m[1];
      }
    }
    if (hit.empty()) continue;
    attach_finding(
        scan,
        {kIterRule, i + 1,
         "iteration over unordered container '" + hit +
             "': element order depends on hashing and insertion history, "
             "so any order-sensitive use (export, merge, fp accumulation) "
             "is nondeterministic; use std::map/std::set or copy out and "
             "sort before iterating",
         path,
         {},
         false});
  }
}

// ---------------------------------------------------------------------
// mutable-static-in-header: a non-const static variable in a header is
// one mutable object per TU (pre-C++17) or a shared mutable global
// (inline) -- either way hidden cross-TU state that breaks reproducible
// runs and thread-safety audits. Static member *functions* and
// constexpr/const data are fine.
// ---------------------------------------------------------------------

void run_mutable_static_rule(const std::string& path,
                             const ScrubbedSource& src, FileScan& scan) {
  if (!is_header(path)) return;
  static const std::regex static_kw(R"(\bstatic\b)");
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    const std::string& line = src.code[i];
    if (line.empty()) continue;
    for (std::sregex_iterator it(line.begin(), line.end(), static_kw), end;
         it != end; ++it) {
      // The declaration tail: rest of this line plus a couple more, to
      // survive clang-format wrapping of long declarations.
      std::string tail =
          line.substr(static_cast<std::size_t>(it->position()) +
                      static_cast<std::size_t>(it->length()));
      for (std::size_t extra = 1; extra <= 2 && i + extra < src.code.size();
           ++extra) {
        tail += ' ';
        tail += src.code[i + extra];
      }
      // Swallow storage/qualifier keywords; const/constexpr make the
      // object immutable and exempt.
      static const std::set<std::string> passthrough = {"inline",
                                                        "thread_local"};
      bool immutable = false;
      std::size_t pos = 0;
      for (;;) {
        while (pos < tail.size() &&
               std::isspace(static_cast<unsigned char>(tail[pos]))) {
          ++pos;
        }
        std::size_t e = pos;
        while (e < tail.size() && is_ident_char(tail[e])) ++e;
        const std::string word = tail.substr(pos, e - pos);
        if (word == "const" || word == "constexpr" || word == "constinit") {
          immutable = true;
          break;
        }
        if (passthrough.count(word)) {
          pos = e;
          continue;
        }
        break;
      }
      if (immutable) continue;
      // Function declaration vs variable: the first structural token
      // decides. '(' first = function; '=', ';' or '{' first = variable
      // (brace or equals initialization). Angle brackets are skipped so
      // template arguments cannot fool the scan.
      int angle = 0;
      char decided = '\0';
      for (std::size_t j = pos; j < tail.size(); ++j) {
        const char c = tail[j];
        if (c == '<') ++angle;
        if (c == '>' && angle > 0) --angle;
        if (angle > 0) continue;
        if (c == '(' || c == '=' || c == ';' || c == '{') {
          decided = c;
          break;
        }
      }
      if (decided == '\0' || decided == '(') continue;
      attach_finding(
          scan,
          {kMutStaticRule, i + 1,
           "mutable static in a header: every includer shares (or "
           "duplicates, pre-C++17) this writable state, invisible to the "
           "determinism audit; move it behind a function in a .cpp or "
           "make it constexpr/const",
           path,
           {},
           false});
      break;  // one finding per line is plenty
    }
  }
}

std::vector<Suppression> parse_suppressions(
    const std::vector<std::string>& comments,
    std::vector<Finding>& meta_findings) {
  // File-scope directive: the rule is silenced for the whole file, and
  // a justification after ` -- ` is mandatory. (The directive string is
  // assembled here so this file's own comment stream never contains it.)
  static const std::regex dir(
      std::string("lcsf-lint\\s*:\\s*") +
      "allow\\(([A-Za-z0-9_-]+)\\)[ \t]*(?:--)?[ \t]*(.*)");
  std::vector<Suppression> sup;
  for (std::size_t i = 0; i < comments.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(comments[i], m, dir)) continue;
    Suppression s;
    s.rule = m[1];
    s.line = i + 1;
    if (!is_rule(s.rule)) {
      meta_findings.push_back(
          {"unknown-rule-suppression", s.line,
           "suppression names unknown rule '" + s.rule + "'", {}, {}, false});
      continue;
    }
    // Count multi-line justifications: a directive whose own line has no
    // text still counts as justified when the next comment line carries
    // the explanation.
    std::string just = m[2];
    if (just.empty() && i + 1 < comments.size()) just = comments[i + 1];
    s.justified =
        std::count_if(just.begin(), just.end(),
                      [](unsigned char c) { return std::isalpha(c); }) >= 3;
    if (!s.justified) {
      meta_findings.push_back(
          {"suppression-missing-justification", s.line,
           "suppression of '" + s.rule +
               "' has no justification; write `-- <why this file is "
               "allowed to break the rule>`",
           {},
           {},
           false});
    }
    sup.push_back(std::move(s));
  }
  return sup;
}

/// Quoted project includes, parsed from the raw content (the scrubber
/// blanks string literals, which is exactly where the target lives).
/// Anchoring on a line-leading '#' keeps commented-out includes and
/// includes quoted inside string literals from matching.
std::vector<Include> parse_includes(const std::string& content) {
  static const std::regex inc(R"re(^[ \t]*#[ \t]*include[ \t]*"([^"]+)")re");
  std::vector<Include> out;
  std::size_t line = 1;
  std::size_t begin = 0;
  while (begin <= content.size()) {
    std::size_t end = content.find('\n', begin);
    if (end == std::string::npos) end = content.size();
    const std::string text = content.substr(begin, end - begin);
    std::smatch m;
    if (std::regex_search(text, m, inc)) {
      out.push_back({m[1], line});
    }
    begin = end + 1;
    ++line;
  }
  return out;
}

}  // namespace

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> info = {
      {kRngRule,
       "no rand()/srand()/time()/clock()/std::random_device/default-seeded "
       "mt19937; deterministic paths draw from counter-based SplitMix64 "
       "streams"},
      {kThrowRule,
       "src/{spice,teta,stats} must not throw naked std::runtime_error/"
       "invalid_argument; failures route through sim::SimulationError"},
      {kFloatEqRule,
       "no raw ==/!= against floating-point literals; use "
       "numeric::exact_eq/exact_zero or an explicit tolerance"},
      {kThreadRule,
       "no std::thread/std::jthread/std::async outside "
       "src/runtime/thread_pool.*"},
      {kGuardRule,
       "headers use #pragma once (before any code, no legacy #ifndef "
       "guards)"},
      {kUsingRule, "no `using namespace` in headers"},
      {kSpanRule,
       "obs::ScopedSpan must be a named stack object, never a discarded "
       "temporary (outside src/obs/ itself)"},
      {kIterRule,
       "no iteration over unordered_map/unordered_set in src/ or tools/; "
       "hash order can reach results, merges and serialized output"},
      {kWallClockRule,
       "no std::chrono/steady_clock wall-clock reads in src/ outside "
       "src/obs/; engine results are a pure function of inputs"},
      {kMutStaticRule,
       "no mutable static data in headers; shared writable cross-TU state "
       "evades the determinism audit"},
      {"layering-violation",
       "module include edges must point downward in the layering manifest "
       "(tools/lint/layers.txt)"},
      {"include-cycle",
       "the project include graph (files and collapsed modules) must stay "
       "acyclic"},
      {"orphan-header",
       "every src/ and tools/ header must be included by at least one "
       "scanned file"},
  };
  return info;
}

bool is_rule(const std::string& id) {
  const auto& r = rules();
  return std::any_of(r.begin(), r.end(),
                     [&](const RuleInfo& i) { return id == i.id; });
}

void attach_finding(FileScan& scan, Finding finding) {
  finding.file = scan.path;
  for (auto& s : scan.suppressions) {
    if (s.rule == finding.rule) {
      s.used = true;
      finding.suppressed = true;
      break;
    }
  }
  scan.findings.push_back(std::move(finding));
}

FileScan scan_file(const std::string& path, const std::string& content) {
  FileScan scan;
  scan.path = path;
  scan.includes = parse_includes(content);
  const ScrubbedSource src = scrub(content);

  std::vector<Finding> meta;
  scan.suppressions = parse_suppressions(src.comments, meta);

  for (std::size_t i = 0; i < src.code.size(); ++i) {
    const std::string& line = src.code[i];
    if (line.empty()) continue;
    for (const Rule& rule : line_rules()) {
      if (!rule.applies(path)) continue;
      if (!std::regex_search(line, rule.pattern)) continue;
      attach_finding(scan, {rule.id, i + 1, rule.message, path, {}, false});
    }
  }

  run_iteration_rule(path, src, scan);
  run_mutable_static_rule(path, src, scan);

  // Header hygiene: #pragma once present, and no legacy #ifndef guard.
  if (is_header(path)) {
    static const std::regex pragma_once(R"(^\s*#\s*pragma\s+once\b)");
    static const std::regex ifndef_guard(R"(^\s*#\s*ifndef\s+\w*_(HPP|H)_?\b)");
    bool has_pragma = false;
    for (const auto& line : src.code) {
      if (std::regex_search(line, pragma_once)) {
        has_pragma = true;
        break;
      }
    }
    if (!has_pragma) {
      attach_finding(
          scan, {kGuardRule, 1,
                 "header has no #pragma once (the project's one guard style)",
                 path,
                 {},
                 false});
    }
    for (std::size_t i = 0; i < src.code.size(); ++i) {
      if (std::regex_search(src.code[i], ifndef_guard)) {
        attach_finding(scan,
                       {kGuardRule, i + 1,
                        "legacy #ifndef include guard; the project "
                        "convention is #pragma once",
                        path,
                        {},
                        false});
        break;
      }
    }
  }

  // Meta-findings about the suppression directives themselves are never
  // suppressible; append them directly.
  for (Finding& f : meta) {
    f.file = path;
    scan.findings.push_back(std::move(f));
  }
  return scan;
}

void finalize_scan(FileScan& scan) {
  // A suppression that silenced nothing is itself a finding: stale
  // directives rot into blanket licenses to reintroduce the bug.
  for (const auto& s : scan.suppressions) {
    if (!s.used) {
      scan.findings.push_back(
          {"unused-suppression", s.line,
           "suppression of '" + s.rule +
               "' matched no finding; delete the stale directive",
           scan.path,
           {},
           false});
    }
  }
  std::sort(scan.findings.begin(), scan.findings.end(),
            [](const Finding& a, const Finding& b) {
              return a.line != b.line ? a.line < b.line : a.rule < b.rule;
            });
}

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content) {
  FileScan scan = scan_file(path, content);
  finalize_scan(scan);
  std::vector<Finding> active;
  for (Finding& f : scan.findings) {
    if (!f.suppressed) active.push_back(std::move(f));
  }
  return active;
}

// ---------------------------------------------------------------------
// lcsf-lint-v2 JSON document
// ---------------------------------------------------------------------

std::string findings_to_json(const std::vector<FileScan>& scans) {
  std::size_t suppression_count = 0;
  for (const FileScan& s : scans) suppression_count += s.suppressions.size();

  std::string out;
  out += "{\n";
  out += "  \"schema\": \"lcsf-lint-v2\",\n";
  out += "  \"files_scanned\": " + std::to_string(scans.size()) + ",\n";
  out +=
      "  \"suppression_count\": " + std::to_string(suppression_count) + ",\n";
  out += "  \"findings\": [";
  bool first = true;
  for (const FileScan& s : scans) {
    for (const Finding& f : s.findings) {
      if (!first) out += ",";
      first = false;
      out += "\n    {\"rule\": \"" + obs::json_escape(f.rule) + "\", ";
      out += "\"file\": \"" + obs::json_escape(f.file) + "\", ";
      out += "\"line\": " + std::to_string(f.line) + ", ";
      out += "\"suppressed\": " + std::string(f.suppressed ? "true" : "false");
      if (!f.edge_path.empty()) {
        out += ", \"edge_path\": [";
        for (std::size_t k = 0; k < f.edge_path.size(); ++k) {
          if (k) out += ", ";
          out += "\"" + obs::json_escape(f.edge_path[k]) + "\"";
        }
        out += "]";
      }
      out += ", \"message\": \"" + obs::json_escape(f.message) + "\"}";
    }
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace lcsf::lint
