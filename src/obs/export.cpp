// Exporters for obs::Registry: structured JSON (tools/metrics_schema.json),
// the human phase-time tree, and Chrome trace_event JSON.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/registry.hpp"

namespace lcsf::obs {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

/// One node of the phase tree reconstructed from the '/'-joined timer
/// paths. std::map keeps child order canonical (alphabetical).
struct PhaseNode {
  TimerStat stat;
  std::map<std::string, PhaseNode> children;
};

PhaseNode build_phase_tree(const std::map<std::string, TimerStat>& timers) {
  PhaseNode root;
  for (const auto& [path, stat] : timers) {
    PhaseNode* node = &root;
    std::size_t begin = 0;
    while (begin <= path.size()) {
      const std::size_t slash = path.find('/', begin);
      const std::string seg =
          path.substr(begin, slash == std::string::npos ? std::string::npos
                                                        : slash - begin);
      node = &node->children[seg];
      if (slash == std::string::npos) break;
      begin = slash + 1;
    }
    node->stat = stat;
  }
  return root;
}

void render_phase_node(const PhaseNode& node, const std::string& name,
                       int indent, std::uint64_t parent_total_ns,
                       std::string& out) {
  if (!name.empty()) {
    char line[160];
    const double ms =
        static_cast<double>(node.stat.total_ns) / 1e6;
    std::string head(static_cast<std::size_t>(indent) * 2, ' ');
    head += name;
    if (parent_total_ns > 0) {
      const double pct = 100.0 * static_cast<double>(node.stat.total_ns) /
                         static_cast<double>(parent_total_ns);
      std::snprintf(line, sizeof line, "%-40s %10.3f ms  x%-8" PRIu64 " %5.1f%%\n",
                    head.c_str(), ms, node.stat.count, pct);
    } else {
      std::snprintf(line, sizeof line, "%-40s %10.3f ms  x%" PRIu64 "\n",
                    head.c_str(), ms, node.stat.count);
    }
    out += line;
  }
  // Children sorted by total time (descending), ties by name, so the
  // expensive phases read first.
  std::vector<const std::pair<const std::string, PhaseNode>*> kids;
  kids.reserve(node.children.size());
  for (const auto& kv : node.children) kids.push_back(&kv);
  std::sort(kids.begin(), kids.end(), [](const auto* a, const auto* b) {
    if (a->second.stat.total_ns != b->second.stat.total_ns) {
      return a->second.stat.total_ns > b->second.stat.total_ns;
    }
    return a->first < b->first;
  });
  for (const auto* kv : kids) {
    render_phase_node(kv->second, kv->first, name.empty() ? indent : indent + 1,
                      name.empty() ? 0 : node.stat.total_ns, out);
  }
}

}  // namespace

std::string Registry::to_json(bool include_wall_clock) const {
  const Snapshot snap = snapshot();
  std::string out = "{\n  \"schema\": \"lcsf-metrics-v1\",\n";
  out += "  \"deterministic\": ";
  out += include_wall_clock ? "false" : "true";
  out += ",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + fmt_u64(v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"distributions\": {";
  first = true;
  for (const auto& [name, d] : snap.distributions) {
    if (!include_wall_clock && is_wall_clock_metric(name)) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": {\"count\": " +
           fmt_u64(d.count) + ", \"min\": " + fmt_double(d.min) +
           ", \"max\": " + fmt_double(d.max) +
           ", \"mean\": " + fmt_double(d.mean) +
           ", \"p50\": " + fmt_double(d.p50) +
           ", \"p95\": " + fmt_double(d.p95) + "}";
  }
  out += first ? "}" : "\n  }";
  if (include_wall_clock) {
    out += ",\n  \"timers\": {";
    first = true;
    for (const auto& [path, t] : snap.timers) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    \"" + json_escape(path) + "\": {\"count\": " +
             fmt_u64(t.count) + ", \"total_seconds\": " +
             fmt_double(static_cast<double>(t.total_ns) / 1e9) + "}";
    }
    out += first ? "}" : "\n  }";
  }
  out += "\n}\n";
  return out;
}

std::string Registry::timing_report() const {
  const Snapshot snap = snapshot();
  if (snap.timers.empty()) {
    return "phase-time tree: no spans recorded\n";
  }
  std::string out = "phase-time tree (wall clock, inclusive):\n";
  const PhaseNode root = build_phase_tree(snap.timers);
  render_phase_node(root, "", 0, 0, out);
  return out;
}

std::string Registry::chrome_trace_json() const {
  const Snapshot snap = snapshot();
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (std::size_t k = 0; k < snap.spans.size(); ++k) {
    const SpanEvent& s = snap.spans[k];
    const std::size_t slash = s.path.rfind('/');
    const std::string leaf =
        slash == std::string::npos ? s.path : s.path.substr(slash + 1);
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"name\": \"" + json_escape(leaf) +
           "\", \"cat\": \"lcsf\", \"ph\": \"X\", \"ts\": " +
           fmt_double(static_cast<double>(s.start_ns) / 1e3) +
           ", \"dur\": " + fmt_double(static_cast<double>(s.dur_ns) / 1e3) +
           ", \"pid\": 0, \"tid\": " + fmt_u64(snap.lane_of[k]) +
           ", \"args\": {\"path\": \"" + json_escape(s.path) + "\"}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace lcsf::obs
