#include "circuit/parser.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <vector>

namespace lcsf::circuit {

ParseError::ParseError(std::size_t line, const std::string& what)
    : std::runtime_error("netlist line " + std::to_string(line) + ": " +
                         what),
      line_(line),
      detail_(what) {}

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// Split a (joined) card into whitespace/comma/paren-separated tokens;
/// "(" and ")" are dropped so "PWL(0 0 1n 1)" tokenizes uniformly.
std::vector<std::string> tokenize(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == ',' ||
        c == '(' || c == ')' || c == '=') {
      if (c == '=') {
        // keep key=value visible as "key" "=" "value"
        if (!cur.empty()) out.push_back(cur);
        out.push_back("=");
        cur.clear();
        continue;
      }
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

}  // namespace

namespace {

/// Multiplier of an engineering suffix ("", "p", "meg", "pF", "V").
double suffix_scale(const std::string& token, const std::string& suffix) {
  if (suffix.empty()) return 1.0;
  if (suffix == "f") return 1e-15;
  if (suffix == "p") return 1e-12;
  if (suffix == "n") return 1e-9;
  if (suffix == "u") return 1e-6;
  if (suffix == "m") return 1e-3;
  if (suffix == "k") return 1e3;
  if (suffix == "meg") return 1e6;
  if (suffix == "g") return 1e9;
  if (suffix == "t") return 1e12;
  // SPICE ignores trailing unit letters after a recognized suffix
  // ("2.5pF", "10kohm"); accept a letter tail.
  static const std::pair<const char*, double> prefixes[] = {
      {"meg", 1e6}, {"f", 1e-15}, {"p", 1e-12}, {"n", 1e-9}, {"u", 1e-6},
      {"m", 1e-3},  {"k", 1e3},   {"g", 1e9},   {"t", 1e12}};
  for (const auto& [pre, scale] : prefixes) {
    const std::size_t len = std::string(pre).size();
    if (suffix.rfind(pre, 0) == 0 &&
        std::all_of(suffix.begin() + static_cast<long>(len), suffix.end(),
                    [](unsigned char c) { return std::isalpha(c); })) {
      return scale;
    }
  }
  if (std::all_of(suffix.begin(), suffix.end(),
                  [](unsigned char c) { return std::isalpha(c); })) {
    return 1.0;  // bare unit like "5V"
  }
  throw ParseError(0, "bad value suffix '" + token + "'");
}

}  // namespace

double parse_value(const std::string& token) {
  if (token.empty()) throw ParseError(0, "empty value");
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(token, &pos);
  } catch (const std::exception&) {
    throw ParseError(0, "bad numeric value '" + token + "'");
  }
  v *= suffix_scale(token, lower(token.substr(pos)));
  // std::stod reads "nan", "inf" and "infinity", and a suffix can
  // overflow: no element, width or breakpoint takes a non-finite value.
  if (!std::isfinite(v)) {
    throw ParseError(0, "bad numeric value '" + token + "'");
  }
  return v;
}

namespace {

SourceWaveform parse_source(const std::vector<std::string>& tok,
                            std::size_t start, std::size_t lineno) {
  if (start >= tok.size()) {
    throw ParseError(lineno, "source needs a value");
  }
  const std::string kind = lower(tok[start]);
  auto val = [&](std::size_t i) {
    if (i >= tok.size()) throw ParseError(lineno, "truncated source spec");
    try {
      return parse_value(tok[i]);
    } catch (const ParseError& e) {
      // Re-wrap the bare detail so the message carries the real deck line
      // exactly once (never "line 7: netlist line 0: ...").
      throw ParseError(lineno, e.detail());
    }
  };
  if (kind == "dc") return SourceWaveform::dc(val(start + 1));
  if (kind == "pwl") {
    std::vector<std::pair<double, double>> pts;
    for (std::size_t i = start + 1; i < tok.size(); i += 2) {
      if (i + 1 >= tok.size()) {
        throw ParseError(lineno, "PWL needs (time, value) pairs");
      }
      pts.emplace_back(val(i), val(i + 1));
    }
    if (pts.empty()) throw ParseError(lineno, "PWL needs points");
    try {
      return SourceWaveform::pwl(std::move(pts));
    } catch (const std::invalid_argument& e) {
      throw ParseError(lineno, e.what());
    }
  }
  if (kind == "pulse") {
    // PULSE(v0 v1 tdelay trise thigh tfall)
    return SourceWaveform::pulse(val(start + 1), val(start + 2),
                                 val(start + 3), val(start + 4),
                                 val(start + 5), val(start + 6));
  }
  // Bare value = DC.
  try {
    return SourceWaveform::dc(parse_value(tok[start]));
  } catch (const ParseError&) {
    throw ParseError(lineno, "unknown source kind '" + tok[start] + "'");
  }
}

}  // namespace

Netlist parse_netlist(std::istream& in, const Technology& tech) {
  obs::ScopedSpan span("parse");
  Netlist nl;
  std::string raw;
  std::vector<std::pair<std::size_t, std::string>> cards;
  std::size_t lineno = 0;
  // Join continuation lines first.
  while (std::getline(in, raw)) {
    ++lineno;
    const auto semi = raw.find(';');
    if (semi != std::string::npos) raw.erase(semi);
    // Trim, THEN strip comments -- indented "  * note" lines are comments
    // too, not unknown cards.
    const auto first = raw.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = raw.find_last_not_of(" \t\r");
    std::string body = raw.substr(first, last - first + 1);
    if (body[0] == '*') continue;
    if (body[0] == '+') {
      if (cards.empty()) throw ParseError(lineno, "continuation first");
      cards.back().second += " " + body.substr(1);
    } else {
      cards.emplace_back(lineno, std::move(body));
    }
  }

  for (const auto& [ln, card] : cards) {
    const auto tok = tokenize(card);
    if (tok.empty()) continue;
    const std::string head = lower(tok[0]);
    if (head[0] == '.') {
      if (head == ".end" || head == ".ends") break;
      continue;  // other dot-cards ignored (.tran etc. are runner options)
    }
    auto need = [&](std::size_t n) {
      if (tok.size() < n) throw ParseError(ln, "too few fields: " + card);
    };
    auto value_at = [&](std::size_t i) {
      try {
        return parse_value(tok[i]);
      } catch (const ParseError& e) {
        throw ParseError(ln, e.detail());
      }
    };
    // Element checks (Netlist::add_*, SourceWaveform::pulse) throw
    // std::invalid_argument; in a deck that is this card's error.
    try {
      switch (head[0]) {
        case 'r': {
          need(4);
          nl.add_resistor(nl.node(tok[1]), nl.node(tok[2]), value_at(3));
          break;
        }
        case 'c': {
          need(4);
          nl.add_capacitor(nl.node(tok[1]), nl.node(tok[2]), value_at(3));
          break;
        }
        case 'l': {
          need(4);
          nl.add_inductor(nl.node(tok[1]), nl.node(tok[2]), value_at(3));
          break;
        }
        case 'v': {
          need(4);
          nl.add_vsource(nl.node(tok[1]), nl.node(tok[2]),
                         parse_source(tok, 3, ln));
          break;
        }
        case 'i': {
          need(4);
          nl.add_isource(nl.node(tok[1]), nl.node(tok[2]),
                         parse_source(tok, 3, ln));
          break;
        }
        case 'm': {
          // Mname d g s NMOS|PMOS [W= v] [L= v] [DVT= v] [DL= v]
          need(5);
          const std::string model = lower(tok[4]);
          Mosfet m;
          if (model == "nmos") {
            m = tech.make_nmos(nl.node(tok[1]), nl.node(tok[2]),
                               nl.node(tok[3]));
          } else if (model == "pmos") {
            m = tech.make_pmos(nl.node(tok[1]), nl.node(tok[2]),
                               nl.node(tok[3]));
          } else {
            throw ParseError(ln, "unknown MOS model '" + tok[4] + "'");
          }
          for (std::size_t i = 5; i < tok.size(); i += 3) {
            if (i + 2 >= tok.size()) {
              throw ParseError(ln, "truncated key=value near '" + tok[i] + "'");
            }
            if (tok[i + 1] != "=") {
              throw ParseError(ln, "expected key=value near '" + tok[i] + "'");
            }
            const std::string key = lower(tok[i]);
            const double v = value_at(i + 2);
            if (key == "w") {
              m.w = v;
            } else if (key == "l") {
              m.l = v;
            } else if (key == "dvt") {
              m.delta_vt = v;
            } else if (key == "dl") {
              m.delta_l = v;
            } else {
              throw ParseError(ln, "unknown MOS parameter '" + tok[i] + "'");
            }
          }
          nl.add_mosfet(std::move(m));
          break;
        }
        default:
          throw ParseError(ln, "unknown card '" + card + "'");
      }
    } catch (const std::invalid_argument& e) {
      throw ParseError(ln, e.what());
    }
  }
  obs::add_counter("parser.cards", static_cast<std::uint64_t>(cards.size()));
  obs::add_counter("parser.devices",
                   static_cast<std::uint64_t>(nl.linear_element_count() +
                                              nl.mosfets().size() +
                                              nl.vsources().size() +
                                              nl.isources().size()));
  return nl;
}

Netlist parse_netlist(const std::string& text, const Technology& tech) {
  std::istringstream in(text);
  return parse_netlist(in, tech);
}

}  // namespace lcsf::circuit
