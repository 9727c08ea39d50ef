#include "serve/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/json.hpp"
#include "sim/diagnostics.hpp"

namespace lcsf::serve {

Json Json::boolean(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::integer(std::int64_t v) {
  Json j;
  j.type_ = Type::kInt;
  j.int_ = v;
  j.num_ = static_cast<double>(v);
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::kDouble;
  j.num_ = v;
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.str_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) sim::throw_invalid_input("expected a boolean");
  return bool_;
}

std::int64_t Json::as_int() const {
  if (type_ != Type::kInt) sim::throw_invalid_input("expected an integer");
  return int_;
}

double Json::as_double() const {
  if (!is_number()) sim::throw_invalid_input("expected a number");
  return num_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) sim::throw_invalid_input("expected a string");
  return str_;
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::kArray) sim::throw_invalid_input("expected an array");
  return items_;
}

const std::vector<Json::Member>& Json::members() const {
  if (type_ != Type::kObject) {
    sim::throw_invalid_input("expected an object");
  }
  return members_;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const Member& m : members_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

Json& Json::set(const std::string& key, Json value) {
  type_ = Type::kObject;
  members_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  type_ = Type::kArray;
  items_.push_back(std::move(value));
  return *this;
}

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kInt: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(int_));
      out += buf;
      break;
    }
    case Type::kDouble: {
      if (!std::isfinite(num_)) {
        // JSON has no Inf/NaN; emit null (strict readers stay happy).
        out += "null";
        break;
      }
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", num_);
      out += buf;
      break;
    }
    case Type::kString:
      out += '"';
      out += obs::json_escape(str_);
      out += '"';
      break;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const Json& v : items_) {
        if (!first) out += ',';
        first = false;
        v.dump_to(out);
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const Member& m : members_) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += obs::json_escape(m.first);
        out += "\":";
        m.second.dump_to(out);
      }
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    sim::throw_invalid_input("json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Json::string(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return Json::boolean(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return Json::boolean(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return Json::null();
    }
    return parse_number();
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      const std::string key = parse_string();
      if (obj.find(key) != nullptr) {
        fail("duplicate object key '" + key + "'");
      }
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          // UTF-8 encode the BMP codepoint (surrogate pairs are not
          // needed by the protocol; reject them strictly).
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail("surrogate \\u escapes are not supported");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() &&
        (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("bad number");
    char* end = nullptr;
    if (integral) {
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') fail("bad integer");
      return Json::integer(v);
    }
    const double v = std::strtod(token.c_str(), &end);
    // The grammar above admits no "inf" or "nan", so a non-finite value
    // is an overflow (1e999): as malformed as any other bad number.
    if (end == nullptr || *end != '\0' || !std::isfinite(v)) {
      fail("bad number");
    }
    return Json::number(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace lcsf::serve
