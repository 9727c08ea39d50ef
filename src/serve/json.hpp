// Minimal deterministic JSON value for the lcsf-serve-v1 wire protocol.
//
// Why not a library: the container bakes in no JSON dependency, and the
// protocol needs two properties most libraries do not guarantee
// together -- (1) object members keep insertion order so a response
// serializes to the same bytes on every run (the cached-vs-cold and
// concurrent-vs-serial bitwise-identity contracts of docs/serving.md),
// and (2) parsing is strict (duplicate keys rejected, full input
// consumed) so a malformed request is a classified kInvalidInput error
// instead of silently-ignored garbage.
//
// Numbers: doubles serialize with %.17g (round-trips exactly);
// integer-valued tokens keep an integer representation so counters
// print without an exponent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lcsf::serve {

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() = default;
  static Json null() { return Json(); }
  static Json boolean(bool b);
  static Json integer(std::int64_t v);
  static Json number(double v);
  static Json string(std::string s);
  static Json array();
  static Json object();

  /// Strict parse of one complete JSON document; trailing non-space
  /// input, duplicate object keys, or any syntax error throws
  /// sim::SimulationError (kInvalidInput) with a position diagnostic.
  static Json parse(const std::string& text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const {
    return type_ == Type::kInt || type_ == Type::kDouble;
  }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const;
  std::int64_t as_int() const;     ///< throws unless an integer token
  double as_double() const;        ///< any number
  const std::string& as_string() const;
  const std::vector<Json>& items() const;  ///< array elements

  using Member = std::pair<std::string, Json>;
  const std::vector<Member>& members() const;  ///< insertion order

  /// Object member lookup; null when absent (or not an object).
  const Json* find(const std::string& key) const;

  /// Append a member (object) / element (array). Returns *this for
  /// chaining. No duplicate-key check on the write path -- the builder
  /// is trusted code; the parser is where strictness lives.
  Json& set(const std::string& key, Json value);
  Json& push(Json value);

  /// Canonical serialization: members in insertion order, no
  /// whitespace, %.17g doubles. Same value -> same bytes, always.
  std::string dump() const;

 private:
  void dump_to(std::string& out) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> items_;
  std::vector<Member> members_;
};

}  // namespace lcsf::serve
