#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/error.hpp"

namespace retscan::serve {

/// Minimal JSON value for the serve wire protocol — one object per line,
/// flat-ish messages, no dependencies. Deliberately small: UTF-8 strings
/// with the standard escapes, exact u64 integers (campaign counters and
/// seeds do not fit in a double), doubles for rates/seconds, objects and
/// arrays. dump() emits a single line (no raw newlines can escape — they
/// are always \-escaped), which is what makes line-delimited framing safe.
class Json {
 public:
  using Object = std::map<std::string, Json>;
  using Array = std::vector<Json>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool value) : value_(value) {}
  Json(std::uint64_t value) : value_(value) {}
  Json(int value) : value_(static_cast<std::uint64_t>(value)) {}
  Json(unsigned value) : value_(static_cast<std::uint64_t>(value)) {}
  Json(double value) : value_(value) {}
  Json(const char* value) : value_(std::string(value)) {}
  Json(std::string value) : value_(std::move(value)) {}
  Json(Object value) : value_(std::move(value)) {}
  Json(Array value) : value_(std::move(value)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_u64() const { return std::holds_alternative<std::uint64_t>(value_); }
  bool is_double() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }

  /// Typed accessors; throw retscan::Error on a type mismatch so protocol
  /// errors surface as actionable messages, not UB.
  bool as_bool() const;
  std::uint64_t as_u64() const;  ///< exact integers only (rejects doubles)
  double as_double() const;      ///< any number
  const std::string& as_string() const;
  const Object& as_object() const;
  const Array& as_array() const;

  /// Object field lookup; `get` returns null for a missing key, `at`
  /// throws naming it.
  const Json* find(const std::string& key) const;
  const Json& at(const std::string& key) const;
  bool has(const std::string& key) const { return find(key) != nullptr; }

  /// Mutating object/array builders.
  Json& set(const std::string& key, Json value);
  Json& push(Json value);

  /// Compact single-line serialization.
  std::string dump() const;

  /// Strict parse of one complete JSON value (trailing junk is an error).
  /// Throws retscan::Error with a byte offset on malformed input.
  static Json parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, std::uint64_t, double, std::string,
               Object, Array>
      value_;
};

}  // namespace retscan::serve
