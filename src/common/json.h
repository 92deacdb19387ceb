// Minimal JSON-subset parser and writer: sweep specs are parsed with it, and
// the sweep benchmark's probe writes its span records with it.
//
// Supports objects, arrays, double-quoted strings (with \" \\ \/ \n \t
// escapes), integers/doubles, booleans and null — enough for declarative
// configuration files, with no external dependency. Parse errors, including
// nesting deeper than 64 levels, throw SimError with a line-numbered message.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"

namespace indexmac {

/// A parsed JSON value. Objects keep insertion order so emitted JSON is
/// stable and diffs stay readable.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  explicit JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit JsonValue(double n) : kind_(Kind::kNumber), number_(n) {}
  explicit JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}

  [[nodiscard]] static JsonValue make_array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  [[nodiscard]] static JsonValue make_object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }

  /// Typed accessors; throw SimError when the kind does not match.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// Number that must be a non-negative integer (sweep counts, unrolls...).
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& as_array() const;

  /// Object field access. `get` returns nullptr when absent.
  [[nodiscard]] const JsonValue* get(const std::string& key) const;
  /// Required field; throws SimError naming the missing key.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Builder helpers (arrays/objects only).
  void push_back(JsonValue v);
  void set(std::string key, JsonValue v);

  /// Serializes with 2-space indentation and deterministic member order
  /// (insertion order), ending without a trailing newline.
  [[nodiscard]] std::string dump() const;

 private:
  void dump_to(std::string& out, int indent) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses one JSON document; trailing non-whitespace is an error.
[[nodiscard]] JsonValue parse_json(const std::string& text);

}  // namespace indexmac
