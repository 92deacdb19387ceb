#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

namespace indexmac {
namespace {

const char* kind_name(JsonValue::Kind k) {
  switch (k) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    case JsonValue::Kind::kObject: return "object";
  }
  return "?";
}

/// Each '[' or '{' recurses once, so a deeper document fails instead of
/// overflowing the stack. Specs nest 2 deep.
constexpr std::size_t kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    raise("json: " + what + " (line " + std::to_string(line_) + ")");
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') ++line_;
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth)
        fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      ++depth_;
      JsonValue v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    switch (c) {
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue out = JsonValue::make_object();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    for (;;) {
      if (peek() != '"') fail("object key must be a string");
      std::string key = parse_string();
      expect(':');
      if (out.get(key) != nullptr) fail("duplicate object key \"" + key + "\"");
      out.set(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') return out;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue out = JsonValue::make_array();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    for (;;) {
      out.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return out;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\n') fail("unterminated string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        default: fail(std::string("unsupported escape '\\") + esc + "'");
      }
    }
    fail("unterminated string");
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("invalid value");
    // std::from_chars, not std::stod: stod honours LC_NUMERIC, so under a
    // comma-decimal locale it would stop at the '.' and silently truncate
    // every fractional constant in a spec.
    const std::string token = text_.substr(start, pos_ - start);
    double value = 0;
    const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc{} || ptr != token.data() + token.size())
      fail("invalid number \"" + token + "\"");
    return JsonValue(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t depth_ = 0;
};

void dump_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  out.push_back('"');
}

}  // namespace

bool JsonValue::as_bool() const {
  IMAC_CHECK(kind_ == Kind::kBool, std::string("json: expected bool, got ") + kind_name(kind_));
  return bool_;
}

double JsonValue::as_number() const {
  IMAC_CHECK(kind_ == Kind::kNumber,
             std::string("json: expected number, got ") + kind_name(kind_));
  return number_;
}

std::uint64_t JsonValue::as_uint() const {
  const double n = as_number();
  IMAC_CHECK(n >= 0 && n == std::floor(n) && n <= 1e15,
             "json: expected a non-negative integer");
  return static_cast<std::uint64_t>(n);
}

const std::string& JsonValue::as_string() const {
  IMAC_CHECK(kind_ == Kind::kString,
             std::string("json: expected string, got ") + kind_name(kind_));
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  IMAC_CHECK(kind_ == Kind::kArray, std::string("json: expected array, got ") + kind_name(kind_));
  return array_;
}

const JsonValue* JsonValue::get(const std::string& key) const {
  IMAC_CHECK(kind_ == Kind::kObject,
             std::string("json: expected object, got ") + kind_name(kind_));
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = get(key);
  IMAC_CHECK(v != nullptr, "json: missing required key \"" + key + "\"");
  return *v;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members() const {
  IMAC_CHECK(kind_ == Kind::kObject,
             std::string("json: expected object, got ") + kind_name(kind_));
  return object_;
}

void JsonValue::push_back(JsonValue v) {
  IMAC_CHECK(kind_ == Kind::kArray, "json: push_back on a non-array");
  array_.push_back(std::move(v));
}

void JsonValue::set(std::string key, JsonValue v) {
  IMAC_CHECK(kind_ == Kind::kObject, "json: set on a non-object");
  object_.emplace_back(std::move(key), std::move(v));
}

void JsonValue::dump_to(std::string& out, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string pad_in(static_cast<std::size_t>(indent + 1) * 2, ' ');
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: {
      char buf[64];
      if (number_ == std::floor(number_) && std::abs(number_) < 1e15) {
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(number_));
        out += buf;
      } else {
        // to_chars(general, 10) == printf("%.10g") in the C locale; the
        // printf form would emit a ',' decimal separator under
        // comma-decimal LC_NUMERIC and break byte-stable output.
        const auto [ptr, ec] =
            std::to_chars(buf, buf + sizeof buf, number_, std::chars_format::general, 10);
        IMAC_ASSERT(ec == std::errc{}, "json: number formatting buffer exhausted");
        out.append(buf, ptr);
      }
      break;
    }
    case Kind::kString: dump_string(out, string_); break;
    case Kind::kArray:
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += "[\n";
      for (std::size_t i = 0; i < array_.size(); ++i) {
        out += pad_in;
        array_[i].dump_to(out, indent + 1);
        out += i + 1 < array_.size() ? ",\n" : "\n";
      }
      out += pad + "]";
      break;
    case Kind::kObject:
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += "{\n";
      for (std::size_t i = 0; i < object_.size(); ++i) {
        out += pad_in;
        dump_string(out, object_[i].first);
        out += ": ";
        object_[i].second.dump_to(out, indent + 1);
        out += i + 1 < object_.size() ? ",\n" : "\n";
      }
      out += pad + "}";
      break;
  }
}

std::string JsonValue::dump() const {
  std::string out;
  dump_to(out, 0);
  return out;
}

JsonValue parse_json(const std::string& text) { return Parser(text).parse_document(); }

}  // namespace indexmac
