#include "serve/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace retscan::serve {

namespace {

[[noreturn]] void type_error(const char* want, const Json& value) {
  const char* got = value.is_null()     ? "null"
                    : value.is_bool()   ? "bool"
                    : value.is_u64()    ? "integer"
                    : value.is_double() ? "double"
                    : value.is_string() ? "string"
                    : value.is_object() ? "object"
                                        : "array";
  throw Error(std::string("json: expected ") + want + ", got " + got);
}

}  // namespace

bool Json::as_bool() const {
  if (const bool* value = std::get_if<bool>(&value_)) {
    return *value;
  }
  type_error("bool", *this);
}

std::uint64_t Json::as_u64() const {
  if (const std::uint64_t* value = std::get_if<std::uint64_t>(&value_)) {
    return *value;
  }
  type_error("integer", *this);
}

double Json::as_double() const {
  if (const std::uint64_t* value = std::get_if<std::uint64_t>(&value_)) {
    return static_cast<double>(*value);
  }
  if (const double* value = std::get_if<double>(&value_)) {
    return *value;
  }
  type_error("number", *this);
}

const std::string& Json::as_string() const {
  if (const std::string* value = std::get_if<std::string>(&value_)) {
    return *value;
  }
  type_error("string", *this);
}

const Json::Object& Json::as_object() const {
  if (const Object* value = std::get_if<Object>(&value_)) {
    return *value;
  }
  type_error("object", *this);
}

const Json::Array& Json::as_array() const {
  if (const Array* value = std::get_if<Array>(&value_)) {
    return *value;
  }
  type_error("array", *this);
}

const Json* Json::find(const std::string& key) const {
  const Object& object = as_object();
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

const Json& Json::at(const std::string& key) const {
  if (const Json* value = find(key)) {
    return *value;
  }
  throw Error("json: missing field '" + key + "'");
}

Json& Json::set(const std::string& key, Json value) {
  if (!is_object()) {
    value_ = Object{};
  }
  std::get<Object>(value_)[key] = std::move(value);
  return *this;
}

Json& Json::push(Json value) {
  if (!is_array()) {
    value_ = Array{};
  }
  std::get<Array>(value_).push_back(std::move(value));
  return *this;
}

namespace {

void dump_string(const std::string& text, std::string& out) {
  out += '"';
  for (const char c : text) {
    const unsigned char byte = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (byte < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", byte);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_value(const Json& value, std::string& out);

void dump_object(const Json::Object& object, std::string& out) {
  out += '{';
  bool first = true;
  for (const auto& [key, value] : object) {
    if (!first) {
      out += ',';
    }
    first = false;
    dump_string(key, out);
    out += ':';
    dump_value(value, out);
  }
  out += '}';
}

void dump_array(const Json::Array& array, std::string& out) {
  out += '[';
  bool first = true;
  for (const Json& value : array) {
    if (!first) {
      out += ',';
    }
    first = false;
    dump_value(value, out);
  }
  out += ']';
}

void dump_value(const Json& value, std::string& out) {
  if (value.is_null()) {
    out += "null";
  } else if (value.is_bool()) {
    out += value.as_bool() ? "true" : "false";
  } else if (value.is_u64()) {
    out += std::to_string(value.as_u64());
  } else if (value.is_double()) {
    const double number = value.as_double();
    if (!std::isfinite(number)) {
      throw Error("json: cannot serialize a non-finite number");
    }
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", number);
    out += buffer;
  } else if (value.is_string()) {
    dump_string(value.as_string(), out);
  } else if (value.is_object()) {
    dump_object(value.as_object(), out);
  } else {
    dump_array(value.as_array(), out);
  }
}

/// Recursive-descent parser over a string_view with a cursor.
struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  int depth = 0;

  [[noreturn]] void fail(const std::string& why) const {
    throw Error("json parse error at byte " + std::to_string(pos) + ": " + why);
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= text.size()) {
      fail("unexpected end of input");
    }
    return text[pos];
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) {
      fail(std::string("expected '") + c + "'");
    }
  }

  void expect_word(std::string_view word) {
    if (text.substr(pos, word.size()) != word) {
      fail("invalid literal");
    }
    pos += word.size();
  }

  std::uint32_t hex4() {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos;
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
    }
    return value;
  }

  void append_utf8(std::uint32_t cp, std::string& out) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos >= text.size()) {
        fail("unterminated string");
      }
      const char c = text[pos++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char escape = peek();
      ++pos;
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          std::uint32_t cp = hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // Surrogate pair: the low half must follow immediately.
            if (!consume('\\') || !consume('u')) {
              fail("lone high surrogate");
            }
            const std::uint32_t low = hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("bad low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("lone low surrogate");
          }
          append_utf8(cp, out);
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  /// Consume a run of decimal digits; returns how many there were.
  std::size_t digits() {
    const std::size_t from = pos;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      ++pos;
    }
    return pos - from;
  }

  Json parse_number() {
    // RFC 8259's grammar, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
    // checked here: strtoull and strtod accept more ("+1", "01", ".5", "1.").
    const std::size_t start = pos;
    const bool negative = consume('-');
    if (consume('0')) {
      if (digits() != 0) {
        fail("bad number: leading zero");
      }
    } else if (digits() == 0) {
      fail("bad number");
    }
    bool integer = !negative;
    if (consume('.')) {
      if (digits() == 0) {
        fail("bad number: no digit after '.'");
      }
      integer = false;
    }
    if (consume('e') || consume('E')) {
      if (!consume('+')) {
        consume('-');
      }
      if (digits() == 0) {
        fail("bad number: no digit in the exponent");
      }
      integer = false;
    }
    const std::string token(text.substr(start, pos - start));
    // Exact non-negative integers stay u64 (counters, seeds, fingerprints);
    // everything else goes through double.
    if (integer) {
      errno = 0;
      const unsigned long long value = std::strtoull(token.c_str(), nullptr, 10);
      if (errno == 0) {
        return Json(static_cast<std::uint64_t>(value));
      }
    }
    errno = 0;
    const double value = std::strtod(token.c_str(), nullptr);
    if (errno != 0 || !std::isfinite(value)) {
      fail("bad number '" + token + "'");
    }
    return Json(value);
  }

  Json parse_value() {
    if (++depth > 64) {
      fail("nesting too deep");
    }
    skip_ws();
    Json result;
    const char c = peek();
    if (c == '{') {
      ++pos;
      Json::Object object;
      skip_ws();
      if (!consume('}')) {
        for (;;) {
          skip_ws();
          std::string key = parse_string();
          skip_ws();
          expect(':');
          object[std::move(key)] = parse_value();
          skip_ws();
          if (consume(',')) {
            continue;
          }
          expect('}');
          break;
        }
      }
      result = Json(std::move(object));
    } else if (c == '[') {
      ++pos;
      Json::Array array;
      skip_ws();
      if (!consume(']')) {
        for (;;) {
          array.push_back(parse_value());
          skip_ws();
          if (consume(',')) {
            continue;
          }
          expect(']');
          break;
        }
      }
      result = Json(std::move(array));
    } else if (c == '"') {
      result = Json(parse_string());
    } else if (c == 't') {
      expect_word("true");
      result = Json(true);
    } else if (c == 'f') {
      expect_word("false");
      result = Json(false);
    } else if (c == 'n') {
      expect_word("null");
      result = Json(nullptr);
    } else {
      result = parse_number();
    }
    --depth;
    return result;
  }
};

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

Json Json::parse(std::string_view text) {
  Parser parser{text};
  Json value = parser.parse_value();
  parser.skip_ws();
  if (parser.pos != text.size()) {
    parser.fail("trailing junk after value");
  }
  return value;
}

}  // namespace retscan::serve
