#include "sesame/eddi/ode.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "sesame/obs/sinks.hpp"

namespace sesame::eddi::ode {

Value& Value::operator[](const std::string& key) {
  if (is_null()) data_ = Object{};
  if (!is_object()) throw std::logic_error("ode::Value: not an object");
  return std::get<Object>(data_)[key];
}

const Value& Value::at(const std::string& key) const {
  if (!is_object()) throw std::logic_error("ode::Value: not an object");
  const auto& obj = std::get<Object>(data_);
  const auto it = obj.find(key);
  if (it == obj.end()) throw std::out_of_range("ode::Value: no key " + key);
  return it->second;
}

void Value::push_back(Value v) {
  if (is_null()) data_ = Array{};
  if (!is_array()) throw std::logic_error("ode::Value: not an array");
  std::get<Array>(data_).push_back(std::move(v));
}

void Value::type_error(const char* expected) const {
  static constexpr const char* kNames[] = {"null",   "bool",  "number",
                                           "string", "array", "object"};
  throw std::invalid_argument(std::string("ode::Value: expected ") + expected +
                              ", got " + kNames[data_.index()]);
}

double Value::integral_in(double lo, double hi) const {
  const double d = as_number();
  if (!(d >= lo && d < hi) || d != std::trunc(d)) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "ode::Value: expected an integer in [%.17g, %.17g), got %g",
                  lo, hi, d);
    throw std::invalid_argument(buf);
  }
  return d;
}

namespace {

void write(std::string& out, const Value& v) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    const double d = v.as_number();
    if (!std::isfinite(d)) {
      // RFC 8259 has no NaN/Inf token; clamp to null so every document
      // this writer emits re-parses (parse_json rejects bare "nan").
      out += "null";
    } else if (d == std::floor(d) && std::abs(d) < 1e15) {
      out += std::to_string(static_cast<long long>(d));
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", d);
      out += buf;
    }
  } else if (v.is_string()) {
    out += '"';
    obs::append_json_escaped(out, v.as_string());
    out += '"';
  } else if (v.is_array()) {
    out += '[';
    bool first = true;
    for (const auto& item : v.as_array()) {
      if (!first) out += ',';
      first = false;
      write(out, item);
    }
    out += ']';
  } else {
    out += '{';
    bool first = true;
    for (const auto& [key, val] : v.as_object()) {
      if (!first) out += ',';
      first = false;
      out += '"';
      obs::append_json_escaped(out, key);
      out += "\":";
      write(out, val);
    }
    out += '}';
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< arrays/objects open at pos_

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("parse_json: " + why + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  /// Skips a run of decimal digits; returns how many.
  std::size_t digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ - start;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n]) ++n;
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (++depth_ > kMaxParseDepth) {
        fail("nesting deeper than " + std::to_string(kMaxParseDepth));
      }
      Value v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return Value(parse_string());
    if (consume_literal("null")) return Value(nullptr);
    if (consume_literal("true")) return Value(true);
    if (consume_literal("false")) return Value(false);
    return parse_number();
  }

  Value parse_object() {
    next();  // {
    Value::Object obj;
    skip_ws();
    if (peek() == '}') {
      next();
      return Value(std::move(obj));
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      skip_ws();
      if (next() != ':') fail("expected ':'");
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char sep = next();
      if (sep == '}') break;
      if (sep != ',') fail("expected ',' or '}'");
    }
    return Value(std::move(obj));
  }

  Value parse_array() {
    next();  // [
    Value::Array arr;
    skip_ws();
    if (peek() == ']') {
      next();
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char sep = next();
      if (sep == ']') break;
      if (sep != ',') fail("expected ',' or ']'");
    }
    return Value(std::move(arr));
  }

  std::string parse_string() {
    if (next() != '"') fail("expected string");
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') break;
      if (c == '\\') {
        const char esc = next();
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            // Exactly four hex digits: from_chars takes no sign or space.
            unsigned code = 0;
            const char* hex = text_.data() + pos_;
            const char* end = text_.data() + std::min(pos_ + 4, text_.size());
            if (std::from_chars(hex, end, code, 16).ptr != hex + 4) {
              fail("\\u escape needs four hex digits");
            }
            pos_ += 4;
            // Encode BMP code point as UTF-8.
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: fail("bad escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  /// RFC 8259 number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  Value parse_number() {
    const std::size_t start = pos_;
    if (at('-')) ++pos_;
    if (at('0')) {
      ++pos_;
    } else if (digits() == 0) {
      fail(pos_ == start ? "expected value" : "malformed number");
    }
    if (at('.')) {
      ++pos_;
      if (digits() == 0) fail("malformed number fraction");
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (digits() == 0) fail("malformed number exponent");
    }
    double d = 0.0;
    if (std::from_chars(text_.data() + start, text_.data() + pos_, d).ec !=
        std::errc()) {
      pos_ = start;
      fail("number out of range");
    }
    return Value(d);
  }
};

}  // namespace

std::string Value::to_json() const {
  std::string out;
  write(out, *this);
  return out;
}

Value parse_json(const std::string& text) { return Parser(text).parse(); }

}  // namespace sesame::eddi::ode
