#pragma once
/// \file json.hpp
/// The repo's one JSON parser: strict RFC 8259 syntax, dependency-free.
/// Used by the perf/observability tooling (tools/perfdiff,
/// tools/parfft_top) and by the tests that validate the trace and
/// telemetry exporters. Anything outside the grammar is rejected: a
/// trailing comma, garbage after the document, an unterminated string,
/// and every number spelling strtod accepts but JSON does not (nan, inf,
/// hex, a leading '+' or '.'). A number that overflows a double is
/// rejected too. The perf gate depends on this: a metric written as
/// "-nan" must fail the parse, not compare as "ok".

#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace parfft::json {

struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<Value> arr;
  std::map<std::string, Value> obj;

  bool is_obj() const { return kind == Kind::Object; }
  bool is_arr() const { return kind == Kind::Array; }
  /// Member lookup; null when absent or not an object.
  const Value* get(const std::string& key) const {
    if (kind != Kind::Object) return nullptr;
    const auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
  double num_or(const std::string& key, double fallback) const {
    const Value* v = get(key);
    return v && v->kind == Kind::Number ? v->num : fallback;
  }
  std::string str_or(const std::string& key,
                     const std::string& fallback) const {
    const Value* v = get(key);
    return v && v->kind == Kind::String ? v->str : fallback;
  }
  /// Member accessors that throw std::runtime_error when the field is
  /// absent or of another kind (gtest reports the throw as a failure).
  double number(const std::string& key) const {
    const Value* v = get(key);
    if (!v || v->kind != Kind::Number)
      throw std::runtime_error("missing number field: " + key);
    return v->num;
  }
  std::string string(const std::string& key) const {
    const Value* v = get(key);
    if (!v || v->kind != Kind::String)
      throw std::runtime_error("missing string field: " + key);
    return v->str;
  }
};

class Parser {
 public:
  explicit Parser(std::string text) : s_(std::move(text)) {}

  /// Parses the whole document; throws std::runtime_error on any syntax
  /// violation.
  Value parse() {
    Value v = value();
    skip();
    if (pos_ != s_.size()) throw std::runtime_error("trailing garbage");
    return v;
  }

 private:
  void skip() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }
  char peek() {
    skip();
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c)
      throw std::runtime_error(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool digit_at(std::size_t i) const {
    return i < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i]));
  }

  Value value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      Value v;
      v.kind = Value::Kind::String;
      v.str = string();
      return v;
    }
    if (c == 't' || c == 'f' || c == 'n') return literal();
    return number();
  }

  Value object() {
    expect('{');
    Value v;
    v.kind = Value::Kind::Object;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      std::string key = string();
      expect(':');
      v.obj.emplace(std::move(key), value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value array() {
    expect('[');
    Value v;
    v.kind = Value::Kind::Array;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) throw std::runtime_error("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) throw std::runtime_error("bad escape");
      switch (const char e = s_[pos_++]) {
        case '"': case '\\': case '/': out += e; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u':
          if (pos_ + 4 > s_.size()) throw std::runtime_error("bad \\u");
          out += static_cast<char>(
              std::strtol(s_.substr(pos_, 4).c_str(), nullptr, 16));
          pos_ += 4;
          break;
        default: throw std::runtime_error("bad escape char");
      }
    }
  }

  Value literal() {
    Value v;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.kind = Value::Kind::Bool;
      v.b = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.kind = Value::Kind::Bool;
      pos_ += 5;
    } else if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
    } else {
      throw std::runtime_error("bad literal");
    }
    return v;
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? is checked before
  /// strtod sees the text, so nothing outside the grammar gets through.
  Value number() {
    const std::size_t start = pos_;
    std::size_t i = pos_;
    if (i < s_.size() && s_[i] == '-') ++i;
    if (!digit_at(i)) throw std::runtime_error("bad number");
    if (s_[i++] != '0')
      while (digit_at(i)) ++i;
    if (i < s_.size() && s_[i] == '.') {
      if (!digit_at(++i)) throw std::runtime_error("bad number");
      while (digit_at(i)) ++i;
    }
    if (i < s_.size() && (s_[i] == 'e' || s_[i] == 'E')) {
      ++i;
      if (i < s_.size() && (s_[i] == '+' || s_[i] == '-')) ++i;
      if (!digit_at(i)) throw std::runtime_error("bad number");
      while (digit_at(i)) ++i;
    }
    Value v;
    v.kind = Value::Kind::Number;
    v.num = std::strtod(s_.substr(start, i - start).c_str(), nullptr);
    if (!std::isfinite(v.num))
      throw std::runtime_error("number out of range");
    pos_ = i;
    return v;
  }

  std::string s_;
  std::size_t pos_ = 0;
};

/// Non-throwing form for the command-line tools: false on any syntax
/// violation.
inline bool parse(const std::string& text, Value& out) {
  try {
    out = Parser(text).parse();
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

}  // namespace parfft::json
