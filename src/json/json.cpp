#include "json/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hammer::json {

using hammer::NotFoundError;
using hammer::ParseError;

namespace {
const char* type_name(Value::Type t) {
  switch (t) {
    case Value::Type::kNull: return "null";
    case Value::Type::kBool: return "bool";
    case Value::Type::kInt: return "int";
    case Value::Type::kDouble: return "double";
    case Value::Type::kString: return "string";
    case Value::Type::kArray: return "array";
    case Value::Type::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void type_mismatch(Value::Type want, Value::Type got) {
  throw ParseError(std::string("expected JSON ") + type_name(want) + ", got " + type_name(got));
}
}  // namespace

bool Value::as_bool() const {
  if (!is_bool()) type_mismatch(Type::kBool, type());
  return std::get<bool>(data_);
}

std::int64_t Value::as_int() const {
  if (is_int()) return std::get<std::int64_t>(data_);
  if (is_double()) {
    double d = std::get<double>(data_);
    if (std::floor(d) == d) return static_cast<std::int64_t>(d);
  }
  type_mismatch(Type::kInt, type());
}

double Value::as_double() const {
  if (is_double()) return std::get<double>(data_);
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(data_));
  type_mismatch(Type::kDouble, type());
}

const std::string& Value::as_string() const {
  if (!is_string()) type_mismatch(Type::kString, type());
  return std::get<std::string>(data_);
}

const Array& Value::as_array() const {
  if (!is_array()) type_mismatch(Type::kArray, type());
  return std::get<Array>(data_);
}

Array& Value::as_array() {
  if (!is_array()) type_mismatch(Type::kArray, type());
  return std::get<Array>(data_);
}

const Object& Value::as_object() const {
  if (!is_object()) type_mismatch(Type::kObject, type());
  return std::get<Object>(data_);
}

Object& Value::as_object() {
  if (!is_object()) type_mismatch(Type::kObject, type());
  return std::get<Object>(data_);
}

bool Value::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

const Value& Value::at(const std::string& key) const {
  const Object& obj = as_object();
  auto it = obj.find(key);
  if (it == obj.end()) throw NotFoundError("JSON key '" + key + "'");
  return it->second;
}

Value& Value::operator[](const std::string& key) {
  if (is_null()) data_ = Object{};
  return as_object()[key];
}

std::int64_t Value::get_int(const std::string& key, std::int64_t fallback) const {
  return contains(key) ? at(key).as_int() : fallback;
}

double Value::get_double(const std::string& key, double fallback) const {
  return contains(key) ? at(key).as_double() : fallback;
}

std::string Value::get_string(const std::string& key, const std::string& fallback) const {
  return contains(key) ? at(key).as_string() : fallback;
}

bool Value::get_bool(const std::string& key, bool fallback) const {
  return contains(key) ? at(key).as_bool() : fallback;
}

// ---------------------------------------------------------------- writing

void write_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

namespace {
void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}
}  // namespace

void Value::write(std::string& out, int indent, int depth) const {
  switch (type()) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += std::get<bool>(data_) ? "true" : "false";
      break;
    case Type::kInt:
      out += std::to_string(std::get<std::int64_t>(data_));
      break;
    case Type::kDouble: {
      double d = std::get<double>(data_);
      if (!std::isfinite(d)) {
        out += "null";  // JSON has no NaN/Inf
        break;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", d);
      out += buf;
      break;
    }
    case Type::kString:
      write_escaped(out, std::get<std::string>(data_));
      break;
    case Type::kArray: {
      const Array& arr = std::get<Array>(data_);
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      bool first = true;
      for (const Value& v : arr) {
        if (!first) out.push_back(',');
        first = false;
        newline_indent(out, indent, depth + 1);
        v.write(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      const Object& obj = std::get<Object>(data_);
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, v] : obj) {
        if (!first) out.push_back(',');
        first = false;
        newline_indent(out, indent, depth + 1);
        write_escaped(out, key);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        v.write(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

void Value::dump_into(std::string& out, int indent) const { write(out, indent, 0); }

// ---------------------------------------------------------------- parsing

namespace {
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw ParseError(why + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      char c = take();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return Value(std::move(obj));
  }

  Value parse_array() {
    expect('[');
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      char c = take();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return Value(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      char c = take();
      if (c == '"') return out;
      if (c == '\\') {
        char esc = take();
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("invalid \\u escape");
            }
            // Encode the code point as UTF-8 (surrogate pairs collapse to
            // the replacement character; ids and config never use them).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xc0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            } else {
              out.push_back(static_cast<char>(0xe0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            }
            break;
          }
          default: fail("invalid escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out.push_back(c);
      }
    }
  }

  Value parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) fail("invalid number");
    std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    if (integral) {
      char* end = nullptr;
      long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return Value(static_cast<std::int64_t>(v));
      }
      // Fall through to double on overflow.
    }
    char* end = nullptr;
    errno = 0;
    double d = std::strtod(token.c_str(), &end);
    if (errno != 0 || end != token.c_str() + token.size()) fail("invalid number '" + token + "'");
    return Value(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};
}  // namespace

Value Value::parse(std::string_view text) { return Parser(text).parse_document(); }

Value object(std::initializer_list<std::pair<std::string, Value>> items) {
  Object obj;
  for (const auto& [k, v] : items) obj[k] = v;
  return Value(std::move(obj));
}

Value array(std::initializer_list<Value> items) { return Value(Array(items)); }

}  // namespace hammer::json
