#include "json/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <utility>

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

// ---------------------------------------------------------------- Object

Object::Object(std::vector<value_type> members) : members_(std::move(members)) {
  auto by_key = [](const value_type& a, const value_type& b) { return a.first < b.first; };
  auto not_ascending = [](const value_type& a, const value_type& b) {
    return !(a.first < b.first);
  };
  if (std::adjacent_find(members_.begin(), members_.end(), not_ascending) == members_.end()) {
    return;  // already sorted with unique keys: the common case
  }
  // Stable, so each run of a repeated key keeps input order and its last
  // element is the last value given.
  std::stable_sort(members_.begin(), members_.end(), by_key);
  auto out = members_.begin();
  for (auto it = members_.begin(); it != members_.end(); ++it) {
    if (out != members_.begin() && std::prev(out)->first == it->first) {
      std::prev(out)->second = std::move(it->second);
    } else {
      if (out != it) *out = std::move(*it);
      ++out;
    }
  }
  members_.erase(out, members_.end());
}

Object::const_iterator Object::lower_bound(std::string_view key) const {
  return std::lower_bound(members_.begin(), members_.end(), key,
                          [](const value_type& m, std::string_view k) { return m.first < k; });
}

Object::iterator Object::lower_bound(std::string_view key) {
  return members_.begin() + (std::as_const(*this).lower_bound(key) - members_.cbegin());
}

Value& Object::operator[](std::string_view key) {
  if (members_.empty() || members_.back().first < key) {
    return members_.emplace_back(std::string(key), Value()).second;
  }
  auto it = lower_bound(key);
  if (it != members_.end() && it->first == key) return it->second;
  return members_.emplace(it, std::string(key), Value())->second;
}

Object::const_iterator Object::find(std::string_view key) const {
  auto it = lower_bound(key);
  return it != members_.end() && it->first == key ? it : members_.end();
}

Object::iterator Object::find(std::string_view key) {
  return members_.begin() + (std::as_const(*this).find(key) - members_.cbegin());
}

Object::size_type Object::count(std::string_view key) const {
  return find(key) == members_.end() ? 0 : 1;
}

Object::size_type Object::erase(std::string_view key) {
  auto it = find(key);
  if (it == members_.end()) return 0;
  members_.erase(it);
  return 1;
}

Object::iterator Object::erase(const_iterator pos) { return members_.erase(pos); }

bool Object::operator==(const Object& other) const { return members_ == other.members_; }

// ---------------------------------------------------------------- Value

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

std::string& Value::as_string() {
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

const Value* Value::member(std::string_view key) const {
  if (!is_object()) return nullptr;
  const Object& obj = std::get<Object>(data_);
  auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

bool Value::contains(std::string_view key) const { return member(key) != nullptr; }

const Value& Value::at(std::string_view key) const {
  const Object& obj = as_object();
  auto it = obj.find(key);
  if (it == obj.end()) throw NotFoundError("JSON key '" + std::string(key) + "'");
  return it->second;
}

Value& Value::at(std::string_view key) {
  return const_cast<Value&>(static_cast<const Value&>(*this).at(key));
}

Value& Value::operator[](std::string_view key) {
  if (is_null()) data_ = Object{};
  return as_object()[key];
}

std::int64_t Value::get_int(std::string_view key, std::int64_t fallback) const {
  const Value* m = member(key);
  return m ? m->as_int() : fallback;
}

double Value::get_double(std::string_view key, double fallback) const {
  const Value* m = member(key);
  return m ? m->as_double() : fallback;
}

std::string Value::get_string(std::string_view key, const std::string& fallback) const {
  const Value* m = member(key);
  return m ? m->as_string() : fallback;
}

bool Value::get_bool(std::string_view key, bool fallback) const {
  const Value* m = member(key);
  return m ? m->as_bool() : fallback;
}

// ---------------------------------------------------------------- writing

void write_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  std::size_t run = 0;  // start of the pending run of bytes copied verbatim
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
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
    case Type::kInt: {
      char buf[24];
      const auto printed = std::to_chars(buf, buf + sizeof(buf), std::get<std::int64_t>(data_));
      out.append(buf, printed.ptr);
      break;
    }
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

// Members and elements of the containers a parse has open, innermost last.
// A container parses into the tail of its thread's stack and, once closed,
// moves them into one vector of exactly their count: a parsed object or
// array allocates once, however many members it has.
struct ParseStacks {
  std::vector<Object::value_type> members;
  std::vector<Value> elements;
};

ParseStacks& parse_stacks() {
  thread_local ParseStacks stacks;
  return stacks;
}

// Appends code point `code` to `out` as UTF-8.
void put_utf8(std::string& out, unsigned code) {
  if (code < 0x80) {
    out.push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out.push_back(static_cast<char>(0xc0 | (code >> 6)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
  } else if (code < 0x10000) {
    out.push_back(static_cast<char>(0xe0 | (code >> 12)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
  } else {
    out.push_back(static_cast<char>(0xf0 | (code >> 18)));
    out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3f)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
  }
}

bool is_high_surrogate(unsigned code) { return code >= 0xd800 && code <= 0xdbff; }
bool is_low_surrogate(unsigned code) { return code >= 0xdc00 && code <= 0xdfff; }

constexpr unsigned kReplacementChar = 0xfffd;

// Value of hex digit `h`, or -1.
int hex_digit(char h) {
  if (h >= '0' && h <= '9') return h - '0';
  if (h >= 'a' && h <= 'f') return h - 'a' + 10;
  if (h >= 'A' && h <= 'F') return h - 'A' + 10;
  return -1;
}

class Parser {
 public:
  explicit Parser(std::string_view text)
      : text_(text),
        stacks_(parse_stacks()),
        members_base_(stacks_.members.size()),
        elements_base_(stacks_.elements.size()) {}

  // A failed parse leaves its half-built containers on the stacks.
  ~Parser() {
    stacks_.members.erase(stacks_.members.begin() + static_cast<std::ptrdiff_t>(members_base_),
                          stacks_.members.end());
    stacks_.elements.erase(
        stacks_.elements.begin() + static_cast<std::ptrdiff_t>(elements_base_),
        stacks_.elements.end());
  }

  Parser(const Parser&) = delete;
  Parser& operator=(const Parser&) = delete;

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
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(Object());
    }
    std::vector<Object::value_type>& stack = stacks_.members;
    const std::size_t base = stack.size();
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      Value value = parse_value();
      stack.emplace_back(std::move(key), std::move(value));
      skip_ws();
      char c = take();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    const auto first = stack.begin() + static_cast<std::ptrdiff_t>(base);
    std::vector<Object::value_type> members;
    members.reserve(stack.size() - base);
    std::move(first, stack.end(), std::back_inserter(members));
    stack.erase(first, stack.end());
    // Object's constructor sorts if needed; a repeated key keeps its last
    // value.
    return Value(Object(std::move(members)));
  }

  Value parse_array() {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(Array());
    }
    std::vector<Value>& stack = stacks_.elements;
    const std::size_t base = stack.size();
    for (;;) {
      Value element = parse_value();
      stack.push_back(std::move(element));
      skip_ws();
      char c = take();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    const auto first = stack.begin() + static_cast<std::ptrdiff_t>(base);
    Array arr;
    arr.reserve(stack.size() - base);
    std::move(first, stack.end(), std::back_inserter(arr));
    stack.erase(first, stack.end());
    return Value(std::move(arr));
  }

  // A string without escapes (every id, key and hex field on the RPC path)
  // is built from its span in one allocation. The first backslash or
  // control character hands the rest to parse_string_slow, so both paths
  // decode, and fail, identically.
  std::string parse_string() {
    expect('"');
    const std::size_t start = pos_;
    for (std::size_t i = start; i < text_.size(); ++i) {
      const char c = text_[i];
      if (c == '"') {
        pos_ = i + 1;
        return std::string(text_.substr(start, i - start));
      }
      if (c == '\\' || static_cast<unsigned char>(c) < 0x20) {
        pos_ = i;
        return parse_string_slow(std::string(text_.substr(start, i - start)));
      }
    }
    pos_ = text_.size();
    return parse_string_slow(std::string(text_.substr(start)));
  }

  // Decodes from pos_ to the closing quote, appending to `out`.
  std::string parse_string_slow(std::string out) {
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
          case 'u': put_utf8(out, parse_unicode_escape()); break;
          default: fail("invalid escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out.push_back(c);
      }
    }
  }

  // Reads the 4 hex digits after "\u" and returns the code point. A high
  // surrogate followed by a "\u" low surrogate decodes the pair to one
  // supplementary code point; a surrogate half without its partner
  // decodes to U+FFFD, so the output is always valid UTF-8.
  unsigned parse_unicode_escape() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      int digit = hex_digit(take());
      if (digit < 0) fail("invalid \\u escape");
      code = (code << 4) | static_cast<unsigned>(digit);
    }
    if (is_low_surrogate(code)) return kReplacementChar;
    if (!is_high_surrogate(code)) return code;
    unsigned low = 0;
    if (text_.substr(pos_, 2) != "\\u" || text_.size() - pos_ < 6) return kReplacementChar;
    for (std::size_t i = pos_ + 2; i < pos_ + 6; ++i) {
      int digit = hex_digit(text_[i]);
      if (digit < 0) return kReplacementChar;  // the loop reports it next
      low = (low << 4) | static_cast<unsigned>(digit);
    }
    if (!is_low_surrogate(low)) return kReplacementChar;
    pos_ += 6;
    return 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
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
  ParseStacks& stacks_;
  const std::size_t members_base_;
  const std::size_t elements_base_;
};
}  // namespace

Value Value::parse(std::string_view text) { return Parser(text).parse_document(); }

Value object(std::initializer_list<std::pair<std::string, Value>> items) {
  Object obj;
  obj.reserve(items.size());
  for (const auto& [k, v] : items) obj[k] = v;
  return Value(std::move(obj));
}

Value array(std::initializer_list<Value> items) { return Value(Array(items)); }

}  // namespace hammer::json
