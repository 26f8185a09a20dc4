// Self-contained JSON value model, parser and writer.
//
// Used for: workload profiles, deployment plans, the JSON-RPC wire format,
// and chain payload encoding. Numbers are stored as int64 when the literal
// is integral (transaction ids, timestamps) and double otherwise.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/errors.hpp"

namespace hammer::json {

class Value;
using Array = std::vector<Value>;
// std::map keeps serialized output deterministic (sorted keys), which the
// test suite and golden files rely on.
using Object = std::map<std::string, Value>;

class Value {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(int i) : data_(static_cast<std::int64_t>(i)) {}
  Value(unsigned int i) : data_(static_cast<std::int64_t>(i)) {}
  Value(std::int64_t i) : data_(i) {}
  Value(std::uint64_t i) : data_(static_cast<std::int64_t>(i)) {}
  Value(double d) : data_(d) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(std::string_view s) : data_(std::string(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  Type type() const { return static_cast<Type>(data_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_int() const { return type() == Type::kInt; }
  bool is_double() const { return type() == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  // Checked accessors; throw ParseError when the type does not match
  // (the common use is validating externally-supplied documents).
  bool as_bool() const;
  std::int64_t as_int() const;    // accepts integral doubles too
  double as_double() const;       // accepts ints
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  // Object helpers.
  bool contains(const std::string& key) const;
  const Value& at(const std::string& key) const;  // throws NotFoundError
  Value& operator[](const std::string& key);      // inserts null if absent

  // Lookup with defaults for optional config fields.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::string get_string(const std::string& key, const std::string& fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  bool operator==(const Value& other) const { return data_ == other.data_; }

  // Serialization. `indent` > 0 pretty-prints.
  std::string dump(int indent = 0) const;

  // Appends the serialized document to `out` instead of returning a fresh
  // string — the allocation-free path for pooled/reused output buffers.
  void dump_into(std::string& out, int indent = 0) const;

  // Parsing; throws ParseError with position info on malformed input.
  static Value parse(std::string_view text);

 private:
  void write(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array, Object> data_;
};

// Appends `s` as a quoted, escaped JSON string — the writer dump() uses
// for every string and key.
void write_escaped(std::string& out, std::string_view s);

// Convenience builders: json::object({{"a", 1}}), json::array({1, 2}).
Value object(std::initializer_list<std::pair<std::string, Value>> items);
Value array(std::initializer_list<Value> items);

}  // namespace hammer::json
