// Self-contained JSON value model, parser and writer.
//
// Used for: workload profiles, deployment plans, the JSON-RPC wire format,
// and chain payload encoding. Numbers are stored as int64 when the literal
// is integral (transaction ids, timestamps) and double otherwise.
//
// Object representation. An Object is one vector of (key, value) members
// kept sorted by key, not a node-based map: a 9-key transaction is one
// allocation for the members instead of nine tree nodes, and lookups are a
// binary search over contiguous memory. Iteration is in key order, so
// serialized output stays deterministic (the test suite, golden files and
// the signing payload rely on sorted keys).
//
// Reference invalidation. Inserting or erasing a member moves its
// siblings, so it invalidates every reference, pointer and iterator into
// the same object (std::map never did). Do not hold a `Value&` to one
// member across an insert into the same object: `Value& a = obj["a"];
// obj["b"] = 2; a = 3;` writes through a dangling reference, and so does
// `obj["b"] = obj["a"];` when "b" is new (the right side is evaluated
// first). References into a different object, or into a member's own
// subtree while only that subtree changes, stay valid.
//
// Duplicate keys. The text parser keeps the LAST value for a repeated key
// (as assigning through operator[] would); the binary codec's decode_value
// keeps the FIRST (the std::map::emplace rule it had before).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/errors.hpp"

namespace hammer::json {

class Value;
using Array = std::vector<Value>;

// JSON object: members sorted by key in one vector, with the subset of the
// std::map interface callers use. Lookups take string_view, so a literal
// key builds no temporary string.
class Object {
 public:
  using value_type = std::pair<std::string, Value>;
  using size_type = std::size_t;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  Object() = default;
  // Takes members in any order; a repeated key keeps its last value (the
  // text parser's rule). Sorts only when the input is not already sorted.
  explicit Object(std::vector<value_type> members);

  iterator begin();
  iterator end();
  const_iterator begin() const;
  const_iterator end() const;
  size_type size() const;
  bool empty() const;
  // Sizes the member vector once for an object built key by key.
  void reserve(size_type n);

  // Inserts a null member if `key` is absent. Appending keys in sorted
  // order costs one comparison per insert.
  Value& operator[](std::string_view key);
  iterator find(std::string_view key);
  const_iterator find(std::string_view key) const;
  size_type count(std::string_view key) const;
  size_type erase(std::string_view key);
  iterator erase(const_iterator pos);

  bool operator==(const Object& other) const;

 private:
  iterator lower_bound(std::string_view key);
  const_iterator lower_bound(std::string_view key) const;

  std::vector<value_type> members_;
};

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

  // Mutable string access, so a caller that owns a tree can move a string
  // out of it instead of copying.
  std::string& as_string();

  // Object helpers.
  bool contains(std::string_view key) const;
  const Value& at(std::string_view key) const;  // throws NotFoundError
  Value& at(std::string_view key);              // throws NotFoundError
  Value& operator[](std::string_view key);      // inserts null if absent

  // Lookup with defaults for optional config fields.
  std::int64_t get_int(std::string_view key, std::int64_t fallback) const;
  double get_double(std::string_view key, double fallback) const;
  std::string get_string(std::string_view key, const std::string& fallback) const;
  bool get_bool(std::string_view key, bool fallback) const;

  bool operator==(const Value& other) const { return data_ == other.data_; }

  // Serialization. `indent` > 0 pretty-prints.
  std::string dump(int indent = 0) const;

  // Appends the serialized document to `out` instead of returning a fresh
  // string — the allocation-free path for pooled/reused output buffers.
  void dump_into(std::string& out, int indent = 0) const;

  // Parsing; throws ParseError with position info on malformed input.
  static Value parse(std::string_view text);

 private:
  // The member named `key`, or nullptr when this is not an object or has
  // no such member.
  const Value* member(std::string_view key) const;
  void write(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array, Object> data_;
};

inline Object::iterator Object::begin() { return members_.begin(); }
inline Object::iterator Object::end() { return members_.end(); }
inline Object::const_iterator Object::begin() const { return members_.begin(); }
inline Object::const_iterator Object::end() const { return members_.end(); }
inline Object::size_type Object::size() const { return members_.size(); }
inline bool Object::empty() const { return members_.empty(); }
inline void Object::reserve(size_type n) { members_.reserve(n); }

// Appends `s` as a quoted, escaped JSON string — the writer dump() uses
// for every string and key.
void write_escaped(std::string& out, std::string_view s);

// Convenience builders: json::object({{"a", 1}}), json::array({1, 2}).
Value object(std::initializer_list<std::pair<std::string, Value>> items);
Value array(std::initializer_list<Value> items);

}  // namespace hammer::json
