// Dependency-free JSON value type with a strict parser and a canonical
// writer. This is the wire substrate of the evaluation service: requests
// and responses cross process boundaries as JSON documents, and the
// service keys its coalescing and result-cache maps on the canonical
// compact serialization, so the writer is deterministic by construction —
// objects preserve insertion order, numbers print in the shortest form
// that round-trips bit-exactly through strtod, and there is no
// locale-dependent formatting anywhere.
//
// The parser accepts exactly the JSON grammar (RFC 8259): no comments, no
// trailing commas, no NaN/Infinity literals. Malformed input throws
// io::ParseError (a vpd::Error) carrying the byte offset — it never
// crashes and never returns a partial value.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "vpd/common/error.hpp"

namespace vpd {
namespace io {

/// Malformed JSON text. `offset()` is the byte position of the failure.
class ParseError : public Error {
 public:
  ParseError(const std::string& what, std::size_t offset)
      : Error(what), offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

class Value;

/// One JSON value. Objects are insertion-ordered member lists (not maps):
/// serialization order equals construction order, which is what makes a
/// canonical request key possible without a separate normalization pass.
class Value {
 public:
  /// kEncoded is a document already in dump()'s compact form (see
  /// encoded()); parse() never produces it.
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject,
                    kEncoded };

  using Array = std::vector<Value>;
  using Member = std::pair<std::string, Value>;
  using Object = std::vector<Member>;

  Value() = default;  // null
  Value(std::nullptr_t) {}
  Value(bool b) : type_(Type::kBool), bool_(b) {}
  Value(double v) : type_(Type::kNumber), number_(v) {}
  Value(int v) : Value(static_cast<double>(v)) {}
  Value(unsigned v) : Value(static_cast<double>(v)) {}
  Value(long v) : Value(static_cast<double>(v)) {}
  Value(unsigned long v) : Value(static_cast<double>(v)) {}
  Value(long long v) : Value(static_cast<double>(v)) {}
  Value(unsigned long long v) : Value(static_cast<double>(v)) {}
  Value(const char* s) : type_(Type::kString), string_(s) {}
  Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Value(std::string_view s) : type_(Type::kString), string_(s) {}

  static Value array() {
    Value v;
    v.type_ = Type::kArray;
    return v;
  }
  static Value object() {
    Value v;
    v.type_ = Type::kObject;
    return v;
  }
  /// A pre-encoded document: `json` must be exactly what dump() printed
  /// for some value V. dump() writes the bytes verbatim, so an encoding
  /// shared by many responses is paid for once; dump_pretty() parses and
  /// indents them, printing what it would print for V; operator== compares
  /// the document they denote. The bytes are shared and never mutated.
  static Value encoded(std::shared_ptr<const std::string> json);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_encoded() const { return type_ == Type::kEncoded; }

  /// Checked accessors: throw vpd::InvalidArgument naming the actual type
  /// (structured error, not a crash) on a mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();
  /// The compact bytes of an encoded() value.
  const std::string& as_encoded() const;

  /// Array element count or object member count; throws otherwise.
  std::size_t size() const;

  /// Appends to an array (first call on a null value makes it an array).
  void push_back(Value v);

  /// Sets an object member, overwriting an existing key in place (first
  /// call on a null value makes it an object). Returns *this for chaining.
  Value& set(std::string key, Value v);

  /// Member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
  /// Member lookup; throws vpd::InvalidArgument when absent.
  const Value& at(std::string_view key) const;
  bool contains(std::string_view key) const { return find(key) != nullptr; }

  /// Deep structural equality (numbers compare by value).
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

 private:
  Type type_{Type::kNull};
  bool bool_{false};
  double number_{0.0};
  std::string string_;
  Array array_;
  Object object_;
  std::shared_ptr<const std::string> encoded_;
};

/// Parses one complete JSON document (trailing non-whitespace is an
/// error). Throws ParseError on malformed input.
Value parse(std::string_view text);

/// Compact canonical serialization: no whitespace, members in insertion
/// order, numbers in shortest round-trip form. Two structurally equal
/// values built in the same member order always serialize identically.
/// Encoded values are copied verbatim.
std::string dump(const Value& value);

/// Indented serialization for human consumption (same number/member
/// rules, `indent` spaces per level). Encoded values are parsed and
/// indented like the tree they encode.
std::string dump_pretty(const Value& value, int indent = 2);

/// Shortest decimal form that strtod parses back to the identical bits.
/// Integral values within the exact-double range print without a decimal
/// point or exponent. Throws vpd::InvalidArgument for NaN/Inf (JSON has
/// no representation for them).
std::string dump_number(double value);

}  // namespace io
}  // namespace vpd
