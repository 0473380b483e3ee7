#include "vpd/io/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

namespace vpd {
namespace io {
namespace {

const char* type_name(Value::Type type) {
  switch (type) {
    case Value::Type::kNull: return "null";
    case Value::Type::kBool: return "bool";
    case Value::Type::kNumber: return "number";
    case Value::Type::kString: return "string";
    case Value::Type::kArray: return "array";
    case Value::Type::kObject: return "object";
    case Value::Type::kEncoded: return "encoded document";
  }
  return "unknown";
}

[[noreturn]] void type_error(const char* wanted, Value::Type got) {
  throw InvalidArgument(detail::concat("JSON value is ", type_name(got),
                                       ", expected ", wanted));
}

}  // namespace

Value Value::encoded(std::shared_ptr<const std::string> json) {
  VPD_REQUIRE(json != nullptr, "encoded JSON needs its bytes");
  Value v;
  v.type_ = Type::kEncoded;
  v.encoded_ = std::move(json);
  return v;
}

bool Value::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return number_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

const Value::Array& Value::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

Value::Array& Value::as_array() {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

const Value::Object& Value::as_object() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

Value::Object& Value::as_object() {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

const std::string& Value::as_encoded() const {
  if (type_ != Type::kEncoded) type_error("encoded document", type_);
  return *encoded_;
}

std::size_t Value::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  type_error("array or object", type_);
}

void Value::push_back(Value v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) type_error("array", type_);
  array_.push_back(std::move(v));
}

Value& Value::set(std::string key, Value v) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) type_error("object", type_);
  for (Member& m : object_) {
    if (m.first == key) {
      m.second = std::move(v);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(v));
  return *this;
}

const Value* Value::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const Member& m : object_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) {
    throw InvalidArgument(
        detail::concat("JSON object has no member \"", key, "\""));
  }
  return *v;
}

bool Value::operator==(const Value& other) const {
  // An encoded value equals whatever its document parses to.
  if (type_ == Type::kEncoded) return parse(*encoded_) == other;
  if (other.type_ == Type::kEncoded) return *this == parse(*other.encoded_);
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return number_ == other.number_;
    case Type::kString: return string_ == other.string_;
    case Type::kArray: return array_ == other.array_;
    case Type::kObject: return object_ == other.object_;
    case Type::kEncoded: break;  // handled above
  }
  return false;
}

// ---------------------------------------------------------------------------
// Parser: recursive descent over the RFC 8259 grammar with a nesting-depth
// guard so adversarial input cannot overflow the stack.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kMaxDepth = 192;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    skip_whitespace();
    Value v = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError(detail::concat("JSON parse error at byte ", pos_, ": ",
                                    message),
                     pos_);
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  char take() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void expect(char c) {
    if (eof() || text_[pos_] != c) {
      fail(detail::concat("expected '", std::string(1, c), "'"));
    }
    ++pos_;
  }

  void skip_whitespace() {
    while (!eof()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  void expect_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      fail(detail::concat("invalid literal, expected \"", literal, "\""));
    }
    pos_ += literal.size();
  }

  Value parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    if (eof()) fail("unexpected end of input");
    switch (peek()) {
      case 'n': expect_literal("null"); return Value();
      case 't': expect_literal("true"); return Value(true);
      case 'f': expect_literal("false"); return Value(false);
      case '"': return Value(parse_string());
      case '[': return parse_array(depth);
      case '{': return parse_object(depth);
      default: return parse_number();
    }
  }

  Value parse_array(std::size_t depth) {
    expect('[');
    Value v = Value::array();
    skip_whitespace();
    if (!eof() && peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_whitespace();
      v.push_back(parse_value(depth + 1));
      skip_whitespace();
      if (eof()) fail("unterminated array");
      const char c = take();
      if (c == ']') return v;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  Value parse_object(std::size_t depth) {
    expect('{');
    Value v = Value::object();
    skip_whitespace();
    if (!eof() && peek() == '}') {
      ++pos_;
      return v;
    }
    Value::Object& members = v.as_object();
    // Member positions by key, filled once the object outgrows a short
    // linear scan, so a line of many distinct keys parses in linear time.
    // A request line's objects hold 4 to 14 members; indexing those too
    // parses the line about 50% slower (EXPERIMENTS.md).
    std::unordered_map<std::string, std::size_t> index;
    constexpr std::size_t kScanMembers = 16;
    for (;;) {
      skip_whitespace();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      skip_whitespace();
      Value value = parse_value(depth + 1);
      // Duplicate keys: the first position keeps the last value (as set()
      // overwrites in place), so the parsed value is deterministic for any
      // input.
      std::size_t at = members.size();
      if (members.size() <= kScanMembers) {
        for (std::size_t m = 0; m < members.size(); ++m) {
          if (members[m].first == key) {
            at = m;
            break;
          }
        }
      } else {
        if (index.empty())
          for (std::size_t m = 0; m < members.size(); ++m)
            index.emplace(members[m].first, m);
        const auto [it, inserted] = index.emplace(key, members.size());
        if (!inserted) at = it->second;
      }
      if (at < members.size())
        members[at].second = std::move(value);
      else
        members.emplace_back(std::move(key), std::move(value));
      skip_whitespace();
      if (eof()) fail("unterminated object");
      const char c = take();
      if (c == '}') return v;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        --pos_;
        fail("invalid \\u escape digit");
      }
    }
    return code;
  }

  void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (eof()) fail("unterminated string");
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = take();
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
          unsigned code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (eof() || take() != '\\' || eof() || take() != 'u') {
              fail("high surrogate not followed by \\u low surrogate");
            }
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired low surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default:
          --pos_;
          fail("invalid escape character");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      pos_ = start;
      fail("invalid value");
    }
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit expected after decimal point");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit expected in exponent");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number");
    if (!std::isfinite(value)) fail("number out of double range");
    return Value(value);
  }

  std::string_view text_;
  std::size_t pos_{0};
};

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void write_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
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
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

// Shortest of %.15g / %.16g / %.17g that round-trips to identical bits,
// through std::to_chars (printf's %g form in the "C" locale, whatever the
// process locale) and std::from_chars. Exact integers (|v| < 2^53) print
// without fraction or exponent so counts and indices look like integers on
// the wire.
void write_number(std::string& out, double value) {
  VPD_REQUIRE(std::isfinite(value), "JSON cannot represent NaN/Inf");
  char buf[32];
  char* end = buf;
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    end = std::to_chars(buf, buf + sizeof buf, value, std::chars_format::fixed,
                        0)
              .ptr;
  } else {
    for (int precision = 15; precision <= 17; ++precision) {
      end = std::to_chars(buf, buf + sizeof buf, value,
                          std::chars_format::general, precision)
                .ptr;
      double back = 0.0;
      std::from_chars(buf, end, back);
      if (back == value) break;
    }
  }
  out.append(buf, end);
}

void write_value(std::string& out, const Value& v, int indent, int level) {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int lvl) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * lvl, ' ');
  };
  switch (v.type()) {
    case Value::Type::kNull: out += "null"; return;
    case Value::Type::kBool: out += v.as_bool() ? "true" : "false"; return;
    case Value::Type::kNumber: write_number(out, v.as_number()); return;
    case Value::Type::kString: write_escaped(out, v.as_string()); return;
    case Value::Type::kEncoded:
      if (pretty) {
        write_value(out, parse(v.as_encoded()), indent, level);
      } else {
        out += v.as_encoded();
      }
      return;
    case Value::Type::kArray: {
      const Value::Array& a = v.as_array();
      if (a.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline_pad(level + 1);
        write_value(out, a[i], indent, level + 1);
      }
      newline_pad(level);
      out.push_back(']');
      return;
    }
    case Value::Type::kObject: {
      const Value::Object& o = v.as_object();
      if (o.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline_pad(level + 1);
        write_escaped(out, o[i].first);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        write_value(out, o[i].second, indent, level + 1);
      }
      newline_pad(level);
      out.push_back('}');
      return;
    }
  }
}

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

std::string dump(const Value& value) {
  std::string out;
  write_value(out, value, -1, 0);
  return out;
}

std::string dump_pretty(const Value& value, int indent) {
  VPD_REQUIRE(indent >= 0, "indent must be non-negative");
  std::string out;
  write_value(out, value, indent, 0);
  return out;
}

std::string dump_number(double value) {
  std::string out;
  write_number(out, value);
  return out;
}

}  // namespace io
}  // namespace vpd
