#include "svc/json.hpp"

#include <cctype>
#include <charconv>
#include <cstddef>
#include <cstdint>

#include "sim/error.hpp"

namespace offramps::svc::json {

const Value* Value::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Value::number_or(const std::string& key, double fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->kind == Kind::kNumber) ? v->number : fallback;
}

bool Value::bool_or(const std::string& key, bool fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->kind == Kind::kBool) ? v->boolean : fallback;
}

std::string Value::string_or(const std::string& key,
                             std::string fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->kind == Kind::kString) ? v->string
                                                    : std::move(fallback);
}

namespace {

/// Appends code point `cp` (at most 0x10FFFF) as UTF-8.
void append_utf8(std::string& out, std::uint32_t cp) {
  const auto byte = [&out](std::uint32_t b) { out += static_cast<char>(b); };
  if (cp < 0x80) {
    byte(cp);
  } else if (cp < 0x800) {
    byte(0xC0 | (cp >> 6));
    byte(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    byte(0xE0 | (cp >> 12));
    byte(0x80 | ((cp >> 6) & 0x3F));
    byte(0x80 | (cp & 0x3F));
  } else {
    byte(0xF0 | (cp >> 18));
    byte(0x80 | ((cp >> 12) & 0x3F));
    byte(0x80 | ((cp >> 6) & 0x3F));
    byte(0x80 | (cp & 0x3F));
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing data after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json: " + what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + peek() + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value() {
    skip_ws();
    // Recursion depth is bounded to keep a hostile spec file from
    // overflowing the stack.
    if (depth_ > kMaxParseDepth) fail("nesting too deep");
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        Value v;
        v.kind = Value::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
        if (consume_literal("true")) {
          Value v;
          v.kind = Value::Kind::kBool;
          v.boolean = true;
          return v;
        }
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) {
          Value v;
          v.kind = Value::Kind::kBool;
          return v;
        }
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Value{};
        fail("bad literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    ++depth_;
    Value v;
    v.kind = Value::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.fields.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      --depth_;
      return v;
    }
  }

  Value parse_array() {
    expect('[');
    ++depth_;
    Value v;
    v.kind = Value::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      --depth_;
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': append_utf8(out, code_point()); break;
          default: fail("bad escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      out += c;
    }
  }

  /// The code point of a \u escape, `pos_` just past the 'u': exactly
  /// four hex digits, and a high surrogate must pair with a following
  /// \u low surrogate.
  std::uint32_t code_point() {
    const std::uint32_t cp = hex4();
    if (cp < 0xD800 || cp > 0xDFFF) return cp;
    if (cp > 0xDBFF || text_.compare(pos_, 2, "\\u") != 0) {
      fail("bad \\u escape");  // lone low or unpaired high surrogate
    }
    pos_ += 2;
    const std::uint32_t low = hex4();
    if (low < 0xDC00 || low > 0xDFFF) fail("bad \\u escape");
    return 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
  }

  std::uint32_t hex4() {
    std::uint32_t v = 0;
    const char* p = text_.data() + pos_;
    if (text_.size() - pos_ < 4 ||
        std::from_chars(p, p + 4, v, 16).ptr != p + 4) {
      fail("bad \\u escape");
    }
    pos_ += 4;
    return v;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    Value v;
    v.kind = Value::Kind::kNumber;
    const auto [ptr, ec] = std::from_chars(
        text_.data() + start, text_.data() + pos_, v.number);
    if (ec != std::errc{} || ptr != text_.data() + pos_ || pos_ == start) {
      pos_ = start;
      fail("malformed number");
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace offramps::svc::json
