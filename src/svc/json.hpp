// Minimal JSON reader for the fleet service's configuration surface.
//
// The fleet daemon takes its rig matrix as a JSON spec file; this is the
// self-contained parser for it (the writers keep each document's layout
// at its call site and escape every string through obs/json.hpp's
// append_json_string - only configuration input needs a reader).  Full
// JSON value model, recursive descent, UTF-8 passed through verbatim,
// \uXXXX escapes decoded to UTF-8 (a surrogate pair to one code point),
// so every string append_json_string writes reads back byte for byte.
// Throws offramps::Error with a byte offset on malformed input; a lone
// surrogate or a \u without four hex digits is "bad \u escape".
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace offramps::svc::json {

/// Recursion-depth ceiling of the recursive-descent reader.  A hostile
/// spec file of nothing but '[' characters costs one stack frame per
/// nesting level; the parser rejects documents deeper than this with
/// "nesting too deep" instead of overflowing the stack.  64 is far
/// beyond any legitimate fleet spec (which nests 3 levels).
inline constexpr int kMaxParseDepth = 64;

/// One parsed JSON value (a tagged tree).
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> items;                            // kArray
  std::vector<std::pair<std::string, Value>> fields;   // kObject, in order

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(const std::string& key) const;

  /// Typed accessors with fallbacks (absent or differently-typed members
  /// yield the fallback - the spec surface treats both as "not given").
  [[nodiscard]] double number_or(const std::string& key,
                                 double fallback) const;
  [[nodiscard]] bool bool_or(const std::string& key, bool fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      std::string fallback) const;
};

/// Parses one JSON document (trailing whitespace allowed, trailing data
/// rejected).  Throws offramps::Error on malformed input.
Value parse(const std::string& text);

}  // namespace offramps::svc::json
