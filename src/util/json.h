// Minimal JSON layer shared by the observability exporters and the server
// protocol: a recursive-descent parser (full RFC 8259 value grammar, \uXXXX
// escapes decoded to UTF-8) and a string escaper for composing documents.
// Not a general-purpose library: optimized for clarity and determinism, not
// throughput. Lived in trace/ until the server needed it; trace re-exports
// its old spelling.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ctesim::json {

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  ///< preserves order

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }

  /// Member lookup on objects; nullptr when absent (or not an object).
  const Value* find(const std::string& key) const;
};

/// Parse one JSON document (value + optional trailing whitespace). Throws
/// std::runtime_error with a byte offset on malformed input, including
/// arrays/objects nested more than 128 levels deep.
Value parse(std::string_view text);

/// Escape `s` for embedding inside a JSON string literal (no quotes added).
std::string escape(const std::string& s);

/// Format a double the way every ctesim JSON producer does ("%.12g"), so
/// identical inputs serialize to identical bytes on every platform.
std::string number(double value);

}  // namespace ctesim::json
