#pragma once
/// \file json_parse.hpp
/// Minimal recursive-descent JSON reader — the inverse of JsonWriter, used
/// wherever the tree persists machine state it must read back (the campaign
/// result cache). Supports the full JSON value grammar minus exotic number
/// forms. Malformed input (a corrupted or truncated cache file) throws with
/// its byte position, and containers nest at most 512 deep, so hostile
/// input is rejected instead of overflowing the stack.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace amrio::util {

/// A parsed JSON value. Object member order is preserved (our writers emit
/// deterministic key order, and round-trip tests rely on it).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_v = false;
  double num_v = 0.0;
  std::string str_v;
  std::vector<JsonValue> items;                              ///< kArray
  std::vector<std::pair<std::string, JsonValue>> members;    ///< kObject

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  /// Member lookup (objects only); nullptr when absent.
  const JsonValue* find(const std::string& key) const;

  /// Typed member accessors with defaults — one-liners for readers of our
  /// own artifacts. A present member of the wrong kind returns the default,
  /// as does a number u64_or cannot represent (negative, >= 2^64).
  double number_or(const std::string& key, double dflt) const;
  std::uint64_t u64_or(const std::string& key, std::uint64_t dflt) const;
  std::string string_or(const std::string& key, const std::string& dflt) const;
  bool bool_or(const std::string& key, bool dflt) const;
};

/// Parse one JSON document. Throws std::runtime_error with a byte offset on
/// malformed input or trailing garbage.
JsonValue parse_json(std::string_view text);

/// Parse the JSON document in `path`. Throws std::runtime_error when the
/// file cannot be read or does not parse.
JsonValue parse_json_file(const std::string& path);

}  // namespace amrio::util
