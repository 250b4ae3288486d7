// Minimal JSON value + recursive-descent parser for the distributed
// study manifests.
//
// Manifests are the one place this repo speaks JSON (so operators can
// inspect and hand-edit a study with standard tools), and pulling in a
// JSON library for two small documents is not worth a dependency. The
// subset here is exactly what the manifest writer emits -- objects,
// arrays, strings, integers, booleans -- plus enough tolerance
// (whitespace, nested containers, escape sequences) that a hand-edited
// or pretty-printed manifest still loads.
//
// Numbers keep their raw source text: manifest fields include u64
// seeds, and round-tripping those through double would silently lose
// bits above 2^53.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/strings.hpp"

namespace wss::dist {

/// One parsed JSON value. A tagged struct rather than std::variant:
/// the accessors throw descriptive std::runtime_error on type
/// mismatch, which is the error-handling story for corrupt manifests
/// (one-line diagnostic, exit 1).
struct JsonValue {
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Type type = Type::kNull;
  bool boolean = false;
  std::string number;  ///< raw source text, e.g. "42" or "-1.5e3"
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_null() const { return type == Type::kNull; }

  /// Typed accessors; throw std::runtime_error naming the expected
  /// type on mismatch (or on numbers that do not fit the target).
  bool as_bool() const;
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
  double as_double() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::map<std::string, JsonValue>& as_object() const;

  /// Object member lookup; throws std::runtime_error("missing key: x")
  /// when absent. `find` returns nullptr instead.
  const JsonValue& at(std::string_view key) const;
  const JsonValue* find(std::string_view key) const;
};

/// Parses one JSON document (must consume all non-whitespace input).
/// Throws std::runtime_error with a byte offset on malformed input.
JsonValue parse_json(std::string_view text);

/// Serializes a string with JSON escaping, including the quotes.
using util::json_quote;

}  // namespace wss::dist
