// Small string utilities used throughout the library.
//
// Log parsing is byte-oriented and allocation-sensitive, so most of
// these operate on std::string_view and never allocate unless the
// return type requires it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace wss::util {

/// A 256-entry membership table of `members`' bytes: a loop that
/// classifies bytes pays one load and one branch per byte.
constexpr std::array<bool, 256> byte_set(std::string_view members) {
  std::array<bool, 256> t{};
  for (const char c : members) t[static_cast<unsigned char>(c)] = true;
  return t;
}

/// The six ASCII whitespace bytes that trim() and split_fields() cut on.
inline constexpr std::array<bool, 256> kSpaceBytes = byte_set(" \t\n\r\f\v");

/// True if `c` is one of kSpaceBytes.
constexpr bool is_space(char c) {
  return kSpaceBytes[static_cast<unsigned char>(c)];
}

/// `s` packed first byte lowest into an integer, with bit 5 set in every
/// byte. That folds ASCII letters to lower case and makes no other byte
/// a letter, and no packed byte is zero, so the length is part of the
/// key: for an all-letter `word` of at most 8 bytes and an `s` of at
/// most 8, `fold_key(s) == fold_key(word)` exactly when
/// `iequals(s, word)`. A `switch` over fold_key() constants looks a
/// word up in one pass. Bytes past the 8th are not packed, so callers
/// reject longer input first.
constexpr std::uint64_t fold_key(std::string_view s) {
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < s.size() && i < 8; ++i) {
    key |= std::uint64_t{static_cast<unsigned char>(s[i]) | 0x20u} << (8 * i);
  }
  return key;
}

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Splits on a single character; empty fields are preserved.
std::vector<std::string_view> split(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace; empty fields are dropped.
/// This is awk's default field splitting, used by the rule engine's
/// field predicates ($1, $2, ...).
std::vector<std::string_view> split_fields(std::string_view s);

/// Same, into a caller-owned buffer (cleared first), stopping after
/// the first `max_fields` fields: a parser splits only the header it
/// reads. The per-line hot paths reuse one buffer to stay
/// allocation-free.
void split_fields(std::string_view s, std::vector<std::string_view>& out,
                  std::size_t max_fields = SIZE_MAX);

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool ends_with(std::string_view s, std::string_view suffix);

/// True if `needle` occurs anywhere in `haystack`.
bool contains(std::string_view haystack, std::string_view needle);

/// ASCII lower-casing (copies).
std::string to_lower(std::string_view s);

/// ASCII upper-casing (copies).
std::string to_upper(std::string_view s);

/// Case-insensitive ASCII equality.
bool iequals(std::string_view a, std::string_view b);

/// Parses a non-negative decimal integer; rejects trailing junk.
std::optional<std::uint64_t> parse_u64(std::string_view s);

/// Parses a signed decimal integer; rejects trailing junk.
std::optional<std::int64_t> parse_i64(std::string_view s);

/// Parses a double; rejects trailing junk.
std::optional<double> parse_double(std::string_view s);

/// Joins strings with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to);

/// Formats an integer with thousands separators: 1234567 -> "1,234,567".
/// This is how the paper prints every count, so tables use it too.
std::string with_commas(std::int64_t v);

/// FNV-1a 64-bit hash; stable across platforms (used for dedup keys).
std::uint64_t fnv1a(std::string_view s);

/// Appends the decimal digits of `v` to `out` ("%llu").
void append_uint(std::uint64_t v, std::string& out);

/// Appends `v` zero-padded to at least `width` digits ("%0*llu"); a
/// value wider than `width` is appended in full. Neither appender
/// allocates once `out` has the capacity, which is what lets the
/// simulator render a line without printf or a heap allocation.
void append_padded(std::uint64_t v, int width, std::string& out);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Serializes a string as a JSON string literal, quotes included:
/// escapes quotes, backslashes and control characters; other bytes
/// (UTF-8 included) pass through. The one escaper every JSON writer
/// (metrics export, /status, dist manifests) uses.
std::string json_quote(std::string_view s);

}  // namespace wss::util
