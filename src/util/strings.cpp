#include "util/strings.hpp"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace wss::util {

namespace {

char ascii_lower(char c) {
  return (c >= 'A' && c <= 'Z') ? char(c - 'A' + 'a') : c;
}

char ascii_upper(char c) {
  return (c >= 'a' && c <= 'z') ? char(c - 'a' + 'A') : c;
}

}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> split_fields(std::string_view s) {
  std::vector<std::string_view> out;
  split_fields(s, out);
  return out;
}

void split_fields(std::string_view s, std::vector<std::string_view>& out,
                  std::size_t max_fields) {
  out.clear();
  const auto* p = reinterpret_cast<const unsigned char*>(s.data());
  const auto* const end = p + s.size();
  while (out.size() < max_fields) {
    while (p != end && kSpaceBytes[*p]) ++p;
    if (p == end) break;
    const auto* const start = p;
    while (p != end && !kSpaceBytes[*p]) ++p;
    out.emplace_back(reinterpret_cast<const char*>(start),
                     static_cast<std::size_t>(p - start));
  }
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = ascii_lower(c);
  return out;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = ascii_upper(c);
  return out;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  }
  return true;
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (v > (~0ull - digit) / 10) return std::nullopt;  // overflow
    v = v * 10 + digit;
  }
  return v;
}

std::optional<std::int64_t> parse_i64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  bool neg = false;
  if (s[0] == '-' || s[0] == '+') {
    neg = s[0] == '-';
    s.remove_prefix(1);
  }
  const auto mag = parse_u64(s);
  if (!mag) return std::nullopt;
  if (neg) {
    if (*mag > 0x8000000000000000ull) return std::nullopt;
    // Negate in unsigned arithmetic: a signed negation of INT64_MIN
    // overflows, while 0 - mag wraps mod 2^64 to the same bits.
    return static_cast<std::int64_t>(0 - *mag);
  }
  if (*mag > 0x7fffffffffffffffull) return std::nullopt;
  return static_cast<std::int64_t>(*mag);
}

std::optional<double> parse_double(std::string_view s) {
  if (s.empty() || s.size() > 63) return std::nullopt;
  char buf[64];
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf, &end);
  if (end != buf + s.size() || errno == ERANGE) return std::nullopt;
  return v;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) break;
    out.append(s.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
  out.append(s.substr(pos));
  return out;
}

std::string with_commas(std::int64_t v) {
  const bool neg = v < 0;
  std::uint64_t mag = neg ? static_cast<std::uint64_t>(-(v + 1)) + 1
                          : static_cast<std::uint64_t>(v);
  std::string digits = std::to_string(mag);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3 + 1);
  const std::size_t first = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - first) % 3 == 0 && i >= first) out.push_back(',');
    out.push_back(digits[i]);
  }
  if (neg) out.insert(out.begin(), '-');
  return out;
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

void append_uint(std::uint64_t v, std::string& out) {
  append_padded(v, 1, out);
}

void append_padded(std::uint64_t v, int width, std::string& out) {
  char buf[20];  // 2^64 - 1 has 20 digits
  char* p = buf + sizeof(buf);
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  const auto digits = static_cast<int>(buf + sizeof(buf) - p);
  if (width > digits) out.append(static_cast<std::size_t>(width - digits), '0');
  out.append(p, static_cast<std::size_t>(digits));
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

std::string json_quote(std::string_view s) {
  std::string out = "\"";
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += format("\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace wss::util
