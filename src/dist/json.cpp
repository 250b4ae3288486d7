#include "dist/json.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

#include "util/strings.hpp"

namespace wss::dist {

namespace {

[[noreturn]] void type_error(const char* wanted, JsonValue::Type got) {
  static constexpr const char* kNames[] = {"null",   "bool",  "number",
                                           "string", "array", "object"};
  throw std::runtime_error(util::format("json: expected %s, got %s", wanted,
                                        kNames[static_cast<int>(got)]));
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue document() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(
        util::format("json: %s at offset %zu", what.c_str(), pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(util::format("expected '%c'", c));
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return object();
      case '[':
        return array();
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::kString;
        v.string = string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) fail("bad literal");
        JsonValue v;
        v.type = JsonValue::Type::kBool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) fail("bad literal");
        JsonValue v;
        v.type = JsonValue::Type::kBool;
        v.boolean = false;
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      }
      default:
        return number();
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t digits_start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == digits_start) fail("bad number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = std::string(text_.substr(start, pos_ - start));
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // Manifest strings are ASCII; accept \uXXXX but only the
          // ASCII range (anything else would have to be a hand-edit
          // this format never produces).
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          if (code > 0x7f) fail("non-ASCII \\u escape unsupported");
          out += static_cast<char>(code);
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object[std::move(key)] = value();
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool JsonValue::as_bool() const {
  if (type != Type::kBool) type_error("bool", type);
  return boolean;
}

std::uint64_t JsonValue::as_u64() const {
  if (type != Type::kNumber) type_error("number", type);
  errno = 0;
  char* end = nullptr;
  if (!number.empty() && number[0] == '-') {
    throw std::runtime_error("json: negative value where unsigned expected");
  }
  const unsigned long long v = std::strtoull(number.c_str(), &end, 10);
  if (errno != 0 || end == number.c_str() || *end != '\0') {
    throw std::runtime_error("json: not a u64: " + number);
  }
  return static_cast<std::uint64_t>(v);
}

std::int64_t JsonValue::as_i64() const {
  if (type != Type::kNumber) type_error("number", type);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(number.c_str(), &end, 10);
  if (errno != 0 || end == number.c_str() || *end != '\0') {
    throw std::runtime_error("json: not an i64: " + number);
  }
  return static_cast<std::int64_t>(v);
}

double JsonValue::as_double() const {
  if (type != Type::kNumber) type_error("number", type);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(number.c_str(), &end);
  if (end == number.c_str() || *end != '\0') {
    throw std::runtime_error("json: not a number: " + number);
  }
  return v;
}

const std::string& JsonValue::as_string() const {
  if (type != Type::kString) type_error("string", type);
  return string;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (type != Type::kArray) type_error("array", type);
  return array;
}

const std::map<std::string, JsonValue>& JsonValue::as_object() const {
  if (type != Type::kObject) type_error("object", type);
  return object;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("json: missing key: " + std::string(key));
  }
  return *v;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) type_error("object", type);
  const auto it = object.find(std::string(key));
  return it == object.end() ? nullptr : &it->second;
}

JsonValue parse_json(std::string_view text) { return Parser(text).document(); }

}  // namespace wss::dist
