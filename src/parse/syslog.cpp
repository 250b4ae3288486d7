#include "parse/syslog.hpp"

#include "parse/timestamp.hpp"
#include "util/strings.hpp"

namespace wss::parse {

namespace {

constexpr auto kHostBytes = util::byte_set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-");

}  // namespace

bool plausible_hostname(std::string_view s) {
  // Letters, digits, '.', '_' and '-', starting with a letter or digit.
  if (s.empty() || s.size() > 64 || s[0] == '.' || s[0] == '_' ||
      s[0] == '-') {
    return false;
  }
  for (const char c : s) {
    if (!kHostBytes[static_cast<unsigned char>(c)]) return false;
  }
  return true;
}

void parse_syslog_line_into(SystemId system, std::string_view line,
                            int base_year, LogRecord& rec,
                            ParseScratch& scratch) {
  rec.reset(system, line);

  // Timestamp: fixed-width first 15 bytes.
  std::string_view rest = line;
  if (line.size() >= 15) {
    if (const auto t = parse_syslog_timestamp(line.substr(0, 15), base_year)) {
      rec.time = *t;
      rec.timestamp_valid = true;
    }
    rest = line.substr(15);
  } else {
    rest = {};
  }
  if (!rec.timestamp_valid) {
    // Corrupted stamp: resync on the first space-delimited boundary
    // after three tokens (Mon, dd, time) so we can still attribute.
    // A fourth token must exist; nothing past it is split.
    util::split_fields(line, scratch.fields, 4);
    if (scratch.fields.size() >= 4) {
      const char* after = scratch.fields[2].data() + scratch.fields[2].size();
      rest = line.substr(static_cast<std::size_t>(after - line.data()));
    } else {
      rest = {};
    }
  }

  // Host token.
  rest = util::trim(rest);
  const std::size_t host_end = rest.find(' ');
  const std::string_view host =
      host_end == std::string_view::npos ? rest : rest.substr(0, host_end);
  if (plausible_hostname(host)) {
    rec.source = host;
  } else {
    rec.source_corrupted = true;
  }
  rest = host_end == std::string_view::npos ? std::string_view{}
                                            : rest.substr(host_end + 1);

  // Program tag: "prog:" or "prog[pid]:". If absent, the whole
  // remainder is the body.
  const std::size_t colon = rest.find(": ");
  std::string_view tag;
  if (colon != std::string_view::npos && colon > 0 &&
      rest.substr(0, colon).find(' ') == std::string_view::npos) {
    tag = rest.substr(0, colon);
    rec.body = util::trim(rest.substr(colon + 2));
  } else if (!rest.empty() && rest.back() == ':' &&
             rest.find(' ') == std::string_view::npos) {
    tag = rest.substr(0, rest.size() - 1);
  } else {
    rec.body = util::trim(rest);
  }
  if (!tag.empty()) {
    const std::size_t bracket = tag.find('[');
    rec.program =
        bracket == std::string_view::npos ? tag : tag.substr(0, bracket);
  }
}

LogRecord parse_syslog_line(SystemId system, std::string_view line,
                            int base_year) {
  LogRecord rec;
  ParseScratch scratch;
  parse_syslog_line_into(system, line, base_year, rec, scratch);
  return rec;
}

}  // namespace wss::parse
