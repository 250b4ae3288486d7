#include "parse/redstorm.hpp"

#include "parse/syslog.hpp"
#include "parse/timestamp.hpp"
#include "util/strings.hpp"

namespace wss::parse {

namespace {

constexpr auto kNodeBytes =
    util::byte_set("abcdefghijklmnopqrstuvwxyz0123456789-_");

/// The first whitespace-delimited field of `s` that starts with
/// "src:::", without that prefix; nullopt if there is none. The search
/// stops at that field: nothing past it is read.
std::optional<std::string_view> src_field(std::string_view s) {
  constexpr std::string_view kSrc = "src:::";
  for (std::size_t at = s.find(kSrc); at != std::string_view::npos;
       at = s.find(kSrc, at + 1)) {
    if (at != 0 && !util::is_space(s[at - 1])) continue;  // mid-field
    const std::size_t begin = at + kSrc.size();
    std::size_t end = begin;
    while (end < s.size() && !util::is_space(s[end])) ++end;
    return s.substr(begin, end - begin);
  }
  return std::nullopt;
}

/// Parses the RAS event-router shape; returns false if `line` is not
/// that shape (caller falls back to syslog). Expects a freshly reset
/// `rec`.
bool parse_event_router(std::string_view line, LogRecord& rec,
                        ParseScratch& scratch) {
  if (line.size() < 20) return false;
  const auto t = parse_iso_timestamp(line.substr(0, 19));
  if (!t) return false;
  rec.time = *t;
  rec.timestamp_valid = true;

  const std::string_view rest = line.substr(19);
  util::split_fields(rest, scratch.fields, 1);
  if (scratch.fields.empty()) {
    rec.source_corrupted = true;
    return true;
  }
  const std::string_view event_class = scratch.fields[0];
  rec.program = event_class;  // e.g. ec_heartbeat_stop
  const auto node = src_field(rest);
  if (node && plausible_redstorm_node(*node)) {
    rec.source = *node;
  } else {
    rec.source_corrupted = true;
  }

  // Body: everything after the event-class token.
  const char* body_start = event_class.data() + event_class.size();
  const auto offset = static_cast<std::size_t>(body_start - line.data());
  rec.body = util::trim(line.substr(offset));
  return true;
}

}  // namespace

bool plausible_redstorm_node(std::string_view s) {
  // Cray node ids: c<col>-<row>c<cage>s<slot>n<cpu>; also plain admin
  // hostnames (login1, smw, ddn1, ...). Both start with a lowercase
  // letter.
  if (s.empty() || s.size() > 32 || s[0] < 'a' || s[0] > 'z') return false;
  for (const char c : s) {
    if (!kNodeBytes[static_cast<unsigned char>(c)]) return false;
  }
  return true;
}

void parse_redstorm_line_into(std::string_view line, LogRecord& rec,
                              ParseScratch& scratch, bool reject_stamp) {
  rec.reset(SystemId::kRedStorm, line);
  if (parse_event_router(line, rec, scratch)) return;

  // syslog-with-priority: after host there may be a "facility.severity"
  // token; split it off and reuse the base syslog parser.
  parse_syslog_line_into(SystemId::kRedStorm, line, rec, scratch,
                         reject_stamp);
  // The base parser left "kern.crit kernel: body" as the unparsed
  // remainder if the priority token blocked the program detection; the
  // priority token ends up at the front of the body. Pull it out.
  util::split_fields(rec.body, scratch.fields, 1);
  if (!scratch.fields.empty()) {
    const std::string_view tok = scratch.fields[0];
    const std::size_t dot = tok.find('.');
    if (dot != std::string_view::npos && dot > 0 && dot + 1 < tok.size() &&
        tok.find(':') == std::string_view::npos) {
      if (const auto sev = parse_severity(tok.substr(dot + 1))) {
        rec.severity = *sev;
        // Re-parse the remainder for program/body; like the body, it
        // views the line.
        const char* after = tok.data() + tok.size();
        const auto offset = static_cast<std::size_t>(after - rec.body.data());
        const std::string_view rest = util::trim(rec.body.substr(offset));
        const std::size_t colon = rest.find(": ");
        if (colon != std::string_view::npos &&
            rest.substr(0, colon).find(' ') == std::string_view::npos) {
          std::string_view prog = rest.substr(0, colon);
          const std::size_t bracket = prog.find('[');
          if (bracket != std::string_view::npos) prog = prog.substr(0, bracket);
          rec.program = prog;
          rec.body = util::trim(rest.substr(colon + 2));
        } else {
          rec.program = {};
          rec.body = rest;
        }
      }
    }
  }
}

LogRecord parse_redstorm_line(std::string_view line, int base_year) {
  LogRecord rec;
  ParseScratch scratch;
  parse_redstorm_line_into(line, rec, scratch);
  apply_year(rec, base_year, scratch);
  return rec;
}

}  // namespace wss::parse
