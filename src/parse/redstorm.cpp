#include "parse/redstorm.hpp"

#include "parse/syslog.hpp"
#include "parse/timestamp.hpp"
#include "util/strings.hpp"

namespace wss::parse {

namespace {

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

  util::split_fields(line.substr(19), scratch.fields);
  const auto& fields = scratch.fields;
  if (fields.empty()) {
    rec.source_corrupted = true;
    return true;
  }
  rec.program = fields[0];  // event class, e.g. ec_heartbeat_stop
  bool have_src = false;
  for (const auto f : fields) {
    if (util::starts_with(f, "src:::")) {
      const std::string_view node = f.substr(6);
      if (plausible_redstorm_node(node)) {
        rec.source = node;
        have_src = true;
      }
      break;
    }
  }
  if (!have_src) rec.source_corrupted = true;

  // Body: everything after the event-class token.
  const char* body_start = fields[0].data() + fields[0].size();
  const auto offset = static_cast<std::size_t>(body_start - line.data());
  rec.body = util::trim(line.substr(offset));
  return true;
}

}  // namespace

bool plausible_redstorm_node(std::string_view s) {
  if (s.empty() || s.size() > 32) return false;
  // Cray node ids: c<col>-<row>c<cage>s<slot>n<cpu>; also plain admin
  // hostnames (login1, smw, ddn1, ...).
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == '_';
    if (!ok) return false;
  }
  return (s[0] >= 'a' && s[0] <= 'z');
}

void parse_redstorm_line_into(std::string_view line, int base_year,
                              LogRecord& rec, ParseScratch& scratch) {
  rec.reset(SystemId::kRedStorm, line);
  if (parse_event_router(line, rec, scratch)) return;

  // syslog-with-priority: after host there may be a "facility.severity"
  // token; split it off and reuse the base syslog parser.
  parse_syslog_line_into(SystemId::kRedStorm, line, base_year, rec, scratch);
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
  parse_redstorm_line_into(line, base_year, rec, scratch);
  return rec;
}

}  // namespace wss::parse
