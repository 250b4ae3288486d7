// The header decoders of the parsers as they were before each became a
// single fixed-layout pass, kept verbatim as the oracle the new ones
// must equal: the digits()/expect() stamp parsers, the 12-way month
// loop, the iequals() severity chain, the three plausibility checks,
// and Red Storm's whole-line split. The line parsers around them are
// copied too, so a whole parse can be compared field by field. Calls
// that argument-dependent lookup would also resolve to wss::parse are
// qualified; nothing else differs from the copied source.
#pragma once

#include <array>
#include <optional>
#include <string_view>

#include "parse/bgl.hpp"
#include "parse/dispatch.hpp"
#include "parse/record.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace wss::parse_oracle {

using parse::kBglHeaderFields;
using parse::LogRecord;
using parse::ParseScratch;
using parse::Severity;
using parse::SystemId;

// util/time.cpp

inline constexpr std::array<std::string_view, 12> kMonths = {
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

inline char lower(char c) {
  return (c >= 'A' && c <= 'Z') ? char(c - 'A' + 'a') : c;
}

inline int parse_month_abbrev(std::string_view s) {
  if (s.size() < 3) return 0;
  for (int m = 1; m <= 12; ++m) {
    const std::string_view ref = kMonths[static_cast<std::size_t>(m - 1)];
    if (lower(s[0]) == lower(ref[0]) && lower(s[1]) == lower(ref[1]) &&
        lower(s[2]) == lower(ref[2])) {
      return m;
    }
  }
  return 0;
}

// parse/record.cpp

inline std::optional<Severity> parse_severity(std::string_view s) {
  using util::iequals;
  if (iequals(s, "DEBUG")) return Severity::kDebug;
  if (iequals(s, "INFO")) return Severity::kInfo;
  if (iequals(s, "NOTICE")) return Severity::kNotice;
  if (iequals(s, "WARNING") || iequals(s, "WARN")) return Severity::kWarning;
  if (iequals(s, "ERROR") || iequals(s, "ERR")) return Severity::kError;
  if (iequals(s, "SEVERE")) return Severity::kSevere;
  if (iequals(s, "CRIT") || iequals(s, "CRITICAL")) return Severity::kCrit;
  if (iequals(s, "ALERT")) return Severity::kAlert;
  if (iequals(s, "EMERG") || iequals(s, "PANIC")) return Severity::kEmerg;
  if (iequals(s, "FAILURE")) return Severity::kFailure;
  if (iequals(s, "FATAL")) return Severity::kFatal;
  return std::nullopt;
}

// parse/timestamp.cpp

/// Parses exactly `n` decimal digits starting at `pos`; advances pos.
inline std::optional<int> digits(std::string_view s, std::size_t& pos,
                                 int n) {
  if (pos + static_cast<std::size_t>(n) > s.size()) return std::nullopt;
  int v = 0;
  for (int i = 0; i < n; ++i) {
    const char c = s[pos + static_cast<std::size_t>(i)];
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + (c - '0');
  }
  pos += static_cast<std::size_t>(n);
  return v;
}

inline bool expect(std::string_view s, std::size_t& pos, char c) {
  if (pos >= s.size() || s[pos] != c) return false;
  ++pos;
  return true;
}

inline bool civil_fields_valid(int year, int month, int day, int hour,
                               int minute, int second) {
  if (year < 1 || year > 9999) return false;
  if (month < 1 || month > 12) return false;
  if (day < 1 || day > util::days_in_month(year, month)) return false;
  if (hour < 0 || hour > 23) return false;
  if (minute < 0 || minute > 59) return false;
  if (second < 0 || second > 59) return false;
  return true;
}

inline std::optional<util::TimeUs> parse_syslog_timestamp(
    std::string_view s, int base_year) {
  // "Mon dd HH:MM:SS" -- dd may be space-padded ("Jun  3").
  if (s.size() < 15) return std::nullopt;
  const int month = parse_month_abbrev(s.substr(0, 3));
  if (month == 0) return std::nullopt;
  std::size_t pos = 3;
  if (!expect(s, pos, ' ')) return std::nullopt;
  int day = 0;
  if (s[pos] == ' ') {
    ++pos;
    const auto d = digits(s, pos, 1);
    if (!d) return std::nullopt;
    day = *d;
  } else {
    const auto d = digits(s, pos, 2);
    if (!d) return std::nullopt;
    day = *d;
  }
  if (!expect(s, pos, ' ')) return std::nullopt;
  const auto hour = digits(s, pos, 2);
  if (!hour || !expect(s, pos, ':')) return std::nullopt;
  const auto minute = digits(s, pos, 2);
  if (!minute || !expect(s, pos, ':')) return std::nullopt;
  const auto second = digits(s, pos, 2);
  if (!second) return std::nullopt;
  if (!civil_fields_valid(base_year, month, day, *hour, *minute, *second)) {
    return std::nullopt;
  }
  util::CivilTime ct;
  ct.year = base_year;
  ct.month = month;
  ct.day = day;
  ct.hour = *hour;
  ct.minute = *minute;
  ct.second = *second;
  return util::to_time_us(ct);
}

inline std::optional<util::TimeUs> parse_bgl_timestamp(std::string_view s) {
  // "YYYY-MM-DD-HH.MM.SS.ffffff"
  std::size_t pos = 0;
  const auto year = digits(s, pos, 4);
  if (!year || !expect(s, pos, '-')) return std::nullopt;
  const auto month = digits(s, pos, 2);
  if (!month || !expect(s, pos, '-')) return std::nullopt;
  const auto day = digits(s, pos, 2);
  if (!day || !expect(s, pos, '-')) return std::nullopt;
  const auto hour = digits(s, pos, 2);
  if (!hour || !expect(s, pos, '.')) return std::nullopt;
  const auto minute = digits(s, pos, 2);
  if (!minute || !expect(s, pos, '.')) return std::nullopt;
  const auto second = digits(s, pos, 2);
  if (!second || !expect(s, pos, '.')) return std::nullopt;
  const auto micros = digits(s, pos, 6);
  if (!micros) return std::nullopt;
  if (!civil_fields_valid(*year, *month, *day, *hour, *minute, *second)) {
    return std::nullopt;
  }
  util::CivilTime ct;
  ct.year = *year;
  ct.month = *month;
  ct.day = *day;
  ct.hour = *hour;
  ct.minute = *minute;
  ct.second = *second;
  ct.micros = *micros;
  return util::to_time_us(ct);
}

inline std::optional<util::TimeUs> parse_iso_timestamp(std::string_view s) {
  // "YYYY-MM-DD HH:MM:SS"
  std::size_t pos = 0;
  const auto year = digits(s, pos, 4);
  if (!year || !expect(s, pos, '-')) return std::nullopt;
  const auto month = digits(s, pos, 2);
  if (!month || !expect(s, pos, '-')) return std::nullopt;
  const auto day = digits(s, pos, 2);
  if (!day || !expect(s, pos, ' ')) return std::nullopt;
  const auto hour = digits(s, pos, 2);
  if (!hour || !expect(s, pos, ':')) return std::nullopt;
  const auto minute = digits(s, pos, 2);
  if (!minute || !expect(s, pos, ':')) return std::nullopt;
  const auto second = digits(s, pos, 2);
  if (!second) return std::nullopt;
  if (!civil_fields_valid(*year, *month, *day, *hour, *minute, *second)) {
    return std::nullopt;
  }
  util::CivilTime ct;
  ct.year = *year;
  ct.month = *month;
  ct.day = *day;
  ct.hour = *hour;
  ct.minute = *minute;
  ct.second = *second;
  return util::to_time_us(ct);
}

// parse/bgl.cpp

inline bool plausible_bgl_location(std::string_view s) {
  // Location codes are 'R' + rack digits, then dash-separated
  // components of uppercase letters and digits, optionally with a
  // ':'-separated chip part: R02-M1-N0-C:J12-U11.
  if (s.size() < 3 || s.size() > 40 || s[0] != 'R') return false;
  for (char c : s) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == ':';
    if (!ok) return false;
  }
  return s.find('-') != std::string_view::npos;
}

inline void parse_bgl_line_into(std::string_view line, LogRecord& rec,
                                ParseScratch& scratch) {
  rec.reset(SystemId::kBlueGeneL, line);

  // epoch date loc timestamp loc RAS FACILITY SEVERITY body...: the
  // header is the first 8 fields, and a line needs one body token
  // besides. Nothing past the 9th field is split.
  util::split_fields(line, scratch.fields, kBglHeaderFields);
  const auto& fields = scratch.fields;
  if (fields.size() < kBglHeaderFields) {
    rec.source_corrupted = true;
    rec.body = util::trim(line);
    return;
  }

  if (const auto t = parse_bgl_timestamp(fields[3])) {
    rec.time = *t;
    rec.timestamp_valid = true;
  } else if (const auto epoch = util::parse_u64(fields[0])) {
    // Fall back to the coarse epoch-seconds field.
    rec.time = static_cast<util::TimeUs>(*epoch) * util::kUsPerSec;
    rec.timestamp_valid = true;
  }

  if (plausible_bgl_location(fields[2])) {
    rec.source = fields[2];
  } else {
    rec.source_corrupted = true;
  }

  rec.program = fields[6];  // FACILITY (KERNEL, APP, ...)
  if (const auto sev = parse_severity(fields[7])) {
    rec.severity = *sev;
  }

  // Body: everything after the severity token.
  const char* body_start = fields[7].data() + fields[7].size();
  const auto offset = static_cast<std::size_t>(body_start - line.data());
  rec.body = util::trim(line.substr(offset));
}

// parse/syslog.cpp

inline bool is_alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

inline bool plausible_hostname(std::string_view s) {
  if (s.empty() || s.size() > 64) return false;
  if (!is_alnum(s[0])) return false;
  for (char c : s) {
    if (!is_alnum(c) && c != '.' && c != '_' && c != '-') return false;
  }
  return true;
}

inline void parse_syslog_line_into(SystemId system, std::string_view line,
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

// parse/redstorm.cpp

inline bool plausible_redstorm_node(std::string_view s) {
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

/// Parses the RAS event-router shape; returns false if `line` is not
/// that shape (caller falls back to syslog). Expects a freshly reset
/// `rec`.
inline bool parse_event_router(std::string_view line, LogRecord& rec,
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

inline void parse_redstorm_line_into(std::string_view line, int base_year,
                                     LogRecord& rec, ParseScratch& scratch) {
  rec.reset(SystemId::kRedStorm, line);
  if (parse_event_router(line, rec, scratch)) return;

  // syslog-with-priority: after host there may be a "facility.severity"
  // token; split it off and reuse the base syslog parser.
  parse_oracle::parse_syslog_line_into(SystemId::kRedStorm, line, base_year,
                                       rec, scratch);
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

// parse/dispatch.cpp

inline void parse_line_into(SystemId system, std::string_view line,
                            int base_year, LogRecord& rec,
                            ParseScratch& scratch) {
  switch (system) {
    case SystemId::kBlueGeneL:
      parse_oracle::parse_bgl_line_into(line, rec, scratch);
      return;
    case SystemId::kRedStorm:
      parse_oracle::parse_redstorm_line_into(line, base_year, rec, scratch);
      return;
    case SystemId::kThunderbird:
    case SystemId::kSpirit:
    case SystemId::kLiberty:
      parse_oracle::parse_syslog_line_into(system, line, base_year, rec,
                                           scratch);
      return;
  }
  rec.reset(system, line);
  rec.source_corrupted = true;
}

}  // namespace wss::parse_oracle
