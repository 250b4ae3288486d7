#include "parse/bgl.hpp"

#include "parse/timestamp.hpp"
#include "util/strings.hpp"

namespace wss::parse {

namespace {

constexpr auto kLocationBytes =
    util::byte_set("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-:");

}  // namespace

bool plausible_bgl_location(std::string_view s) {
  // Location codes are 'R' + rack digits, then dash-separated
  // components of uppercase letters and digits, optionally with a
  // ':'-separated chip part: R02-M1-N0-C:J12-U11.
  if (s.size() < 3 || s.size() > 40 || s[0] != 'R') return false;
  bool dash = false;
  for (const char c : s) {
    if (!kLocationBytes[static_cast<unsigned char>(c)]) return false;
    dash |= c == '-';
  }
  return dash;
}

void parse_bgl_line_into(std::string_view line, LogRecord& rec,
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

LogRecord parse_bgl_line(std::string_view line) {
  LogRecord rec;
  ParseScratch scratch;
  parse_bgl_line_into(line, rec, scratch);
  return rec;
}

}  // namespace wss::parse
