#include "parse/dispatch.hpp"

#include "parse/bgl.hpp"
#include "parse/redstorm.hpp"
#include "parse/syslog.hpp"

namespace wss::parse {

namespace {

void parse_into(SystemId system, std::string_view line, LogRecord& rec,
                ParseScratch& scratch, bool reject_stamp) {
  switch (system) {
    case SystemId::kBlueGeneL:
      parse_bgl_line_into(line, rec, scratch);
      return;
    case SystemId::kRedStorm:
      parse_redstorm_line_into(line, rec, scratch, reject_stamp);
      return;
    case SystemId::kThunderbird:
    case SystemId::kSpirit:
    case SystemId::kLiberty:
      parse_syslog_line_into(system, line, rec, scratch, reject_stamp);
      return;
  }
  rec.reset(system, line);
  rec.source_corrupted = true;
}

}  // namespace

void parse_line_into(SystemId system, std::string_view line, LogRecord& rec,
                     ParseScratch& scratch) {
  parse_into(system, line, rec, scratch, /*reject_stamp=*/false);
}

void apply_year(LogRecord& rec, int year, ParseScratch& scratch) {
  if (!rec.year_pending) return;
  rec.year_pending = false;
  if (const auto t = scratch.clock.at(year, rec.month, rec.time)) {
    rec.time = *t;
    return;
  }
  parse_into(rec.system, rec.raw, rec, scratch, /*reject_stamp=*/true);
}

LogRecord parse_line(SystemId system, std::string_view line, int base_year) {
  LogRecord rec;
  ParseScratch scratch;
  parse_line_into(system, line, rec, scratch);
  apply_year(rec, base_year, scratch);
  return rec;
}

}  // namespace wss::parse
