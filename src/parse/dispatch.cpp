#include "parse/dispatch.hpp"

#include "parse/bgl.hpp"
#include "parse/redstorm.hpp"
#include "parse/syslog.hpp"

namespace wss::parse {

void parse_line_into(SystemId system, std::string_view line, int base_year,
                     LogRecord& rec, ParseScratch& scratch) {
  switch (system) {
    case SystemId::kBlueGeneL:
      parse_bgl_line_into(line, rec, scratch);
      return;
    case SystemId::kRedStorm:
      parse_redstorm_line_into(line, base_year, rec, scratch);
      return;
    case SystemId::kThunderbird:
    case SystemId::kSpirit:
    case SystemId::kLiberty:
      parse_syslog_line_into(system, line, base_year, rec, scratch);
      return;
  }
  rec.reset(system, line);
  rec.source_corrupted = true;
}

LogRecord parse_line(SystemId system, std::string_view line, int base_year) {
  LogRecord rec;
  ParseScratch scratch;
  parse_line_into(system, line, base_year, rec, scratch);
  return rec;
}

}  // namespace wss::parse
