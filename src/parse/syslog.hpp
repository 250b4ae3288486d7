// Parser for syslog-ng collected logs (Thunderbird, Spirit, Liberty).
//
// Line shape:
//   "Jun  3 15:42:50 sn373 kernel: cciss: cmd ... CHECK CONDITION ..."
//   "Jun  3 15:42:50 ln101 pbs_mom[2345]: task_check, cannot tm_reply"
//
// The parser never throws on malformed input: the paper documents
// truncated, partially overwritten, and mis-timestamped messages, and
// misattributed sources (Figure 2(b)'s corrupted cluster). Quality is
// reported through LogRecord's flags instead.
#pragma once

#include <string_view>

#include "parse/dispatch.hpp"
#include "parse/record.hpp"

namespace wss::parse {

/// Parses one syslog line and completes its stamp with `base_year`
/// (apply_year). The returned record always carries `raw` = `line`.
LogRecord parse_syslog_line(SystemId system, std::string_view line,
                            int base_year);

/// Capacity-reusing, year-free form (see parse_line_into): the stamp is
/// left pending. `reject_stamp` parses the line as one whose stamp is
/// rejected, whatever its bytes: apply_year's second parse of a stamp
/// naming a day its year lacks.
void parse_syslog_line_into(SystemId system, std::string_view line,
                            LogRecord& rec, ParseScratch& scratch,
                            bool reject_stamp = false);

/// True if `s` looks like a legitimate hostname: nonempty, starts with
/// an alphanumeric, and contains only [A-Za-z0-9._-]. The corrupted-
/// source cluster in Figure 2(b) is exactly the lines failing this.
bool plausible_hostname(std::string_view s);

}  // namespace wss::parse
