// Parsers for Red Storm's several logging paths (Section 3.1).
//
// 1. syslog path (login / Lustre I/O / management nodes, and the DDN
//    RAS machine): syslog lines extended with a "facility.severity"
//    token -- Red Storm is the only Sandia system configured to store
//    syslog severity (Section 3.2, Table 6):
//      "Mar 19 10:00:00 login1 kern.crit kernel: LustreError: ..."
//      "Mar 19 10:00:01 ddn1 local0.crit DMT: DMT_310 Command Aborted ..."
//
// 2. RAS event-router path (compute nodes, SeaStar NICs, hierarchical
//    management), delivered over reliable TCP to the SMW; events carry
//    an ISO stamp and src/svc node fields and *no severity analog*:
//      "2006-03-19 10:00:00 ec_heartbeat_stop src:::c1-0c0s3n2
//       svc:::c1-0c0s3n2 warn node heartbeat_fault"
#pragma once

#include <string_view>

#include "parse/dispatch.hpp"
#include "parse/record.hpp"

namespace wss::parse {

/// Parses one Red Storm line, auto-detecting the path by shape; a
/// syslog-path stamp is completed with `base_year` (apply_year).
LogRecord parse_redstorm_line(std::string_view line, int base_year);

/// Capacity-reusing, year-free form (see parse_line_into);
/// `reject_stamp` as parse_syslog_line_into's, for the syslog path.
void parse_redstorm_line_into(std::string_view line, LogRecord& rec,
                              ParseScratch& scratch,
                              bool reject_stamp = false);

/// True if `s` looks like a Cray XT node name ("c12-3c1s4n0") or an
/// administrative host.
bool plausible_redstorm_node(std::string_view s);

}  // namespace wss::parse
