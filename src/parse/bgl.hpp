// Parser for Blue Gene/L RAS database records.
//
// BG/L logging goes through MMCS into a DB2 RAS database; records are
// exported as lines of the shape (modelled on the public BG/L corpus):
//
//   <epoch> <YYYY.MM.DD> <location> <YYYY-MM-DD-HH.MM.SS.ffffff>
//       <location> RAS <FACILITY> <SEVERITY> <body...>
//
// e.g.
//   1117838570 2005.06.03 R02-M1-N0-C:J12-U11
//       2005-06-03-15.42.50.363779 R02-M1-N0-C:J12-U11 RAS KERNEL
//       INFO instruction cache parity error corrected
//
// Time granularity is microseconds (Section 3.1). The severity field
// is the one Table 5 tabulates.
#pragma once

#include <string_view>

#include "parse/dispatch.hpp"
#include "parse/record.hpp"

namespace wss::parse {

/// Fields a BG/L parse splits: the 8 header fields and the body's first
/// token (a line with fewer is corrupt).
inline constexpr std::size_t kBglHeaderFields = 9;

/// Parses one BG/L RAS line; never throws. `raw` is always the line.
/// The record views `line`.
LogRecord parse_bgl_line(std::string_view line);

/// Capacity-reusing form (see parse_line_into).
void parse_bgl_line_into(std::string_view line, LogRecord& rec,
                         ParseScratch& scratch);

/// True if `s` looks like a BG/L location code (e.g. "R02-M1-N0-C:J12-U11"
/// or "R63-M0-NF"). Used to flag corrupted source fields.
bool plausible_bgl_location(std::string_view s);

}  // namespace wss::parse
