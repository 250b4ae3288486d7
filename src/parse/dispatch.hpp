// Per-system parser dispatch.
#pragma once

#include <string_view>
#include <vector>

#include "parse/record.hpp"
#include "parse/timestamp.hpp"

namespace wss::parse {

/// Reusable scratch for the zero-allocation parse path: the field
/// split a parser reads its header from, and the clock apply_year
/// completes syslog stamps with. One per reader/thread, like
/// match::MatchScratch; warm after the first few lines, then no parser
/// allocates on any path (pinned by tests/test_tag_alloc.cpp).
struct ParseScratch {
  std::vector<std::string_view> fields;
  YearClock clock;
};

/// Parses one line with the parser appropriate to `system`, then
/// completes it with `base_year` (apply_year): the year syslog stamps
/// lack. Callers that iterate multi-year logs adjust it at year
/// boundaries. Never throws on malformed input; quality is in the
/// record's flags. The record views `line` (see LogRecord): it is
/// valid only while the caller keeps `line` alive.
LogRecord parse_line(SystemId system, std::string_view line, int base_year);

/// The year-free parse, written into `rec` with `scratch` reused, so it
/// allocates nothing once the scratch is warm. It reads nothing but
/// the line, so any thread can run it: a syslog stamp is left pending
/// (LogRecord::year_pending) for apply_year, and `rec.month` reports
/// the month the line starts with. The hot-path form under
/// core::detail::read_line, which every route calls per line.
void parse_line_into(SystemId system, std::string_view line, LogRecord& rec,
                     ParseScratch& scratch);

/// Completes a record parse_line_into left pending with `year`; a no-op
/// on any other record. A stamp naming a day `year` lacks (Feb 29 of a
/// common year) is rejected, and the line is parsed again as a line
/// with a bad stamp: that resyncs its source on the space after the
/// stamp's third token, so it can differ from the pending record's.
void apply_year(LogRecord& rec, int year, ParseScratch& scratch);

}  // namespace wss::parse
