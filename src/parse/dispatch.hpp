// Per-system parser dispatch.
#pragma once

#include <string_view>
#include <vector>

#include "parse/record.hpp"

namespace wss::parse {

/// Reusable scratch for the zero-allocation parse path: the field
/// split a parser reads its header from. One per reader/thread, like
/// match::MatchScratch; warm after the first few lines, then no parser
/// allocates on any path (pinned by tests/test_tag_alloc.cpp).
struct ParseScratch {
  std::vector<std::string_view> fields;
};

/// Parses one line with the parser appropriate to `system`.
/// `base_year` supplies the year for syslog stamps (which lack one);
/// callers that iterate multi-year logs adjust it at year boundaries.
/// Never throws on malformed input; quality is in the record's flags.
/// The record views `line` (see LogRecord): it is valid only while
/// the caller keeps `line` alive.
LogRecord parse_line(SystemId system, std::string_view line, int base_year);

/// Same result, written into `rec` with `scratch` reused, so the
/// parse allocates nothing once the scratch is warm. The hot-path
/// form under core::detail::reduce_line, which every route calls per
/// line.
void parse_line_into(SystemId system, std::string_view line, int base_year,
                     LogRecord& rec, ParseScratch& scratch);

}  // namespace wss::parse
