// Test-side log reader: maps a log file with logio::InputBuffer, splits
// it with simd::for_each_line, infers syslog years with
// logio::YearTracker and parses every line with parse_line_into into
// one reused record and scratch. It is the read loop the file tests
// and the stream oracle share; the engine's own copy of the same
// sequence is stream::StreamPipeline::ingest_line.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string_view>

#include "logio/input.hpp"
#include "logio/reader.hpp"
#include "parse/dispatch.hpp"
#include "simd/split.hpp"

namespace wss::testing_util {

/// What one read pass saw, beside the records it handed out.
struct ReadCounts {
  std::size_t lines = 0;
  std::size_t corrupted_sources = 0;
  std::size_t invalid_timestamps = 0;
  int year_rollovers = 0;
};

/// Hands `fn` each parsed record of `path` (plain or .wsc) in file
/// order. The record is reused and views the mapped input, so it is
/// valid only during the call: `fn` copies whatever it keeps.
template <typename Fn>
ReadCounts read_records(const std::filesystem::path& path,
                        parse::SystemId system, int start_year, Fn&& fn) {
  const logio::InputBuffer input = logio::InputBuffer::open(path);
  ReadCounts counts;
  logio::YearTracker years(start_year);
  parse::LogRecord rec;
  parse::ParseScratch scratch;
  simd::for_each_line(input.view(), [&](std::string_view line) {
    ++counts.lines;
    parse::parse_line_into(system, line, years.year_of(line), rec, scratch);
    if (rec.source_corrupted) ++counts.corrupted_sources;
    if (!rec.timestamp_valid) ++counts.invalid_timestamps;
    fn(rec);
  });
  counts.year_rollovers = years.rollovers();
  return counts;
}

}  // namespace wss::testing_util
