// parse_line_into, completed with apply_year, against the decoders it
// replaced (tests/parse_oracle.hpp), on generated logs of all five
// systems (seeds 1 and 7, corruption on) and on seeded mutations of
// their headers: truncation at every header byte, a flipped bit and a
// substituted byte at every header position, case changes of every
// letter and of the whole header, and tabs in place of spaces. Every
// LogRecord field must equal the oracle's, views at the same offsets
// into the line, and the month the parse reports must be the one the
// oracle's year inference decodes from the line's first three bytes.
// The oracle's parse takes the year; the year comes from a
// logio::YearTracker fed with the oracle's month decode. Hand-made logs
// pin the year's two traps: a Feb 29 stamp on both sides of a Dec ->
// Jan rollover, and a rejected stamp that still advances the year.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "logio/reader.hpp"
#include "parse/dispatch.hpp"
#include "parse_oracle.hpp"
#include "sim/generator.hpp"
#include "sim/spec.hpp"
#include "stream/pipeline.hpp"
#include "util/strings.hpp"

namespace wss {
namespace {

using parse::LogRecord;
using parse::SystemId;
using stream::StreamSnapshot;

/// Every n-th generated line is mutated; all of them are parsed as is.
constexpr std::size_t kMutateEvery = 8;

/// Bytes a substitution draws from: the header's own alphabet, the
/// separators, whitespace, and bytes no header holds.
constexpr std::string_view kSubstitutes =
    "0123456789-.: \tRrMmNnCcJjUuAaZz_[]\x01\x7f\x80\xff";

/// "" when `a` and `b` agree on every field, else the first difference.
/// A non-empty view must also start at the same offset into `line`.
std::string first_difference(const LogRecord& a, const LogRecord& b,
                             std::string_view line) {
  const auto view_differs = [&](std::string_view x, std::string_view y) {
    if (x != y) return true;
    return !x.empty() && x.data() - line.data() != y.data() - line.data();
  };
  if (a.time != b.time) return "time";
  if (a.system != b.system) return "system";
  if (a.severity != b.severity) return "severity";
  if (view_differs(a.source, b.source)) return "source";
  if (view_differs(a.program, b.program)) return "program";
  if (view_differs(a.body, b.body)) return "body";
  if (view_differs(a.raw, b.raw)) return "raw";
  if (a.timestamp_valid != b.timestamp_valid) return "timestamp_valid";
  if (a.source_corrupted != b.source_corrupted) return "source_corrupted";
  return "";
}

/// Where a line's header ends: past its 9th field (BG/L's header and
/// first body token; syslog's stamp, host, tag and body start) or past
/// its "src:::" field (Red Storm's event router), whichever is later.
std::size_t header_end(std::string_view line) {
  std::vector<std::string_view> fields;
  util::split_fields(line, fields, 9);
  std::size_t end = fields.empty()
                        ? line.size()
                        : static_cast<std::size_t>(fields.back().data() +
                                                   fields.back().size() -
                                                   line.data());
  const std::size_t src = line.find("src:::");
  if (src != std::string_view::npos) {
    std::size_t src_end = src;
    while (src_end < line.size() && !util::is_space(line[src_end])) ++src_end;
    end = std::max(end, src_end);
  }
  return end;
}

/// The month the year inference reads: the oracle's decode of the
/// line's first three bytes.
int oracle_month(std::string_view line) {
  return line.size() >= 3 ? parse_oracle::parse_month_abbrev(line.substr(0, 3))
                          : 0;
}

/// Parses lines with both parsers and counts what they saw.
class Differ {
 public:
  explicit Differ(SystemId system) : system_(system) {}

  void check(std::string_view line, int year) {
    parse::parse_line_into(system_, line, got_, scratch_);
    const bool month_differs = got_.month != oracle_month(line);
    parse::apply_year(got_, year, scratch_);
    parse_oracle::parse_line_into(system_, line, year, want_, oracle_scratch_);
    ++parsed_;
    if (want_.timestamp_valid) ++valid_stamps_;
    if (want_.source_corrupted) ++corrupted_sources_;
    const std::string diff =
        month_differs ? "month" : first_difference(got_, want_, line);
    if (!diff.empty() && ++mismatches_ <= 10) {
      ADD_FAILURE() << parse::system_short_name(system_) << " year " << year
                    << ": " << diff << " differs on \"" << line << '"';
    }
  }

  std::size_t parsed() const { return parsed_; }
  std::size_t valid_stamps() const { return valid_stamps_; }
  std::size_t corrupted_sources() const { return corrupted_sources_; }
  std::size_t mismatches() const { return mismatches_; }

 private:
  SystemId system_;
  LogRecord got_;
  LogRecord want_;
  parse::ParseScratch scratch_;
  parse::ParseScratch oracle_scratch_;
  std::size_t parsed_ = 0;
  std::size_t valid_stamps_ = 0;
  std::size_t corrupted_sources_ = 0;
  std::size_t mismatches_ = 0;
};

/// Parses every seeded mutation of `line`'s header with both parsers.
void check_mutations(Differ& d, const std::string& line, int year,
                     std::mt19937_64& rng) {
  const std::size_t end = header_end(line);
  std::string m;
  for (std::size_t i = 0; i <= end; ++i) {
    d.check(std::string_view(line).substr(0, i), year);
  }
  for (std::size_t i = 0; i < end; ++i) {
    m = line;
    m[i] = static_cast<char>(m[i] ^ (1u << (rng() % 8)));
    d.check(m, year);
    m[i] = kSubstitutes[rng() % kSubstitutes.size()];
    d.check(m, year);
    const auto c = static_cast<unsigned char>(line[i]);
    if (std::isalpha(c) != 0) {
      m[i] = static_cast<char>(c ^ 0x20);
      d.check(m, year);
    } else if (c == ' ') {
      m[i] = '\t';
      d.check(m, year);
    }
  }
  for (const bool upper : {false, true}) {
    m = line;
    for (std::size_t i = 0; i < end; ++i) {
      const auto c = static_cast<unsigned char>(m[i]);
      m[i] = static_cast<char>(upper ? std::toupper(c) : std::tolower(c));
    }
    d.check(m, year);
  }
  m = line;
  for (std::size_t i = 0; i < end; ++i) {
    if (m[i] == ' ') m[i] = '\t';
  }
  d.check(m, year);
}

class ParseDifferential
    : public ::testing::TestWithParam<std::tuple<SystemId, std::uint64_t>> {};

TEST_P(ParseDifferential, EveryFieldMatchesTheOracle) {
  const auto [system, seed] = GetParam();
  sim::SimOptions opts;
  opts.seed = seed;
  opts.category_cap = 300;
  opts.chatter_events = 3000;
  opts.inject_corruption = true;
  const sim::Simulator simulator(system, opts);

  Differ lines(system);
  Differ mutants(system);
  logio::YearTracker years(sim::system_spec(system).start_date.year);
  std::mt19937_64 rng(seed);
  std::size_t n = 0;
  simulator.for_each_line([&](std::string_view line) {
    const int year = years.on_month(oracle_month(line));
    lines.check(line, year);
    if (n++ % kMutateEvery == 0) {
      check_mutations(mutants, std::string(line), year, rng);
    }
  });

  EXPECT_EQ(lines.mismatches(), 0u);
  EXPECT_EQ(mutants.mismatches(), 0u);
  // The logs and mutations reach both sides of the decoders.
  EXPECT_GT(lines.parsed(), 1000u);
  EXPECT_GT(lines.valid_stamps(), 0u);
  EXPECT_GT(mutants.valid_stamps(), 0u);
  EXPECT_LT(mutants.valid_stamps(), mutants.parsed());
  EXPECT_GT(mutants.corrupted_sources(), 0u);
  EXPECT_LT(mutants.corrupted_sources(), mutants.parsed());
}

/// A hand-made log read the engine's way -- the year-free parse, a
/// tracker fed the month the parse reports, apply_year -- beside the
/// oracle's way, whose tracker reads the oracle's month decode and whose
/// parse takes the year. Every record must agree; each line's year and
/// record are kept for the caller's own expectations.
struct YearWalk {
  std::vector<int> years;
  std::vector<LogRecord> records;
  int rollovers = 0;
};

YearWalk walk_years(SystemId system, int start_year,
                    const std::vector<std::string>& lines) {
  YearWalk walk;
  logio::YearTracker engine_years(start_year);
  logio::YearTracker oracle_years(start_year);
  parse::ParseScratch scratch;
  parse::ParseScratch oracle_scratch;
  for (const std::string& line : lines) {
    LogRecord got;
    parse::parse_line_into(system, line, got, scratch);
    const int year = engine_years.on_month(got.month);
    parse::apply_year(got, year, scratch);
    LogRecord want;
    const int oracle_year = oracle_years.on_month(oracle_month(line));
    parse_oracle::parse_line_into(system, line, oracle_year, want,
                                  oracle_scratch);
    EXPECT_EQ(year, oracle_year) << line;
    EXPECT_EQ(first_difference(got, want, line), "") << line;
    walk.years.push_back(year);
    walk.records.push_back(got);
  }
  EXPECT_EQ(engine_years.rollovers(), oracle_years.rollovers());
  walk.rollovers = engine_years.rollovers();
  return walk;
}

/// The stream engine's counts over the same lines: its reducer applies
/// the year on its own path (core::detail::reduce_read).
StreamSnapshot stream_counts(SystemId system, int start_year,
                             const std::vector<std::string>& lines) {
  stream::StreamPipelineOptions opts;
  opts.strict_order = false;
  opts.start_year = start_year;
  stream::StreamPipeline pipeline(system, opts);
  for (const std::string& line : lines) pipeline.ingest_line(line);
  pipeline.finish();
  return pipeline.snapshot();
}

// Feb 29 exists only in a leap year, so its stamp is decided after the
// year: valid on the leap side of a Dec -> Jan rollover, rejected on
// the common side. A rejected stamp resyncs the source on the space
// after the stamp's third token, so a byte glued to the stamp
// ("10:00:00x") makes the source "ln1" in a common year and "x" in a
// leap year: the parse must run again once the year rejects the day.
TEST(ParseYear, Feb29OnBothSidesOfARollover) {
  const std::vector<std::string> lines = {
      "Feb 29 10:00:00 ln1 kernel: before the rollover",
      "Feb 29 10:00:00x ln1 kernel: a byte glued to the stamp",
      "Dec 31 23:59:59 ln2 kernel: the last second",
      "Jan  1 00:00:00 ln3 kernel: the new year",
      "Feb 29 10:00:00 ln1 kernel: after the rollover",
      "Feb 29 10:00:00x ln1 kernel: a byte glued to the stamp",
  };
  for (const SystemId system : {SystemId::kLiberty, SystemId::kRedStorm}) {
    for (const int start : {2003, 2004}) {
      SCOPED_TRACE(std::string(parse::system_short_name(system)) + " " +
                   std::to_string(start));
      const YearWalk walk = walk_years(system, start, lines);
      EXPECT_EQ(walk.rollovers, 1);
      std::uint64_t invalid = 0;
      for (std::size_t i : {0u, 1u, 4u, 5u}) {
        const bool leap = util::is_leap_year(walk.years[i]);
        EXPECT_EQ(walk.records[i].timestamp_valid, leap) << lines[i];
        if (!leap) ++invalid;
      }
      EXPECT_EQ(walk.records[1].source, start == 2004 ? "x" : "ln1");
      EXPECT_EQ(walk.records[5].source, start == 2004 ? "ln1" : "x");
      EXPECT_EQ(invalid, 2u);

      const StreamSnapshot snap = stream_counts(system, start, lines);
      EXPECT_EQ(snap.invalid_timestamp_lines, invalid);
      EXPECT_EQ(snap.year_rollovers, 1);
    }
  }
}

// A line that starts with a month name advances the year inference even
// when its stamp is rejected: "Dec 45" is no day, yet the "Jan" after it
// is a rollover.
TEST(ParseYear, RejectedStampStillAdvancesTheYear) {
  const std::vector<std::string> lines = {
      "Jun 15 12:00:00 ln1 kernel: mid-year",
      "Dec 45 12:00:00 ln1 kernel: no such day",
      "Jan  2 12:00:00 ln1 kernel: the next year",
  };
  for (const SystemId system : {SystemId::kLiberty, SystemId::kSpirit}) {
    SCOPED_TRACE(parse::system_short_name(system));
    const YearWalk walk = walk_years(system, 2005, lines);
    EXPECT_FALSE(walk.records[1].timestamp_valid);
    EXPECT_EQ(walk.records[1].month, 12);
    ASSERT_TRUE(walk.records[2].timestamp_valid);
    EXPECT_EQ(util::to_civil(walk.records[2].time).year, 2006);
    EXPECT_EQ(walk.rollovers, 1);
    EXPECT_EQ(stream_counts(system, 2005, lines).year_rollovers, 1);
  }
}


INSTANTIATE_TEST_SUITE_P(
    FiveSystemsTwoSeeds, ParseDifferential,
    ::testing::Combine(::testing::ValuesIn(parse::kAllSystems),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{7})),
    [](const auto& info) {
      return std::string(parse::system_short_name(std::get<0>(info.param))) +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace wss
