#include "parse/bgl.hpp"

#include <gtest/gtest.h>

#include "util/strings.hpp"

namespace wss::parse {
namespace {

const char* kLine =
    "1117838570 2005.06.03 R02-M1-N0-C:J12-U11 2005-06-03-15.42.50.363779 "
    "R02-M1-N0-C:J12-U11 RAS KERNEL INFO instruction cache parity error "
    "corrected";

TEST(BglParse, FullRecord) {
  const auto r = parse_bgl_line(kLine);
  EXPECT_TRUE(r.timestamp_valid);
  EXPECT_EQ(r.source, "R02-M1-N0-C:J12-U11");
  EXPECT_EQ(r.program, "KERNEL");
  EXPECT_EQ(r.severity, Severity::kInfo);
  EXPECT_EQ(r.body, "instruction cache parity error corrected");
  EXPECT_EQ(util::to_civil(r.time).micros, 363779);
}

TEST(BglParse, SeverityVariants) {
  const auto mk = [](const char* sev) {
    return std::string("1 2005.06.03 R00-M0-N0 2005-06-03-00.00.00.000000 "
                       "R00-M0-N0 RAS APP ") +
           sev + " body text";
  };
  EXPECT_EQ(parse_bgl_line(mk("FATAL")).severity, Severity::kFatal);
  EXPECT_EQ(parse_bgl_line(mk("FAILURE")).severity, Severity::kFailure);
  EXPECT_EQ(parse_bgl_line(mk("SEVERE")).severity, Severity::kSevere);
  EXPECT_EQ(parse_bgl_line(mk("ERROR")).severity, Severity::kError);
  EXPECT_EQ(parse_bgl_line(mk("WARNING")).severity, Severity::kWarning);
  EXPECT_EQ(parse_bgl_line(mk("bogus")).severity, Severity::kNone);
}

TEST(BglParse, FallsBackToEpochOnBadStamp) {
  const auto r = parse_bgl_line(
      "1117838570 2005.06.03 R02-M1-N0 garbage-stamp R02-M1-N0 RAS KERNEL "
      "INFO body");
  EXPECT_TRUE(r.timestamp_valid);
  EXPECT_EQ(r.time, 1117838570LL * util::kUsPerSec);
}

TEST(BglParse, ShortLineIsCorrupt) {
  const auto r = parse_bgl_line("too short");
  EXPECT_TRUE(r.source_corrupted);
  EXPECT_FALSE(r.timestamp_valid);
}

TEST(BglParse, SplitStopsAtNineFields) {
  // Eight header fields plus one body token is the shortest valid line;
  // the split stops there, and the body still runs to the line's end.
  const std::string nine =
      "1 2005.06.03 R00-M0-N0 2005-06-03-00.00.00.000000 R00-M0-N0 RAS "
      "KERNEL FATAL  body  and\tmore  ";
  LogRecord r;
  ParseScratch scratch;
  parse_bgl_line_into(nine, r, scratch);
  EXPECT_FALSE(r.source_corrupted);
  EXPECT_TRUE(r.timestamp_valid);
  EXPECT_EQ(r.source, "R00-M0-N0");
  EXPECT_EQ(r.program, "KERNEL");
  EXPECT_EQ(r.severity, Severity::kFatal);
  EXPECT_EQ(r.body, "body  and\tmore");
  ASSERT_EQ(scratch.fields.size(), kBglHeaderFields);
  EXPECT_EQ(scratch.fields.back(), "body");
  // The record views the line.
  EXPECT_EQ(r.raw.data(), nine.data());
  EXPECT_EQ(r.program.data(), nine.data() + nine.find("KERNEL"));

  // Exactly eight fields: no body token, so the line is corrupt, and
  // the whole trimmed line is the body.
  const std::string eight =
      "  1 2005.06.03 R00-M0-N0 2005-06-03-00.00.00.000000 R00-M0-N0 RAS "
      "KERNEL FATAL \t";
  parse_bgl_line_into(eight, r, scratch);
  EXPECT_TRUE(r.source_corrupted);
  EXPECT_FALSE(r.timestamp_valid);
  EXPECT_TRUE(r.source.empty());
  EXPECT_EQ(r.body, util::trim(eight));
  EXPECT_EQ(scratch.fields.size(), 8u);
}

TEST(BglParse, BadLocationFlagged) {
  const auto r = parse_bgl_line(
      "1117838570 2005.06.03 #=garbage 2005-06-03-15.42.50.363779 x RAS "
      "KERNEL INFO body");
  EXPECT_TRUE(r.source_corrupted);
  EXPECT_TRUE(r.timestamp_valid);  // timestamp field is intact
}

TEST(BglParse, LocationPlausibility) {
  EXPECT_TRUE(plausible_bgl_location("R02-M1-N0-C:J12-U11"));
  EXPECT_TRUE(plausible_bgl_location("R63-M0-NF"));
  EXPECT_TRUE(plausible_bgl_location("R00-SVC"));
  EXPECT_FALSE(plausible_bgl_location("sn373"));
  EXPECT_FALSE(plausible_bgl_location("R"));
  EXPECT_FALSE(plausible_bgl_location("R02 M1"));
  EXPECT_FALSE(plausible_bgl_location(""));
}

TEST(BglParse, NeverThrowsOnGarbage) {
  EXPECT_NO_THROW({ (void)parse_bgl_line(""); });
  EXPECT_NO_THROW({ (void)parse_bgl_line("\x01\x02 \xff garbage here x y z"); });
  EXPECT_NO_THROW({ (void)parse_bgl_line("1 2 3 4 5 6 7 8 9 10 11"); });
}

}  // namespace
}  // namespace wss::parse
