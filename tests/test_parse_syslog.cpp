#include "parse/syslog.hpp"

#include <gtest/gtest.h>

namespace wss::parse {
namespace {

constexpr SystemId kSys = SystemId::kSpirit;

TEST(SyslogParse, FullLine) {
  const auto r = parse_syslog_line(
      kSys, "Feb 28 01:02:03 sn373 kernel: cciss: cmd has CHECK CONDITION",
      2006);
  EXPECT_TRUE(r.timestamp_valid);
  EXPECT_FALSE(r.source_corrupted);
  EXPECT_EQ(r.source, "sn373");
  EXPECT_EQ(r.program, "kernel");
  EXPECT_EQ(r.body, "cciss: cmd has CHECK CONDITION");
  EXPECT_EQ(util::to_civil(r.time).month, 2);
}

TEST(SyslogParse, ProgramWithPid) {
  const auto r = parse_syslog_line(
      kSys, "Jun  3 10:00:00 ln42 pbs_mom[1234]: task_check, cannot tm_reply",
      2005);
  EXPECT_EQ(r.program, "pbs_mom");
  EXPECT_EQ(r.body, "task_check, cannot tm_reply");
}

TEST(SyslogParse, NoProgramTag) {
  const auto r = parse_syslog_line(
      kSys, "Jun  3 10:00:00 tbird-admin1 Server Administrator: "
            "Instrumentation Service EventID: 1404",
      2005);
  EXPECT_TRUE(r.program.empty());
  EXPECT_EQ(r.body.rfind("Server Administrator:", 0), 0u);
}

TEST(SyslogParse, RawPreserved) {
  const std::string line = "Jun  3 10:00:00 h kernel: body";
  EXPECT_EQ(parse_syslog_line(kSys, line, 2005).raw, line);
}

TEST(SyslogParse, CorruptTimestampStillAttributes) {
  const auto r = parse_syslog_line(
      kSys, "JXn  3 10:00:00 sn12 kernel: hello", 2005);
  EXPECT_FALSE(r.timestamp_valid);
  EXPECT_EQ(r.source, "sn12");
}

TEST(SyslogParse, BadStampResyncSplitsOnlyFourFields) {
  // The resync split stops at the host: fields past it stay unsplit,
  // and the record's views still cover the whole line.
  const std::string line = "Jux 3\t10:00:00   sn7 kernel[9]: a  b\tc ";
  const std::string_view view = line;
  LogRecord r;
  ParseScratch scratch;
  parse_syslog_line_into(kSys, line, r, scratch);
  EXPECT_FALSE(r.timestamp_valid);
  EXPECT_FALSE(r.source_corrupted);
  EXPECT_EQ(r.source, "sn7");
  EXPECT_EQ(r.program, "kernel");
  EXPECT_EQ(r.body, "a  b\tc");
  EXPECT_EQ(scratch.fields,
            (std::vector<std::string_view>{"Jux", "3", "10:00:00", "sn7"}));
  // Views into the line, not copies.
  EXPECT_EQ(r.raw.data(), view.data());
  EXPECT_EQ(r.source.data(), view.data() + view.find("sn7"));
  EXPECT_EQ(r.body.data(), view.data() + view.find("a  b"));

  // Three tokens: no host to resync onto.
  const auto short_line = parse_syslog_line(kSys, "Jux 3 10:00:00", 2005);
  EXPECT_FALSE(short_line.timestamp_valid);
  EXPECT_TRUE(short_line.source_corrupted);
  EXPECT_TRUE(short_line.body.empty());
}

TEST(SyslogParse, CorruptHostFlagged) {
  const auto r = parse_syslog_line(
      kSys, "Jun  3 10:00:00 #@~^ kernel: hello", 2005);
  EXPECT_TRUE(r.source_corrupted);
  EXPECT_TRUE(r.source.empty());
}

TEST(SyslogParse, TruncatedLinesNeverThrow) {
  const char* cases[] = {"", "J", "Jun  3", "Jun  3 10:00:00",
                         "Jun  3 10:00:00 ", "Jun  3 10:00:00 host",
                         "Jun  3 10:00:00 host kern"};
  for (const char* line : cases) {
    EXPECT_NO_THROW({ (void)parse_syslog_line(kSys, line, 2005); }) << line;
  }
}

TEST(SyslogParse, SplicedGarbageNeverThrows) {
  const auto r = parse_syslog_line(
      kSys,
      "Jun  3 10:00:00 tb1 kernel: VIPKL(1): [create_mr] MM_bld_hh_mr "
      "failed (-253:VAPI_EAGSys/mosal_iobuf.c [126]: dump iobuf",
      2005);
  EXPECT_EQ(r.program, "kernel");
  EXPECT_FALSE(r.source_corrupted);
}

TEST(SyslogParse, HostnamePlausibility) {
  EXPECT_TRUE(plausible_hostname("sn373"));
  EXPECT_TRUE(plausible_hostname("tbird-admin1"));
  EXPECT_TRUE(plausible_hostname("R02-M1-N0"));
  EXPECT_FALSE(plausible_hostname(""));
  EXPECT_FALSE(plausible_hostname("-leading"));
  EXPECT_FALSE(plausible_hostname("has space"));
  EXPECT_FALSE(plausible_hostname("ctrl\x01char"));
  EXPECT_FALSE(plausible_hostname(std::string(80, 'a')));
}

TEST(SyslogParse, BinaryGarbageLine) {
  std::string junk = "\x01\x02\x03\xff\xfe random \x7f bytes";
  EXPECT_NO_THROW({
    const auto r = parse_syslog_line(kSys, junk, 2005);
    EXPECT_FALSE(r.timestamp_valid);
  });
}

}  // namespace
}  // namespace wss::parse
