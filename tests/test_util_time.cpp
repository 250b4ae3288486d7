#include "util/time.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace wss::util {
namespace {

TEST(Time, EpochIsZero) {
  CivilTime ct;
  ct.year = 1970;
  ct.month = 1;
  ct.day = 1;
  EXPECT_EQ(to_time_us(ct), 0);
}

TEST(Time, KnownDate) {
  // 2005-06-03 00:00:00 UTC == 1117756800 (the BG/L start date).
  CivilTime ct{2005, 6, 3, 0, 0, 0, 0};
  EXPECT_EQ(to_time_us(ct), 1117756800LL * kUsPerSec);
}

TEST(Time, RoundTripMicros) {
  CivilTime ct{2006, 3, 19, 23, 59, 59, 123456};
  const TimeUs t = to_time_us(ct);
  EXPECT_EQ(to_civil(t), ct);
}

TEST(Time, NegativeTimesRoundTrip) {
  CivilTime ct{1969, 12, 31, 23, 59, 58, 999999};
  const TimeUs t = to_time_us(ct);
  EXPECT_LT(t, 0);
  EXPECT_EQ(to_civil(t), ct);
}

TEST(Time, DaysFromCivilKnownValues) {
  EXPECT_EQ(days_from_civil(1970, 1, 1), 0);
  EXPECT_EQ(days_from_civil(1970, 1, 2), 1);
  EXPECT_EQ(days_from_civil(1969, 12, 31), -1);
  EXPECT_EQ(days_from_civil(2000, 3, 1), 11017);
}

TEST(Time, CivilFromDaysInverse) {
  int y = 0;
  int m = 0;
  int d = 0;
  civil_from_days(0, y, m, d);
  EXPECT_EQ(y, 1970);
  EXPECT_EQ(m, 1);
  EXPECT_EQ(d, 1);
}

TEST(Time, LeapYears) {
  EXPECT_TRUE(is_leap_year(2000));
  EXPECT_TRUE(is_leap_year(2004));
  EXPECT_FALSE(is_leap_year(1900));
  EXPECT_FALSE(is_leap_year(2005));
  EXPECT_EQ(days_in_month(2004, 2), 29);
  EXPECT_EQ(days_in_month(2005, 2), 28);
  EXPECT_EQ(days_in_month(2005, 4), 30);
  EXPECT_EQ(days_in_month(2005, 12), 31);
  EXPECT_EQ(days_in_month(2005, 13), 0);
}

TEST(Time, MonthAbbrev) {
  EXPECT_EQ(month_abbrev(1), "Jan");
  EXPECT_EQ(month_abbrev(12), "Dec");
  EXPECT_EQ(month_abbrev(0), "???");
  EXPECT_EQ(parse_month_abbrev("Jun"), 6);
  EXPECT_EQ(parse_month_abbrev("jun"), 6);
  EXPECT_EQ(parse_month_abbrev("DEC"), 12);
  EXPECT_EQ(parse_month_abbrev("xyz"), 0);
  EXPECT_EQ(parse_month_abbrev("Ju"), 0);
}

TEST(Time, FormatSyslog) {
  const TimeUs t = to_time_us({2005, 6, 3, 15, 42, 50, 0});
  EXPECT_EQ(format_syslog(t), "Jun  3 15:42:50");
  const TimeUs t2 = to_time_us({2005, 11, 19, 1, 2, 3, 0});
  EXPECT_EQ(format_syslog(t2), "Nov 19 01:02:03");
}

TEST(Time, FormatBgl) {
  const TimeUs t = to_time_us({2005, 6, 3, 15, 42, 50, 363779});
  EXPECT_EQ(format_bgl(t), "2005-06-03-15.42.50.363779");
}

TEST(Time, FormatIso) {
  const TimeUs t = to_time_us({2006, 3, 19, 10, 0, 0, 0});
  EXPECT_EQ(format_iso(t), "2006-03-19 10:00:00");
}

// The appenders behind the format_* wrappers append, leaving what the
// buffer already holds in place.
TEST(Time, SyslogSingleDigitDayIsSpacePadded) {
  std::string out = "<";
  append_syslog(to_time_us({2005, 6, 3, 15, 42, 50, 0}), out);
  EXPECT_EQ(out, "<Jun  3 15:42:50");
  out = "<";
  append_syslog(to_time_us({2005, 6, 13, 15, 42, 50, 0}), out);
  EXPECT_EQ(out, "<Jun 13 15:42:50");
}

TEST(Time, BglMicrosKeepLeadingZeros) {
  std::string out = "<";
  append_bgl(to_time_us({2005, 6, 3, 15, 42, 50, 42}), out);
  EXPECT_EQ(out, "<2005-06-03-15.42.50.000042");
}

TEST(Time, StampsAtTheTurnOfTheYear) {
  const TimeUs last = to_time_us({2005, 12, 31, 23, 59, 59, 999999});
  EXPECT_EQ(format_syslog(last), "Dec 31 23:59:59");
  EXPECT_EQ(format_bgl(last), "2005-12-31-23.59.59.999999");
  EXPECT_EQ(format_iso(last), "2005-12-31 23:59:59");
  const TimeUs first = last + 1;
  EXPECT_EQ(format_syslog(first), "Jan  1 00:00:00");
  EXPECT_EQ(format_bgl(first), "2006-01-01-00.00.00.000000");
  EXPECT_EQ(format_iso(first), "2006-01-01 00:00:00");
}

TEST(Time, AppendPadded) {
  std::string out;
  append_padded(7, 3, out);
  EXPECT_EQ(out, "007");
  out.clear();
  append_padded(0, 4, out);
  EXPECT_EQ(out, "0000");
  out.clear();
  append_padded(123456, 2, out);  // wider than the width: written in full
  EXPECT_EQ(out, "123456");
  out.clear();
  append_uint(0, out);
  append_uint(18446744073709551615ull, out);
  EXPECT_EQ(out, "018446744073709551615");
}

TEST(Time, FormatDuration) {
  EXPECT_EQ(format_duration(1500), "1500us");
  EXPECT_EQ(format_duration(5 * kUsPerSec), "5.0s");
  EXPECT_EQ(format_duration(90 * kUsPerSec), "1.5m");
  EXPECT_EQ(format_duration(2 * kUsPerHour), "2.0h");
  EXPECT_EQ(format_duration(3 * kUsPerDay), "3.0d");
}

/// Property: to_civil(to_time_us(x)) == x for random valid civil
/// times across four decades.
TEST(TimeProperty, RoundTripRandom) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    CivilTime ct;
    ct.year = static_cast<int>(rng.uniform_i64(1980, 2040));
    ct.month = static_cast<int>(rng.uniform_i64(1, 12));
    ct.day = static_cast<int>(
        rng.uniform_i64(1, days_in_month(ct.year, ct.month)));
    ct.hour = static_cast<int>(rng.uniform_i64(0, 23));
    ct.minute = static_cast<int>(rng.uniform_i64(0, 59));
    ct.second = static_cast<int>(rng.uniform_i64(0, 59));
    ct.micros = static_cast<int>(rng.uniform_i64(0, 999999));
    EXPECT_EQ(to_civil(to_time_us(ct)), ct);
  }
}

/// Property: the stamp appenders write exactly what the printf formats
/// they replaced wrote, for random instants across 1970..2100.
TEST(TimeProperty, StampsMatchPrintf) {
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const TimeUs t = rng.uniform_i64(0, to_time_us({2100, 1, 1, 0, 0, 0, 0}));
    const CivilTime ct = to_civil(t);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.3s %2d %02d:%02d:%02d",
                  month_abbrev(ct.month).data(), ct.day, ct.hour, ct.minute,
                  ct.second);
    EXPECT_EQ(format_syslog(t), buf);
    std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d-%02d.%02d.%02d.%06d",
                  ct.year, ct.month, ct.day, ct.hour, ct.minute, ct.second,
                  ct.micros);
    EXPECT_EQ(format_bgl(t), buf);
    std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d", ct.year,
                  ct.month, ct.day, ct.hour, ct.minute, ct.second);
    EXPECT_EQ(format_iso(t), buf);
  }
}

/// Property: days_from_civil is strictly increasing day by day.
TEST(TimeProperty, MonotonicDays) {
  std::int64_t prev = days_from_civil(2004, 12, 31);
  for (int month = 1; month <= 12; ++month) {
    for (int day = 1; day <= days_in_month(2005, month); ++day) {
      const std::int64_t d = days_from_civil(2005, month, day);
      EXPECT_EQ(d, prev + 1);
      prev = d;
    }
  }
}

}  // namespace
}  // namespace wss::util
