// The header decoders against the ones they replaced (tests/
// parse_oracle.hpp), over whole input spaces rather than samples:
//  - parse_month_abbrev on every string of up to three bytes over
//    [A-Za-z0-9 ], and on each with trailing bytes;
//  - parse_severity on every spelling in every mix of case, and on
//    every one-byte substitution, deletion and insertion of it;
//  - the three stamp parsers on every truncation (lengths 0..27) and
//    every single-byte substitution of valid stamps;
//  - the three source checks on every truncation and single-byte
//    substitution of plausible and implausible names.
// Each input is handed over in a heap block of exactly its size, so
// under AddressSanitizer a decoder that reads past its input's end
// faults rather than reading a std::string's terminator.
#include <gtest/gtest.h>

#include <cstddef>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "parse/bgl.hpp"
#include "parse/record.hpp"
#include "parse/redstorm.hpp"
#include "parse/syslog.hpp"
#include "parse/timestamp.hpp"
#include "parse_oracle.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace wss {
namespace {

/// Calls `fn` on every single-byte substitution of `s` (all 256 byte
/// values at every position) and on every prefix of `s`.
template <typename Fn>
void for_each_near(const std::string& s, Fn&& fn) {
  for (std::size_t n = 0; n <= s.size(); ++n) fn(s.substr(0, n));
  std::string m;
  for (std::size_t i = 0; i < s.size(); ++i) {
    for (int b = 0; b < 256; ++b) {
      m = s;
      m[i] = static_cast<char>(b);
      fn(m);
    }
  }
}

/// `s` in a heap block of exactly its size.
class Exact {
 public:
  explicit Exact(std::string_view s) : bytes_(s.begin(), s.end()) {}
  std::string_view view() const { return {bytes_.data(), bytes_.size()}; }

 private:
  std::vector<char> bytes_;
};

/// Counts inputs on which `got` and `want` differ and reports the first
/// few.
class Mismatches {
 public:
  template <typename T>
  void check(const std::string& input, const T& got, const T& want) {
    if (got == want) return;
    if (++count_ <= 10) ADD_FAILURE() << "differs on \"" << input << '"';
  }
  std::size_t count() const { return count_; }

 private:
  std::size_t count_ = 0;
};

TEST(ParseExhaustive, MonthAbbrevOnEveryShortAlphanumericString) {
  const std::string alphabet =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 ";
  Mismatches mismatches;
  int months = 0;
  const auto check = [&](const std::string& s) {
    const int got = util::parse_month_abbrev(Exact(s).view());
    mismatches.check(s, got, parse_oracle::parse_month_abbrev(s));
    if (s.size() == 3 && got != 0) ++months;
    mismatches.check(s + "x", util::parse_month_abbrev(Exact(s + "x").view()),
                     got);
  };
  check("");
  for (const char a : alphabet) {
    check(std::string{a});
    for (const char b : alphabet) {
      check(std::string{a, b});
      for (const char c : alphabet) check(std::string{a, b, c});
    }
  }
  EXPECT_EQ(mismatches.count(), 0u);
  EXPECT_EQ(months, 12 * 8);  // every month in all 2^3 mixes of case
}

TEST(ParseExhaustive, SeverityOnEverySpellingAndNearMiss) {
  const std::initializer_list<std::string> spellings = {
      "DEBUG", "INFO",     "NOTICE", "WARNING", "WARN",
      "ERROR", "ERR",      "SEVERE", "CRIT",    "CRITICAL",
      "ALERT", "EMERG",    "PANIC",  "FAILURE", "FATAL"};
  Mismatches mismatches;
  const auto check = [&](const std::string& s) {
    mismatches.check(s, parse::parse_severity(Exact(s).view()),
                     parse_oracle::parse_severity(s));
  };
  check("");
  for (const std::string& word : spellings) {
    // Every mix of case, all-upper and all-lower included.
    for (unsigned mask = 0; mask < (1u << word.size()); ++mask) {
      std::string s = word;
      for (std::size_t i = 0; i < s.size(); ++i) {
        if ((mask >> i & 1u) != 0) s[i] = static_cast<char>(s[i] | 0x20);
      }
      ASSERT_TRUE(parse::parse_severity(s).has_value()) << s;
      check(s);
    }
    for (const std::string& s : {word, util::to_lower(word)}) {
      for (std::size_t i = 0; i < s.size(); ++i) {
        check(s.substr(0, i) + s.substr(i + 1));  // one byte short
        for (int b = 0; b < 256; ++b) {
          std::string off = s;
          off[i] = static_cast<char>(b);
          check(off);  // one byte off
        }
      }
      for (std::size_t i = 0; i <= s.size(); ++i) {
        for (int b = 0; b < 256; ++b) {
          check(s.substr(0, i) + static_cast<char>(b) + s.substr(i));
        }
      }
    }
  }
  EXPECT_EQ(mismatches.count(), 0u);
}

TEST(ParseExhaustive, StampsOnEveryTruncationAndSubstitution) {
  // Valid stamps of each layout (leap days, both day paddings, the
  // year and clock extremes), each followed by trailing bytes so the
  // truncations run to length 27.
  const std::initializer_list<std::string> stamps = {
      "2005-06-03-15.42.50.363779 R02",
      "2004-02-29-23.59.59.999999 R",
      "0001-01-01-00.00.00.000000 x",
      "2006-03-19 10:00:00 ec_heartbeat_stop",
      "2004-02-29 00:00:00 ec_node_failed",
      "9999-12-31 23:59:59 ec_l0_sysd_failed",
      "Jun  3 15:42:50 ln1 kernel: x",
      "Dec 31 23:59:59 tbird-admin1 sshd",
      "Feb 29 12:00:00 sn325 kernel: x",
      "jan 01 00:00:00 host kernel: x"};
  Mismatches mismatches;
  const auto check = [&](const std::string& s) {
    const Exact exact(s);
    const std::string_view v = exact.view();
    mismatches.check(s, parse::parse_bgl_timestamp(v),
                     parse_oracle::parse_bgl_timestamp(s));
    mismatches.check(s, parse::parse_iso_timestamp(v),
                     parse_oracle::parse_iso_timestamp(s));
    for (const int year : {2004, 2005}) {
      mismatches.check(s, parse::parse_syslog_timestamp(v, year),
                       parse_oracle::parse_syslog_timestamp(s, year));
    }
  };
  int accepted = 0;
  for (const std::string& stamp : stamps) {
    const std::string s = stamp.substr(0, 27);
    ASSERT_EQ(s.size(), 27u) << stamp;
    if (parse::parse_bgl_timestamp(s) || parse::parse_iso_timestamp(s) ||
        parse::parse_syslog_timestamp(s, 2004)) {
      ++accepted;
    }
    for_each_near(s, check);
  }
  EXPECT_EQ(accepted, static_cast<int>(stamps.size()));
  EXPECT_EQ(mismatches.count(), 0u);
}

TEST(ParseExhaustive, SourceChecksOnEveryTruncationAndSubstitution) {
  const std::initializer_list<std::string> names = {
      "R02-M1-N0-C:J12-U11", "R63-M0-NF", "R0", "R02M1",
      "c12-3c1s4n0",         "login1",    "smw", "ddn_1",
      "tbird-admin1.sandia", "sn373",     "-x",  "Ln1",
      "R01234567890123456789012345678901234567-9"};
  Mismatches mismatches;
  const auto check = [&](const std::string& s) {
    const Exact exact(s);
    const std::string_view v = exact.view();
    mismatches.check(s, parse::plausible_bgl_location(v),
                     parse_oracle::plausible_bgl_location(s));
    mismatches.check(s, parse::plausible_hostname(v),
                     parse_oracle::plausible_hostname(s));
    mismatches.check(s, parse::plausible_redstorm_node(v),
                     parse_oracle::plausible_redstorm_node(s));
  };
  for (const std::string& name : names) for_each_near(name, check);
  // Names at and past each check's length limit.
  for (const char fill : {'A', 'a'}) {
    for (std::size_t n = 30; n <= 70; ++n) {
      std::string s(n, fill);
      check(s);
      s[0] = 'R';
      check(s);
      s[1] = '-';
      check(s);
    }
  }
  EXPECT_EQ(mismatches.count(), 0u);
}

}  // namespace
}  // namespace wss
