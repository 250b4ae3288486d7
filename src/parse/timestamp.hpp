// Timestamp parsing for the three log formats in the study.
//
// syslog stamps ("Jun  3 15:42:50") have one-second granularity and no
// year; BG/L RAS stamps ("2005-06-03-15.42.50.363779") are microsecond
// granularity (Section 3.1). Parsers are corruption-tolerant: they
// return nullopt instead of throwing, because corrupted timestamps are
// one of the corruption modes the paper documents.
//
// Each stamp has a fixed layout, so each parser decodes it in one
// pass: it checks the length first, then the separator bytes at their
// fixed offsets, then reads each digit run with no per-digit bounds
// check. Bytes past the stamp are ignored (callers hand in the stamp's
// field or a longer prefix of the line). A stamp is rejected when it
// is short, when a separator or digit is wrong, or when a field is out
// of range (civil_fields_valid); nothing else rejects it.
//
// A syslog stamp is decoded without its year (parse_syslog_stamp), so
// the parse of a line needs nothing but the line; the reader that
// knows the year completes it with a YearClock.
#pragma once

#include <array>
#include <optional>
#include <string_view>

#include "util/time.hpp"

namespace wss::parse {

/// Parses "Mon dd HH:MM:SS" (syslog, RFC 3164 flavour) without its
/// year: `month` is the month its first three bytes name
/// (util::parse_month_abbrev, which the caller has decoded already).
/// Returns the stamp's offset from the start of that month, or nullopt
/// on any malformation (no month, out-of-range fields, truncation).
/// Feb 29 is accepted: only the year decides it (YearClock::at).
std::optional<util::TimeUs> parse_syslog_stamp(std::string_view s, int month);

/// Completes year-free syslog stamps. It caches the epoch start of each
/// month of the last year it was asked for, so a stamp costs one add
/// until the year changes.
class YearClock {
 public:
  /// The time `offset` (as parse_syslog_stamp returns it) into `month`
  /// of `year`, or nullopt when `year` has no such day: Feb 29 of a
  /// common year, or any day of a year outside 1..9999.
  std::optional<util::TimeUs> at(int year, int month, util::TimeUs offset);

 private:
  int year_ = 0;
  bool valid_ = false;  ///< year_ lies in 1..9999
  bool leap_ = false;
  std::array<util::TimeUs, 12> month_start_{};
};

/// parse_syslog_stamp completed with `base_year`: nullopt on any
/// malformation and on a day `base_year` lacks.
std::optional<util::TimeUs> parse_syslog_timestamp(std::string_view s,
                                                   int base_year);

/// Parses "YYYY-MM-DD-HH.MM.SS.ffffff" (BG/L RAS database export).
std::optional<util::TimeUs> parse_bgl_timestamp(std::string_view s);

/// Parses "YYYY-MM-DD HH:MM:SS" (ISO-ish, used by the Red Storm event
/// router path in our rendering).
std::optional<util::TimeUs> parse_iso_timestamp(std::string_view s);

/// Validates a civil date/time tuple (month/day ranges, leap years).
bool civil_fields_valid(int year, int month, int day, int hour, int minute,
                        int second);

}  // namespace wss::parse
