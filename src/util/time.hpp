// Civil-time utilities.
//
// The five systems in the study timestamp messages differently: syslog
// lines carry a one-second-granularity "Mon dd hh:mm:ss" stamp with no
// year; BG/L RAS records carry microsecond-granularity ISO-style stamps.
// Everything inside the library is therefore carried as microseconds
// since the Unix epoch (UTC), and this header provides the conversions.
//
// The civil <-> day-count algorithms are the classic Howard Hinnant
// public-domain formulas, valid over the whole int64 microsecond range
// we care about (years 1..9999).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace wss::util {

/// Microseconds since the Unix epoch, UTC. The library-wide time type.
using TimeUs = std::int64_t;

inline constexpr TimeUs kUsPerSec = 1'000'000;
inline constexpr TimeUs kUsPerMin = 60 * kUsPerSec;
inline constexpr TimeUs kUsPerHour = 60 * kUsPerMin;
inline constexpr TimeUs kUsPerDay = 24 * kUsPerHour;

/// A broken-down UTC civil time.
struct CivilTime {
  int year = 1970;   ///< e.g. 2005
  int month = 1;     ///< 1..12
  int day = 1;       ///< 1..31
  int hour = 0;      ///< 0..23
  int minute = 0;    ///< 0..59
  int second = 0;    ///< 0..59 (no leap seconds)
  int micros = 0;    ///< 0..999999

  friend bool operator==(const CivilTime&, const CivilTime&) = default;
};

/// Days since the epoch for a civil date (Hinnant's days_from_civil).
std::int64_t days_from_civil(int year, int month, int day);

/// Inverse of days_from_civil.
void civil_from_days(std::int64_t days, int& year, int& month, int& day);

/// Converts a civil time to microseconds since the epoch.
TimeUs to_time_us(const CivilTime& ct);

/// Converts microseconds since the epoch to a civil time.
CivilTime to_civil(TimeUs t);

/// Three-letter English month abbreviation, capitalized ("Jan".."Dec").
/// `month` is 1-based; out-of-range returns "???".
std::string_view month_abbrev(int month);

/// Parses a three-letter month abbreviation (case-insensitive) from
/// the first three bytes of `s`; later bytes are ignored. Returns
/// 1..12, or 0 if unrecognized.
int parse_month_abbrev(std::string_view s);

/// Appends a syslog stamp: "Jan  2 03:04:05" (day space-padded, no
/// year). Like the other appenders below, it writes digits directly
/// and allocates nothing once `out` has the capacity.
void append_syslog(TimeUs t, std::string& out);

/// Appends a BG/L RAS database stamp: "2005-06-03-15.42.50.363779".
void append_bgl(TimeUs t, std::string& out);

/// Appends an ISO-8601 stamp: "2005-06-03 15:42:50" (second
/// granularity).
void append_iso(TimeUs t, std::string& out);

/// The three stamps above as new strings.
std::string format_syslog(TimeUs t);
std::string format_bgl(TimeUs t);
std::string format_iso(TimeUs t);

/// Formats a duration in microseconds as a short human string, e.g.
/// "5s", "3.2m", "1.5h", "2.3d".
std::string format_duration(TimeUs us);

/// True if `year` is a leap year in the proleptic Gregorian calendar.
bool is_leap_year(int year);

/// Number of days in `month` (1..12) of `year`; 0 for invalid month.
int days_in_month(int year, int month);

}  // namespace wss::util
