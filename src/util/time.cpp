#include "util/time.hpp"

#include <array>
#include <cstdio>

#include "util/strings.hpp"

namespace wss::util {

namespace {

constexpr std::array<std::string_view, 12> kMonths = {
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

/// "YYYY-MM-DD" followed by `sep`, shared by the BG/L and ISO stamps.
/// Years are 1..9999 (the range this header supports).
void append_date(const CivilTime& ct, char sep, std::string& out) {
  append_padded(static_cast<std::uint64_t>(ct.year), 4, out);
  out.push_back('-');
  append_padded(static_cast<std::uint64_t>(ct.month), 2, out);
  out.push_back('-');
  append_padded(static_cast<std::uint64_t>(ct.day), 2, out);
  out.push_back(sep);
}

/// "HH<sep>MM<sep>SS".
void append_clock(const CivilTime& ct, char sep, std::string& out) {
  append_padded(static_cast<std::uint64_t>(ct.hour), 2, out);
  out.push_back(sep);
  append_padded(static_cast<std::uint64_t>(ct.minute), 2, out);
  out.push_back(sep);
  append_padded(static_cast<std::uint64_t>(ct.second), 2, out);
}

/// A stamp appender's output as a new string.
std::string stamp(void (*append)(TimeUs, std::string&), TimeUs t) {
  std::string s;
  append(t, s);
  return s;
}

}  // namespace

std::int64_t days_from_civil(int y, int m, int d) {
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);            // [0, 399]
  const unsigned doy = (153u * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;           // [0, 146096]
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

void civil_from_days(std::int64_t z, int& year, int& month, int& day) {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);           // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);           // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                                // [0, 11]
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;                        // [1, 31]
  const unsigned m = mp + (mp < 10 ? 3 : -9);                             // [1, 12]
  year = static_cast<int>(y + (m <= 2));
  month = static_cast<int>(m);
  day = static_cast<int>(d);
}

TimeUs to_time_us(const CivilTime& ct) {
  const std::int64_t days = days_from_civil(ct.year, ct.month, ct.day);
  return days * kUsPerDay + ct.hour * kUsPerHour + ct.minute * kUsPerMin +
         ct.second * kUsPerSec + ct.micros;
}

CivilTime to_civil(TimeUs t) {
  std::int64_t days = t / kUsPerDay;
  std::int64_t rem = t % kUsPerDay;
  if (rem < 0) {
    rem += kUsPerDay;
    days -= 1;
  }
  CivilTime ct;
  civil_from_days(days, ct.year, ct.month, ct.day);
  ct.hour = static_cast<int>(rem / kUsPerHour);
  rem %= kUsPerHour;
  ct.minute = static_cast<int>(rem / kUsPerMin);
  rem %= kUsPerMin;
  ct.second = static_cast<int>(rem / kUsPerSec);
  ct.micros = static_cast<int>(rem % kUsPerSec);
  return ct;
}

std::string_view month_abbrev(int month) {
  if (month < 1 || month > 12) return "???";
  return kMonths[static_cast<std::size_t>(month - 1)];
}

int parse_month_abbrev(std::string_view s) {
  if (s.size() < 3) return 0;
  switch (fold_key(s.substr(0, 3))) {
    case fold_key("jan"): return 1;
    case fold_key("feb"): return 2;
    case fold_key("mar"): return 3;
    case fold_key("apr"): return 4;
    case fold_key("may"): return 5;
    case fold_key("jun"): return 6;
    case fold_key("jul"): return 7;
    case fold_key("aug"): return 8;
    case fold_key("sep"): return 9;
    case fold_key("oct"): return 10;
    case fold_key("nov"): return 11;
    case fold_key("dec"): return 12;
    default: return 0;
  }
}

void append_syslog(TimeUs t, std::string& out) {
  const CivilTime ct = to_civil(t);
  out.append(month_abbrev(ct.month));
  out.push_back(' ');
  if (ct.day < 10) out.push_back(' ');
  append_uint(static_cast<std::uint64_t>(ct.day), out);
  out.push_back(' ');
  append_clock(ct, ':', out);
}

void append_bgl(TimeUs t, std::string& out) {
  const CivilTime ct = to_civil(t);
  append_date(ct, '-', out);
  append_clock(ct, '.', out);
  out.push_back('.');
  append_padded(static_cast<std::uint64_t>(ct.micros), 6, out);
}

void append_iso(TimeUs t, std::string& out) {
  const CivilTime ct = to_civil(t);
  append_date(ct, ' ', out);
  append_clock(ct, ':', out);
}

std::string format_syslog(TimeUs t) { return stamp(append_syslog, t); }
std::string format_bgl(TimeUs t) { return stamp(append_bgl, t); }
std::string format_iso(TimeUs t) { return stamp(append_iso, t); }

std::string format_duration(TimeUs us) {
  char buf[32];
  const double s = static_cast<double>(us) / static_cast<double>(kUsPerSec);
  if (us < kUsPerSec) {
    std::snprintf(buf, sizeof(buf), "%lldus", static_cast<long long>(us));
  } else if (us < kUsPerMin) {
    std::snprintf(buf, sizeof(buf), "%.1fs", s);
  } else if (us < kUsPerHour) {
    std::snprintf(buf, sizeof(buf), "%.1fm", s / 60.0);
  } else if (us < kUsPerDay) {
    std::snprintf(buf, sizeof(buf), "%.1fh", s / 3600.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fd", s / 86400.0);
  }
  return buf;
}

bool is_leap_year(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int days_in_month(int year, int month) {
  static constexpr std::array<int, 12> kDays = {31, 28, 31, 30, 31, 30,
                                                31, 31, 30, 31, 30, 31};
  if (month < 1 || month > 12) return 0;
  if (month == 2 && is_leap_year(year)) return 29;
  return kDays[static_cast<std::size_t>(month - 1)];
}

}  // namespace wss::util
