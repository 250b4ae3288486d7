#include "parse/timestamp.hpp"

#include "util/strings.hpp"

namespace wss::parse {

namespace {

/// The value of the `N` decimal digits at `p`, or -1 if one of them is
/// not a digit. The loop has a constant trip count, so it unrolls.
template <int N>
int digit_run(const char* p) {
  unsigned v = 0;
  unsigned bad = 0;
  for (int i = 0; i < N; ++i) {
    const unsigned d = static_cast<unsigned char>(p[i]) - unsigned{'0'};
    bad |= static_cast<unsigned>(d > 9);
    v = v * 10 + d;
  }
  return bad != 0 ? -1 : static_cast<int>(v);
}

/// "YYYY-MM-DD" then `sep`, the head that the BG/L and ISO stamps share;
/// `s` has at least 11 bytes. False on a misplaced separator or a
/// non-digit.
bool parse_date(std::string_view s, char sep, util::CivilTime& ct) {
  if (s[4] != '-' || s[7] != '-' || s[10] != sep) return false;
  ct.year = digit_run<4>(s.data());
  ct.month = digit_run<2>(s.data() + 5);
  ct.day = digit_run<2>(s.data() + 8);
  return (ct.year | ct.month | ct.day) >= 0;
}

/// "HH<sep>MM<sep>SS" at `p`, which has at least 8 bytes.
bool parse_clock(const char* p, char sep, util::CivilTime& ct) {
  if (p[2] != sep || p[5] != sep) return false;
  ct.hour = digit_run<2>(p);
  ct.minute = digit_run<2>(p + 3);
  ct.second = digit_run<2>(p + 6);
  return (ct.hour | ct.minute | ct.second) >= 0;
}

/// The stamp's time, or nullopt if its fields are out of range.
std::optional<util::TimeUs> checked_time(const util::CivilTime& ct) {
  if (!civil_fields_valid(ct.year, ct.month, ct.day, ct.hour, ct.minute,
                          ct.second)) {
    return std::nullopt;
  }
  return util::to_time_us(ct);
}

}  // namespace

bool civil_fields_valid(int year, int month, int day, int hour, int minute,
                        int second) {
  if (year < 1 || year > 9999) return false;
  if (month < 1 || month > 12) return false;
  if (day < 1 || day > util::days_in_month(year, month)) return false;
  if (hour < 0 || hour > 23) return false;
  if (minute < 0 || minute > 59) return false;
  if (second < 0 || second > 59) return false;
  return true;
}

std::optional<util::TimeUs> parse_syslog_stamp(std::string_view s,
                                               int month) {
  // "Mon dd HH:MM:SS" -- dd may be space-padded ("Jun  3").
  if (s.size() < 15 || s[3] != ' ' || s[6] != ' ') return std::nullopt;
  util::CivilTime ct;
  ct.month = month;
  ct.day = s[4] == ' ' ? digit_run<1>(s.data() + 5)
                       : digit_run<2>(s.data() + 4);
  if (ct.month == 0 || ct.day < 0 || !parse_clock(s.data() + 7, ':', ct)) {
    return std::nullopt;
  }
  // A leap year admits every day a month can have; YearClock::at
  // rejects Feb 29 once the year is known.
  if (!civil_fields_valid(2000, ct.month, ct.day, ct.hour, ct.minute,
                          ct.second)) {
    return std::nullopt;
  }
  return (ct.day - 1) * util::kUsPerDay + ct.hour * util::kUsPerHour +
         ct.minute * util::kUsPerMin + ct.second * util::kUsPerSec;
}

std::optional<util::TimeUs> YearClock::at(int year, int month,
                                          util::TimeUs offset) {
  if (year != year_) {
    year_ = year;
    valid_ = year >= 1 && year <= 9999;
    leap_ = valid_ && util::is_leap_year(year);
    for (int m = 1; valid_ && m <= 12; ++m) {
      month_start_[static_cast<std::size_t>(m - 1)] =
          util::days_from_civil(year, m, 1) * util::kUsPerDay;
    }
  }
  if (!valid_ || (month == 2 && !leap_ && offset >= 28 * util::kUsPerDay)) {
    return std::nullopt;
  }
  return month_start_[static_cast<std::size_t>(month - 1)] + offset;
}

std::optional<util::TimeUs> parse_syslog_timestamp(std::string_view s,
                                                   int base_year) {
  const int month = util::parse_month_abbrev(s);
  const auto offset = parse_syslog_stamp(s, month);
  if (!offset) return std::nullopt;
  return YearClock().at(base_year, month, *offset);
}

std::optional<util::TimeUs> parse_bgl_timestamp(std::string_view s) {
  // "YYYY-MM-DD-HH.MM.SS.ffffff"
  util::CivilTime ct;
  if (s.size() < 26 || s[19] != '.' || !parse_date(s, '-', ct) ||
      !parse_clock(s.data() + 11, '.', ct)) {
    return std::nullopt;
  }
  ct.micros = digit_run<6>(s.data() + 20);
  if (ct.micros < 0) return std::nullopt;
  return checked_time(ct);
}

std::optional<util::TimeUs> parse_iso_timestamp(std::string_view s) {
  // "YYYY-MM-DD HH:MM:SS"
  util::CivilTime ct;
  if (s.size() < 19 || !parse_date(s, ' ', ct) ||
      !parse_clock(s.data() + 11, ':', ct)) {
    return std::nullopt;
  }
  return checked_time(ct);
}

}  // namespace wss::parse
