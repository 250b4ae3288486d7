// Year-rollover inference for syslog stamps.
//
// syslog timestamps carry no year (Section 3.2.1, "Inconsistent
// Structure"), so a reader of a multi-year log (Spirit spans 558 days)
// must infer year boundaries: when the month jumps backwards by more
// than half a year relative to the previous record, a new year has
// begun. stream::StreamPipeline runs every line of a parsed log
// through one tracker, in file order, after the line's parse.
#pragma once

namespace wss::logio {

/// Tracks the last month seen and bumps the year when the month
/// decreases sharply.
class YearTracker {
 public:
  explicit YearTracker(int start_year) : year_(start_year) {}

  /// Returns the year to use for a record stamped with `month`
  /// (1..12), updating internal state. Month 0 -- a line that starts
  /// with no month name, as the stamps that carry their own year (BG/L,
  /// the Red Storm event router) do -- leaves the tracker inert. The
  /// parse reports the month (parse::LogRecord::month), also when it
  /// rejects the stamp.
  int on_month(int month);

  int year() const { return year_; }
  int last_month() const { return last_month_; }
  int rollovers() const { return rollovers_; }

  /// Reinstates a previously observed state (streaming checkpoint
  /// restore); the tracker continues exactly where it left off.
  void restore(int year, int last_month, int rollovers) {
    year_ = year;
    last_month_ = last_month;
    rollovers_ = rollovers;
  }

 private:
  int year_;
  int last_month_ = 0;
  int rollovers_ = 0;
};

}  // namespace wss::logio
