// Year-rollover inference for syslog stamps.
//
// syslog timestamps carry no year (Section 3.2.1, "Inconsistent
// Structure"), so a reader of a multi-year log (Spirit spans 558 days)
// must infer year boundaries: when the month jumps backwards by more
// than half a year relative to the previous record, a new year has
// begun. stream::StreamPipeline::ingest_line runs every line of a
// parsed log through one tracker.
#pragma once

#include <string_view>

namespace wss::logio {

/// Tracks the last month seen and bumps the year when the month
/// decreases sharply.
class YearTracker {
 public:
  explicit YearTracker(int start_year) : year_(start_year) {}

  /// Returns the year to use for a record stamped with `month`
  /// (1..12), updating internal state.
  int on_month(int month);

  /// Returns the year for `line`, peeking the month abbreviation its
  /// stamp starts with. Stamps that carry their own year (BG/L, the
  /// Red Storm event router) start with no month name and leave the
  /// tracker inert.
  int year_of(std::string_view line);

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
