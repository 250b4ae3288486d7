// Delta-flusher from MatchScratch tag tallies to the obs registry.
//
// The tag miss path runs at tens of millions of lines per second; a
// striped-atomic counter add per line would cost a measurable slice of
// that (the obs overhead budget is wss_bench's trace.overhead_share).
// So TagEngine::tag_line maintains plain per-scratch tallies, and the
// owner of each scratch (serial pipeline, parallel worker, stream
// engine) pairs it with one TagMetricsFlusher, calling
// flush() at chunk boundaries and at end of pass. flush() publishes
// only the delta since the previous flush, so it is idempotent and
// safe to call at any cadence -- totals depend only on the lines
// tagged, never on when or how often flushes happened.
#pragma once

#include <cstdint>

#include "match/scratch.hpp"
#include "obs/metrics.hpp"

namespace wss::tag {

class TagMetricsFlusher {
 public:
  TagMetricsFlusher();

  /// Publishes scratch-tally growth since the last flush to the
  /// wss_tag_* counters. O(4 counter adds); call per chunk, not per
  /// line. Allocation-free (handles are bound at construction).
  void flush(const match::MatchScratch& s);

  /// Re-bases the flusher on a scratch's current tallies WITHOUT
  /// publishing them -- used after checkpoint restore, where the
  /// restored registry already contains everything the scratch saw.
  void rebase(const match::MatchScratch& s);

 private:
  obs::Counter* lines_;
  obs::Counter* hits_;
  obs::Counter* prefilter_rejects_;
  obs::Counter* regex_scans_;

  std::uint64_t last_lines_ = 0;
  std::uint64_t last_hits_ = 0;
  std::uint64_t last_prefilter_rejects_ = 0;
  std::uint64_t last_regex_scans_ = 0;
};

}  // namespace wss::tag
