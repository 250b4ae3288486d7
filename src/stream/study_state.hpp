// Incremental study state: Tables 2-4 ingredients, queryable mid-stream.
//
// The batch pipeline's determinism contract is *chunked*: events are
// reduced in fixed chunks of PipelineOptions::chunk_events, and chunk
// partials are merged in index order (core/pipeline.hpp). This class
// keeps that exact accumulation structure alive online -- a current
// chunk partial plus a merged total -- so the floating-point sums a
// finished stream reports are bit-identical to core::run_pipeline over
// the same rendered events, not merely close. Only the per-chunk
// tagged-alert vector is dropped at each merge (no table consumes it;
// the filtered stream is emitted, not retained), which is what turns
// the batch O(log) footprint into O(chunk + categories + window).
//
// On top of the pipeline accumulators it tracks what the tables need
// from the *filtered* stream (per-category and per-type survivor
// counts), online interarrival statistics of survivors (streaming
// moments + reservoir quantiles -- the Figure 5/6 ingredients), and
// sliding-window rates for live dashboards. Everything checkpoints
// through save()/load() bit-exactly.
#pragma once

#include <future>
#include <optional>
#include <string>

#include "core/pipeline.hpp"
#include "sim/spec.hpp"
#include "stream/checkpoint.hpp"
#include "stream/window.hpp"

namespace wss::stream {

/// Streaming knobs. chunk_events MUST equal the batch
/// PipelineOptions::chunk_events for bit-identical table rows.
struct StreamStudyOptions {
  util::TimeUs threshold_us = 5 * util::kUsPerSec;  ///< filter T
  std::size_t chunk_events = 8192;

  /// Sliding-window extent and bucket count for live rates.
  util::TimeUs window_us = util::kUsPerHour;
  std::size_t window_buckets = 64;

  /// Reservoir size for interarrival quantiles.
  std::size_t reservoir_k = 512;
  std::uint64_t reservoir_seed = 0x5eed;

  /// Capture the first core-sample lines for the Table 2 compression
  /// fraction (bounded: the batch measurement is itself a prefix
  /// sample). Off saves the sample buffer.
  bool capture_compression_sample = true;

  /// Fig 2(b)-style per-source tallies (O(sources) memory). Off by
  /// default in streams; Tables 2-4 do not need them.
  bool collect_source_tallies = false;
};

/// What a snapshot computes: everything (the report), or all but the
/// Table 2 compression fraction (a status line).
enum class SnapshotScope : std::uint8_t { kFull, kStatus };

/// A point-in-time view of the stream. `final` snapshots (after
/// finish()) reproduce the batch table rows bit-for-bit.
struct StreamSnapshot {
  parse::SystemId system = parse::SystemId::kBlueGeneL;
  bool finished = false;

  // ---- Stream position ----
  std::uint64_t events = 0;        ///< physical messages ingested
  util::TimeUs first_time = 0;     ///< first event timestamp
  util::TimeUs watermark = 0;      ///< latest event timestamp

  // ---- Pipeline accumulators (batch PipelineResult mirror) ----
  std::uint64_t physical_messages = 0;
  double weighted_messages = 0.0;
  std::uint64_t physical_bytes = 0;
  double weighted_bytes = 0.0;
  std::uint64_t corrupted_source_lines = 0;
  std::uint64_t invalid_timestamp_lines = 0;
  std::vector<double> weighted_alert_counts;          ///< Table 4 "Raw"
  std::vector<std::uint64_t> physical_alert_counts;
  int categories_observed = 0;                        ///< Table 2 "Cat."
  tag::TaggerEvaluation tagging;
  bool has_ground_truth = true;    ///< false for parsed real-log streams
  /// Syslog year boundaries inferred from month rollovers (parsed-log
  /// streams only; filled by StreamPipeline).
  int year_rollovers = 0;

  // ---- Table 2 derived fields (same expressions as table2_row) ----
  int days = 0;
  double measured_gb = 0.0;
  double rate_bytes_per_sec = 0.0;
  double messages = 0.0;           ///< weighted total
  double alerts = 0.0;             ///< weighted alert total
  /// Compression fraction over the captured prefix sample; unset when
  /// capture is off or no line has been seen.
  std::optional<double> compressed_fraction;

  // ---- Filtered stream (Algorithm 3.1 survivors) ----
  std::uint64_t alerts_offered = 0;
  std::uint64_t alerts_admitted = 0;
  std::vector<std::uint64_t> filtered_counts;         ///< Table 4 "Filtered"
  std::uint64_t filtered_by_type[3] = {0, 0, 0};      ///< Table 3 "Filtered"

  // ---- Online interarrival stats of admitted alerts (seconds) ----
  std::uint64_t gap_count = 0;
  double gap_mean_s = 0.0;
  double gap_stddev_s = 0.0;
  double gap_min_s = 0.0;
  double gap_max_s = 0.0;
  double gap_p50_s = 0.0;
  double gap_p95_s = 0.0;
  double gap_p99_s = 0.0;

  // ---- Sliding-window rates (trailing window of stream time) ----
  double window_seconds = 0.0;
  double messages_in_window = 0.0;   ///< weighted
  double raw_alerts_in_window = 0.0; ///< weighted
  double admitted_in_window = 0.0;   ///< physical survivors

  // ---- Ingestion accounting (filled by the driver) ----
  std::uint64_t dropped = 0;

  // ---- Prediction stage (filled by StreamPipeline when --predict) ----
  bool predict_enabled = false;
  bool predict_fitted = false;
  std::uint64_t predict_issued = 0;
  std::uint64_t predict_hits = 0;
  std::uint64_t predict_misses = 0;
  std::uint64_t predict_false_alarms = 0;
  std::uint64_t predict_incidents = 0;
  std::size_t predict_routed = 0;  ///< ensemble routed categories

  /// Cumulative per-category weighted rate (alerts/day of stream time);
  /// empty before the first event.
  std::vector<double> category_rates_per_day() const;
};

/// The incremental accumulator behind StreamSnapshot.
class StreamStudyState {
 public:
  StreamStudyState(parse::SystemId system, const StreamStudyOptions& opts);

  /// Folds one rendered event (already reduced into the pipeline
  /// partial by the caller via core::detail::reduce_line) -- this
  /// entry point only advances chunk bookkeeping and window state.
  /// `partial()` exposes the live chunk partial to reduce into.
  core::PipelineResult& partial() { return partial_; }

  /// Called after each reduce_line into partial(): advances event
  /// counters, windows, and (at chunk boundaries) merges the partial.
  void on_event(const sim::SimEvent& e, std::string_view line);

  /// Records an Algorithm 3.1 verdict on a (ground-truth or tagged)
  /// alert so filtered tallies, interarrival stats, and windows track
  /// the survivor stream.
  void on_filter_verdict(const filter::Alert& a, bool admitted);

  /// Flushes the open chunk. Call once at end-of-stream; snapshot()
  /// afterwards reproduces the batch table rows bit-for-bit.
  void finish();

  /// `kStatus` leaves compressed_fraction unset and never waits: a
  /// status line never prints it. `kFull` compresses a sample that is
  /// still filling, or waits for the task compressing a filled one.
  StreamSnapshot snapshot(SnapshotScope scope = SnapshotScope::kFull) const;

  std::uint64_t events() const { return events_; }
  util::TimeUs watermark() const { return watermark_; }
  const StreamStudyOptions& options() const { return opts_; }

  void mark_no_ground_truth() { has_ground_truth_ = false; }
  bool has_ground_truth() const { return has_ground_truth_; }

  /// Waits for the sample's compression task, if one runs: a filled
  /// sample is saved as its raw size and fraction, not its text.
  void save(CheckpointWriter& w) const;
  void load(CheckpointReader& r);

 private:
  /// The Table 2 fraction of a compression sample of `bytes` raw bytes.
  struct SampleFraction {
    std::uint64_t bytes = 0;
    double fraction = 0.0;
  };

  void merge_open_chunk();
  /// The fraction of the filled sample, waiting for its task.
  const SampleFraction& filled_fraction() const;
  static void save_result(CheckpointWriter& w, const core::PipelineResult& r);
  static void load_result(CheckpointReader& r, core::PipelineResult& out);

  parse::SystemId system_;
  StreamStudyOptions opts_;
  std::size_t num_categories_ = 0;

  // Chunk-mirrored pipeline accumulation (see file comment).
  core::PipelineResult total_;
  core::PipelineResult partial_;
  std::size_t events_in_partial_ = 0;

  std::uint64_t events_ = 0;
  util::TimeUs first_time_ = 0;
  util::TimeUs watermark_ = 0;
  bool any_event_ = false;
  bool finished_ = false;
  bool has_ground_truth_ = true;

  // Filtered-stream tallies.
  std::vector<std::uint64_t> filtered_counts_;
  std::uint64_t filtered_by_type_[3] = {0, 0, 0};
  std::uint64_t alerts_offered_ = 0;
  std::uint64_t alerts_admitted_ = 0;

  // Interarrival state over admitted alerts.
  StreamingMoments gap_moments_;
  ReservoirSample gap_reservoir_;
  util::TimeUs last_admitted_time_ = 0;
  bool any_admitted_ = false;

  // Sliding windows (stream time).
  SlidingWindowCounter window_messages_;
  SlidingWindowCounter window_raw_alerts_;
  SlidingWindowCounter window_admitted_;

  // Table 2 compression sample: the first kCompressionSampleLines
  // lines. While it fills, the text is kept here and a full snapshot
  // compresses it (cached by size). The line that fills it moves the
  // text into compression_task_, which computes the fraction on its
  // own thread and frees the text; a full snapshot or save() waits for
  // it. The future comes from std::async, so releasing it -- the state
  // destroyed, or restored or moved over -- joins the task as well. A
  // run that never fills the sample starts no thread.
  std::string compression_sample_;
  std::size_t sampled_lines_ = 0;
  mutable std::future<SampleFraction> compression_task_;
  mutable std::optional<SampleFraction> compression_cache_;
};

/// Lines sampled for the Table 2 compression fraction -- the same
/// prefix length the batch measurement uses (core/experiments.cpp).
inline constexpr std::size_t kCompressionSampleLines = 20000;

}  // namespace wss::stream
