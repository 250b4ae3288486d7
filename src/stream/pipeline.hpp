// The online streaming engine: batch semantics, O(window) memory.
//
// StreamPipeline consumes one event at a time and maintains exactly
// three kinds of state:
//
//   * the chunk-mirrored pipeline accumulators (StreamStudyState) --
//     bounded by chunk_events plus the category count;
//   * the online Algorithm 3.1 filter table (OnlineSimultaneousFilter)
//     -- bounded by one entry per category, evicted down to the live
//     T-second horizon at every chunk boundary;
//   * sliding windows / reservoir for live rates and quantiles --
//     bounded by their configured sizes.
//
// Nothing grows with the length of the log, yet a finished stream
// reports bit-identical Tables 2-4 ingredients and a bit-identical
// filtered alert sequence versus the batch pipeline over the same
// rendered events (tests/test_integration_stream.cpp pins this for
// all five systems).
//
// Two ingestion modes:
//   ingest(event, line)  -- simulated streams: ground truth rides
//     along, the filter consumes the ground-truth alert stream (the
//     batch Study::filtered_alerts feed), and tagging is scored.
//   ingest_line(line)    -- real/parsed logs. The line is read (parsed
//     year-free and tagged), then reduced in file order: its year is
//     inferred from month rollovers, and the tagged alert stream
//     (weight 1, interned source ids) feeds the filter. The two halves
//     are also public: read_line() is const, so FileIngest (`wss stream
//     --in`) runs it on a small pool a few blocks of lines ahead, while
//     ingest_read() reduces those lines in file order on the calling
//     thread. Both modes reduce each line with the batch
//     core::detail::reduce_read.
//
// Admitted alerts are emitted through the AlertSink the moment the
// filter rules them non-redundant (decisions are final; see
// online_filter.hpp). save()/restore() checkpoint the entire engine
// bit-exactly: checkpoint -> restore -> finish equals uninterrupted.
#pragma once

#include <functional>
#include <map>
#include <string>

#include <memory>

#include "logio/reader.hpp"
#include "stream/online_filter.hpp"
#include "stream/predict_stage.hpp"
#include "stream/study_state.hpp"
#include "tag/engine.hpp"
#include "tag/metrics.hpp"
#include "tag/rulesets.hpp"

namespace wss::stream {

struct StreamPipelineOptions {
  StreamStudyOptions study;

  /// Sorted-stream contract for the filter. Keep true for simulated
  /// streams (regression = bug); set false for parsed real logs,
  /// where 1 s stamp granularity can tie or regress.
  bool strict_order = true;

  /// Year seed for file-mode timestamp inference; 0 = the system
  /// spec's collection start year.
  int start_year = 0;

  /// Online failure prediction (PredictStage); off by default.
  PredictOptions predict;
};

/// Online counterpart of core::run_pipeline + filtered_alerts.
class StreamPipeline {
 public:
  /// Receives each admitted alert, in stream order, as soon as its
  /// verdict is final.
  using AlertSink = std::function<void(const filter::Alert&)>;

  explicit StreamPipeline(parse::SystemId system,
                          StreamPipelineOptions opts = {});

  void set_alert_sink(AlertSink sink) { sink_ = std::move(sink); }

  /// Receives each issued prediction as soon as the predict stage
  /// emits it. No-op unless options().predict.enabled.
  void set_prediction_sink(PredictStage::PredictionSink sink);

  /// Simulated-stream mode: one event plus its rendered line, in
  /// stream order (the pair process_chunk would see).
  void ingest(const sim::SimEvent& e, std::string_view line);

  /// File mode: one raw log line, in file order: read_line() and
  /// ingest_read() on this engine's own scratches.
  void ingest_line(std::string_view line);

  /// The read half of ingest_line: parses and tags `line` (year-free)
  /// into `out` with the caller's scratches. Const and touching nothing
  /// ingest_read() writes, so other threads may run it while this
  /// engine ingests (FileIngest's pool does).
  void read_line(std::string_view line, core::detail::LineScratch& ls,
                 match::MatchScratch& scratch,
                 core::detail::LineRead& out) const;

  /// The ordered half: ingests `line`, which read_line() read into
  /// `read` on another scratch, in file order; the read's tag tallies
  /// are added to this engine's. Equal to ingest_line(line), except
  /// that the latency sample times only this half.
  void ingest_read(std::string_view line, core::detail::LineRead& read);

  /// Flushes the open chunk; snapshot() afterwards is the batch
  /// result. Idempotent.
  void finish();

  /// See StreamStudyState::snapshot for `scope`.
  StreamSnapshot snapshot(SnapshotScope scope = SnapshotScope::kFull) const;

  std::uint64_t events() const { return study_.events(); }
  util::TimeUs watermark() const { return study_.watermark(); }
  const OnlineSimultaneousFilter& filter() const { return filter_; }
  const StreamStudyState& study() const { return study_; }
  /// The prediction stage, or nullptr when prediction is off.
  const PredictStage* predict_stage() const { return predict_.get(); }
  const StreamPipelineOptions& options() const { return opts_; }

  /// Publishes every pending metric delta (tag tallies, filter
  /// tallies, watermark gauge) to the obs registry. Idempotent; called
  /// by finish() and save(), and by the CLI before writing --metrics.
  void publish_metrics();

  /// Serializes the full engine state, including the obs registry's
  /// counter/gauge tables -- restore-and-finish then reports the same
  /// --metrics counters as an uninterrupted run. Publishes pending
  /// metric deltas first (hence non-const), and waits for the Table 2
  /// sample's compression if it still runs. Writes checkpoint
  /// kCheckpointVersion (sealed by stream::seal). Throws
  /// std::runtime_error on a write failure.
  void save(std::ostream& os);

  /// Restores a checkpoint written by save() for the same system,
  /// reading `is` to its end; a wrong version, trailer or payload
  /// throws a one-line std::runtime_error. Replaces options, all
  /// accumulator state, and the process-wide obs counters/gauges; the
  /// sink is kept.
  void restore(std::istream& is);

 private:
  void offer(const filter::Alert& a);
  std::uint32_t intern(std::string_view name);
  /// Runs `ingest`, wall-timing every 16th call into the latency
  /// histogram.
  template <typename F>
  void sampled(F&& ingest);
  /// Everything of a file-mode line after its read: year, accumulate,
  /// intern, study, filter, predict.
  void reduce(std::string_view line, core::detail::LineRead& read);
  /// ingest(e, line) without the latency sample.
  void reduce(const sim::SimEvent& e, std::string_view line);

  parse::SystemId system_;
  StreamPipelineOptions opts_;
  tag::TagEngine engine_;
  std::vector<const tag::CategoryInfo*> cats_;
  core::detail::ChunkContext ctx_;
  StreamStudyState study_;
  OnlineSimultaneousFilter filter_;
  /// Present iff opts_.predict.enabled.
  std::unique_ptr<PredictStage> predict_;
  AlertSink sink_;
  /// Kept here as well so restore() (which rebuilds predict_) can
  /// re-attach it -- sinks survive restore like the alert sink does.
  PredictStage::PredictionSink psink_;

  // File-mode state: year inference + source-name interning, ids in
  // order of first tagged line. The intern map is O(distinct sources).
  logio::YearTracker year_;
  std::map<std::string, std::uint32_t, std::less<>> source_ids_;

  // Per-engine parse and matching scratch, reused across every
  // ingested line. Purely transient (overwritten by each line), so
  // they are deliberately NOT part of save()/restore().
  core::detail::LineScratch line_;
  match::MatchScratch scratch_;

  // Delta-flusher for the scratch's tag tallies (flushed at chunk
  // boundaries and publish points; re-based on restore because the
  // restored registry already holds everything published).
  tag::TagMetricsFlusher flusher_;

  // Every 16th ingest is latency-sampled (wall-clock; never
  // checkpointed -- it measures this process, not the stream).
  std::uint64_t latency_tick_ = 0;
};

}  // namespace wss::stream
