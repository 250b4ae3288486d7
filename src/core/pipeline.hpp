// The parse -> tag pipeline over a simulated system log.
//
// This is the "downstream consumer" view: everything here is computed
// from rendered text lines the way a real analysis would, not from the
// simulator's ground truth. Ground truth is used only to score the
// tagger (the paper had to do this scoring by hand).
//
// Determinism contract: the pipeline's canonical semantics are
// *chunked*. The event stream is cut into fixed-size chunks of
// `PipelineOptions::chunk_events` events, each chunk is reduced to a
// partial PipelineResult, and partials are merged in chunk-index
// order. Chunk boundaries depend only on chunk_events -- never on
// thread count or scheduling -- so the serial run_pipeline and
// core::ParallelPipeline at any thread count produce bit-identical
// results (floating-point sums included). Changing chunk_events
// changes FP rounding at the 1e-15 level; it is a constant for a
// reason.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "filter/alert.hpp"
#include "match/scratch.hpp"
#include "obs/metrics.hpp"
#include "parse/dispatch.hpp"
#include "sim/generator.hpp"
#include "tag/engine.hpp"
#include "tag/evaluate.hpp"
#include "tag/rule.hpp"

namespace wss::core {

/// Knobs for one parse+tag pass (serial or parallel).
struct PipelineOptions {
  /// Worker threads. 1 = serial; 0 = std::thread::hardware_concurrency.
  int num_threads = 1;

  /// Events per work-queue chunk. Part of the determinism contract
  /// (see file comment); identical results require identical values.
  std::size_t chunk_events = 8192;

  /// Enables the Figure 2(b) per-source map (the only
  /// expensive-by-memory part).
  bool collect_source_tallies = true;
};

/// Everything a single parse+tag pass produces.
struct PipelineResult {
  parse::SystemId system = parse::SystemId::kBlueGeneL;

  // ---- Volume (Table 2 ingredients) ----
  std::uint64_t physical_messages = 0;
  double weighted_messages = 0.0;       ///< reproduces Table 2 "Messages"
  std::uint64_t physical_bytes = 0;     ///< rendered log bytes
  double weighted_bytes = 0.0;          ///< reproduces Table 2 "Size"

  // ---- Parsing quality (Section 3.2.1 corruption modes) ----
  std::uint64_t corrupted_source_lines = 0;
  std::uint64_t invalid_timestamp_lines = 0;

  // ---- Tagging ----
  /// Alerts found by the rule engine on rendered lines, time-sorted.
  /// Category ids are rule indices (same space as ground truth).
  std::vector<filter::Alert> tagged_alerts;
  /// Weighted raw alert count per category (Table 4 "Raw").
  std::vector<double> weighted_alert_counts;
  /// Physical (unweighted) alert count per category.
  std::vector<std::uint64_t> physical_alert_counts;
  /// Engine-vs-ground-truth confusion counts.
  tag::TaggerEvaluation tagging;
  /// Categories with at least one physical alert (Table 2
  /// "Categories").
  int categories_observed = 0;

  // ---- Per-source tallies (Figure 2(b)) ----
  /// Weighted message count by parsed source name (transparent
  /// comparator: looked up by the record's view, no key copy).
  std::map<std::string, double, std::less<>> messages_by_source;
  /// Weighted count of messages whose source was unattributable.
  double corrupted_source_weight = 0.0;
};

/// Runs the pipeline over every rendered line of `simulator`.
/// `collect_source_tallies` enables the Figure 2(b) map (it is the
/// only expensive-by-memory part).
PipelineResult run_pipeline(const sim::Simulator& simulator,
                            bool collect_source_tallies = true);

/// Same, with explicit options. num_threads is ignored here (this is
/// the serial reference): it is ParallelPipeline's one-thread branch.
PipelineResult run_pipeline(const sim::Simulator& simulator,
                            const PipelineOptions& options);

namespace detail {

/// Read-only state shared by every chunk of one pass. `simulator` may
/// be null for consumers that supply (event, line) pairs themselves
/// (the streaming engine); process_chunk requires it.
struct ChunkContext {
  const sim::Simulator* simulator = nullptr;
  const tag::TagEngine* engine = nullptr;  ///< const-shareable across threads
  parse::SystemId system = parse::SystemId::kBlueGeneL;
  std::size_t num_categories = 0;
  bool collect_source_tallies = true;
};

/// Initializes an empty partial for one chunk of a pass. Part of the
/// determinism contract: every accumulator starts from the same zeros
/// in batch and streaming runs.
PipelineResult make_partial(const ChunkContext& ctx);

/// Per-caller parse state of reduce_line: one record and one parse
/// scratch, reused across lines so the warm parse allocates nothing.
/// After a reduce_line call, `rec` is that line's parsed record; its
/// fields (and the scratch's field split) view the line, so they are
/// valid only until the caller's line buffer changes -- every caller
/// reads them before its next line and keeps copies of what it keeps.
struct LineScratch {
  parse::LogRecord rec;
  parse::ParseScratch parse;
};

/// The per-line reducer of every route: parses `line` into `ls.rec`
/// (`year` stamps syslog lines, which carry none), counts its volume
/// and parse quality, tags it with `scratch`, and tallies its category
/// and source into `r`, each at `weight`. Returns the tag. Callers add
/// only what differs: process_line scores the tagger and keeps the
/// alert; stream::StreamPipeline::ingest_line infers the year and feeds
/// its filter. `scratch` is the caller-owned per-thread matching
/// scratch, reused across lines so the steady-state tag path never
/// allocates.
std::optional<tag::TagResult> reduce_line(const ChunkContext& ctx,
                                          std::string_view line, int year,
                                          double weight, PipelineResult& r,
                                          LineScratch& ls,
                                          match::MatchScratch& scratch);

/// Reduces ONE rendered event into the partial `r`: reduce_line at the
/// event's own year and weight, plus tagger scoring against ground
/// truth and the tagged alert. process_chunk and the online
/// stream::StreamPipeline both call it, which is what makes their
/// outputs bit-identical on the same (event, line) sequence.
void process_line(const ChunkContext& ctx, const sim::SimEvent& e,
                  std::string_view line, PipelineResult& r, LineScratch& ls,
                  match::MatchScratch& scratch);

/// Reduces events [begin, end) to a partial result. Pure function of
/// its arguments; safe to call concurrently for disjoint ranges with
/// distinct scratches (ParallelPipeline keeps one per worker).
PipelineResult process_chunk(const ChunkContext& ctx, std::size_t begin,
                             std::size_t end, match::MatchScratch& scratch);

/// Folds `part` into `acc`. MUST be called in chunk-index order --
/// the merge order is what the determinism guarantee hangs on.
void merge_partial(PipelineResult& acc, PipelineResult&& part);

/// Cached handles for the per-event pipeline counters. reduce_line
/// increments these (relaxed striped adds), so the same names track
/// the same per-event semantics in the serial, parallel, and streaming
/// paths -- which is what makes the wss_pipeline_* counters
/// thread-count- and batch/stream-invariant. `chunks` is incremented
/// by whoever performs a chunk merge (run_pipeline, ParallelPipeline,
/// StreamStudyState::merge_open_chunk).
struct PipelineCounters {
  obs::Counter& events;
  obs::Counter& bytes;
  obs::Counter& corrupted_sources;
  obs::Counter& invalid_timestamps;
  obs::Counter& alerts_tagged;
  obs::Counter& chunks;
  static PipelineCounters& get();
};

/// Final pass after all chunks are merged: categories_observed and the
/// canonical alert sort.
void finalize_result(PipelineResult& r);

}  // namespace detail

}  // namespace wss::core
