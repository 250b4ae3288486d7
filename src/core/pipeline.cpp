#include "core/pipeline.hpp"

#include <iterator>
#include <string>

namespace wss::core {

namespace detail {

PipelineCounters& PipelineCounters::get() {
  static PipelineCounters c{
      obs::registry().counter("wss_pipeline_events_total"),
      obs::registry().counter("wss_pipeline_bytes_total"),
      obs::registry().counter("wss_pipeline_corrupted_source_lines_total"),
      obs::registry().counter("wss_pipeline_invalid_timestamp_lines_total"),
      obs::registry().counter("wss_pipeline_alerts_tagged_total"),
      obs::registry().counter("wss_pipeline_chunks_total"),
  };
  return c;
}

PipelineResult make_partial(const ChunkContext& ctx) {
  PipelineResult r;
  r.system = ctx.system;
  r.weighted_alert_counts.assign(ctx.num_categories, 0.0);
  r.physical_alert_counts.assign(ctx.num_categories, 0);
  return r;
}

namespace {

/// Packs the parse half of a LineRead from `rec`, a parse of `line`.
void pack_parse(const parse::LogRecord& rec, std::string_view line,
                LineRead& out) {
  out.time = rec.time;
  // A corrupted record's source is empty, which any offset views.
  out.source_begin =
      rec.source.empty()
          ? 0
          : static_cast<std::uint32_t>(rec.source.data() - line.data());
  out.source_size = static_cast<std::uint32_t>(rec.source.size());
  out.severity = rec.severity;
  out.month = rec.month;
  constexpr std::uint8_t kParseBits = LineRead::kTimestampValid |
                                      LineRead::kSourceCorrupted |
                                      LineRead::kYearPending;
  out.bits = static_cast<std::uint8_t>(
      (out.bits & ~kParseBits) |
      (rec.timestamp_valid ? LineRead::kTimestampValid : 0) |
      (rec.source_corrupted ? LineRead::kSourceCorrupted : 0) |
      (rec.year_pending ? LineRead::kYearPending : 0));
}

}  // namespace

void read_line(const ChunkContext& ctx, std::string_view line,
               LineScratch& ls, match::MatchScratch& scratch, LineRead& out) {
  parse::parse_line_into(ctx.system, line, ls.rec, ls.parse);
  const std::uint64_t rejects = scratch.prefilter_rejects;
  const std::uint64_t scans = scratch.dfa_scans;
  const auto tagged = ctx.engine->tag(ls.rec, scratch);
  out.bits = static_cast<std::uint8_t>(
      (tagged ? LineRead::kTagged : 0) |
      (scratch.prefilter_rejects != rejects ? LineRead::kPrefilterReject : 0) |
      (scratch.dfa_scans != scans ? LineRead::kRegexScan : 0));
  if (tagged) {
    out.category = tagged->category;
    out.type = tagged->type;
  }
  pack_parse(ls.rec, line, out);
}

void count_tag(const LineRead& read, match::MatchScratch& scratch) {
  ++scratch.tag_lines;
  scratch.tag_hits += read.has(LineRead::kTagged);
  scratch.prefilter_rejects += read.has(LineRead::kPrefilterReject);
  scratch.dfa_scans += read.has(LineRead::kRegexScan);
}

void reduce_read(const ChunkContext& ctx, std::string_view line, int year,
                 double weight, LineRead& read, PipelineResult& r,
                 LineScratch& ls) {
  if (read.has(LineRead::kYearPending)) {
    read.bits &= static_cast<std::uint8_t>(~LineRead::kYearPending);
    if (const auto t = ls.parse.clock.at(year, read.month, read.time)) {
      read.time = *t;
    } else {
      // The stamp names a day this year lacks: the year-aware parse
      // rejects it, which may attribute the line differently. The tag
      // reads only the raw line, so it stands.
      parse::parse_line_into(ctx.system, line, ls.rec, ls.parse);
      parse::apply_year(ls.rec, year, ls.parse);
      pack_parse(ls.rec, line, read);
    }
  }

  PipelineCounters& obs = PipelineCounters::get();
  obs.events.inc();
  obs.bytes.inc(line.size() + 1);
  ++r.physical_messages;
  r.weighted_messages += weight;
  r.physical_bytes += line.size() + 1;  // trailing newline on disk
  r.weighted_bytes += weight * static_cast<double>(line.size() + 1);

  const bool corrupted = read.has(LineRead::kSourceCorrupted);
  if (corrupted) {
    ++r.corrupted_source_lines;
    obs.corrupted_sources.inc();
  }
  if (!read.has(LineRead::kTimestampValid)) {
    ++r.invalid_timestamp_lines;
    obs.invalid_timestamps.inc();
  }

  if (read.has(LineRead::kTagged)) {
    obs.alerts_tagged.inc();
    r.weighted_alert_counts[read.category] += weight;
    ++r.physical_alert_counts[read.category];
  }

  if (ctx.collect_source_tallies) {
    if (corrupted) {
      r.corrupted_source_weight += weight;
    } else {
      // Look up by view: a new key is copied once, a known one never.
      const std::string_view source = read.source(line);
      auto it = r.messages_by_source.find(source);
      if (it == r.messages_by_source.end()) {
        it = r.messages_by_source.emplace(source, 0.0).first;
      }
      it->second += weight;
    }
  }
}

void process_line(const ChunkContext& ctx, const sim::SimEvent& e,
                  std::string_view line, PipelineResult& r, LineScratch& ls,
                  match::MatchScratch& scratch) {
  LineRead read;  // read_line writes it
  read_line(ctx, line, ls, scratch, read);
  // The year follows the event's own; a real reader infers it from
  // month rollovers (stream::StreamPipeline). Only a pending syslog
  // stamp reads it.
  const int year = read.has(LineRead::kYearPending)
                       ? util::to_civil(e.time).year
                       : 0;
  reduce_read(ctx, line, year, e.weight, read, r, ls);
  const bool tagged = read.has(LineRead::kTagged);
  r.tagging.add(tagged, e.is_alert());
  if (!tagged) return;
  filter::Alert a;
  // Trust the parsed timestamp when valid; otherwise fall back to
  // stream position (ground-truth time), as an operator reading a
  // sequential log effectively does.
  a.time = read.has(LineRead::kTimestampValid) ? read.time : e.time;
  a.source = e.source;
  a.category = read.category;
  a.type = read.type;
  a.failure_id = e.failure_id;  // ground truth rides along for scoring
  a.weight = e.weight;
  r.tagged_alerts.push_back(a);
}

PipelineResult process_chunk(const ChunkContext& ctx, std::size_t begin,
                             std::size_t end, match::MatchScratch& scratch) {
  const sim::Simulator& simulator = *ctx.simulator;
  PipelineResult r = make_partial(ctx);
  const auto& events = simulator.events();
  std::string line;  // every line of the chunk renders into this buffer
  LineScratch ls;     // and parses into this record
  for (std::size_t i = begin; i < end; ++i) {
    line.clear();
    simulator.renderer().render_into(events[i], i, line);
    process_line(ctx, events[i], line, r, ls, scratch);
  }
  return r;
}

void merge_partial(PipelineResult& acc, PipelineResult&& part) {
  if (acc.weighted_alert_counts.empty()) {
    acc.system = part.system;
    acc.weighted_alert_counts.assign(part.weighted_alert_counts.size(), 0.0);
    acc.physical_alert_counts.assign(part.physical_alert_counts.size(), 0);
  }

  acc.physical_messages += part.physical_messages;
  acc.weighted_messages += part.weighted_messages;
  acc.physical_bytes += part.physical_bytes;
  acc.weighted_bytes += part.weighted_bytes;
  acc.corrupted_source_lines += part.corrupted_source_lines;
  acc.invalid_timestamp_lines += part.invalid_timestamp_lines;

  acc.tagged_alerts.insert(acc.tagged_alerts.end(),
                           std::make_move_iterator(part.tagged_alerts.begin()),
                           std::make_move_iterator(part.tagged_alerts.end()));
  for (std::size_t c = 0; c < part.weighted_alert_counts.size(); ++c) {
    acc.weighted_alert_counts[c] += part.weighted_alert_counts[c];
    acc.physical_alert_counts[c] += part.physical_alert_counts[c];
  }

  acc.tagging.add(true, true, part.tagging.true_positives);
  acc.tagging.add(true, false, part.tagging.false_positives);
  acc.tagging.add(false, false, part.tagging.true_negatives);
  acc.tagging.add(false, true, part.tagging.false_negatives);

  // std::map iterates keys in sorted order, so for any one source the
  // per-chunk partials are added in chunk order -- the same FP
  // accumulation order at every thread count.
  for (auto& [source, weight] : part.messages_by_source) {
    acc.messages_by_source[source] += weight;
  }
  acc.corrupted_source_weight += part.corrupted_source_weight;
}

void finalize_result(PipelineResult& r) {
  r.categories_observed = 0;
  for (const auto c : r.physical_alert_counts) {
    if (c > 0) ++r.categories_observed;
  }
  // syslog stamps have 1 s granularity, so parsed times can tie or
  // regress within a second relative to event order; restore order.
  filter::sort_alerts(r.tagged_alerts);
}

}  // namespace detail

}  // namespace wss::core
