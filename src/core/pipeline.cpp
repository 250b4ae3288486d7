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

std::optional<tag::TagResult> reduce_line(const ChunkContext& ctx,
                                          std::string_view line, int year,
                                          double weight, PipelineResult& r,
                                          LineScratch& ls,
                                          match::MatchScratch& scratch) {
  PipelineCounters& obs = PipelineCounters::get();
  obs.events.inc();
  obs.bytes.inc(line.size() + 1);
  ++r.physical_messages;
  r.weighted_messages += weight;
  r.physical_bytes += line.size() + 1;  // trailing newline on disk
  r.weighted_bytes += weight * static_cast<double>(line.size() + 1);

  parse::parse_line_into(ctx.system, line, year, ls.rec, ls.parse);
  const parse::LogRecord& rec = ls.rec;
  if (rec.source_corrupted) {
    ++r.corrupted_source_lines;
    obs.corrupted_sources.inc();
  }
  if (!rec.timestamp_valid) {
    ++r.invalid_timestamp_lines;
    obs.invalid_timestamps.inc();
  }

  const auto tagged = ctx.engine->tag(rec, scratch);
  if (tagged) {
    obs.alerts_tagged.inc();
    r.weighted_alert_counts[tagged->category] += weight;
    ++r.physical_alert_counts[tagged->category];
  }

  if (ctx.collect_source_tallies) {
    if (rec.source_corrupted) {
      r.corrupted_source_weight += weight;
    } else {
      // Look up by view: a new key is copied once, a known one never.
      auto it = r.messages_by_source.find(rec.source);
      if (it == r.messages_by_source.end()) {
        it = r.messages_by_source.emplace(rec.source, 0.0).first;
      }
      it->second += weight;
    }
  }
  return tagged;
}

void process_line(const ChunkContext& ctx, const sim::SimEvent& e,
                  std::string_view line, PipelineResult& r, LineScratch& ls,
                  match::MatchScratch& scratch) {
  // The year hint follows the event's own year; a real reader infers
  // it from month rollovers (StreamPipeline::ingest_line).
  const auto tagged = reduce_line(ctx, line, util::to_civil(e.time).year,
                                  e.weight, r, ls, scratch);
  r.tagging.add(tagged.has_value(), e.is_alert());
  if (!tagged) return;
  filter::Alert a;
  // Trust the parsed timestamp when valid; otherwise fall back to
  // stream position (ground-truth time), as an operator reading a
  // sequential log effectively does.
  a.time = ls.rec.timestamp_valid ? ls.rec.time : e.time;
  a.source = e.source;
  a.category = tagged->category;
  a.type = tagged->type;
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
