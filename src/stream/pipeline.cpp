#include "stream/pipeline.hpp"

#include <chrono>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "sim/spec.hpp"

namespace wss::stream {

namespace {

/// Cached handles for the stream-side metrics (registration is cold;
/// these are touched per event).
struct StreamObs {
  obs::Counter& events;
  obs::Gauge& watermark;
  obs::Histogram& latency;
  static StreamObs& get() {
    static StreamObs s{
        obs::registry().counter("wss_stream_events_total"),
        obs::registry().gauge("wss_stream_watermark_us"),
        obs::registry().histogram("wss_stream_ingest_latency_seconds",
                                  obs::latency_bounds_seconds()),
    };
    return s;
  }
};

}  // namespace

StreamPipeline::StreamPipeline(parse::SystemId system,
                               StreamPipelineOptions opts)
    : system_(system),
      opts_(opts),
      engine_(tag::build_ruleset(system)),
      cats_(tag::categories_of(system)),
      study_(system, opts.study),
      filter_(opts.study.threshold_us, opts.strict_order),
      year_(opts.start_year != 0 ? opts.start_year
                                 : sim::system_spec(system).start_date.year) {
  ctx_.engine = &engine_;
  ctx_.system = system;
  ctx_.num_categories = cats_.size();
  ctx_.collect_source_tallies = opts.study.collect_source_tallies;
  if (opts_.predict.enabled) {
    predict_ = std::make_unique<PredictStage>(opts_.predict);
  }
}

void StreamPipeline::set_prediction_sink(PredictStage::PredictionSink sink) {
  psink_ = std::move(sink);
  if (predict_) predict_->set_sink(psink_);
}

void StreamPipeline::offer(const filter::Alert& a) {
  if (predict_) predict_->observe(a, study_.has_ground_truth());
  const bool admitted = filter_.offer(a);
  study_.on_filter_verdict(a, admitted);
  if (admitted && sink_) sink_(a);
}

void StreamPipeline::ingest(const sim::SimEvent& e, std::string_view line) {
  const bool sampled = (latency_tick_++ % 16) == 0;
  const auto t0 = sampled ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
  // Reduce into the open chunk partial with the shared batch reducer,
  // then let the study state advance chunk bookkeeping (it merges the
  // partial at every chunk_events boundary, exactly like run_pipeline).
  core::detail::process_line(ctx_, e, line, study_.partial(), line_,
                             scratch_);
  study_.on_event(e, line);
  StreamObs::get().events.inc();

  if (e.is_alert()) {
    // The ground-truth alert, constructed exactly as
    // Simulator::ground_truth_alerts() does -- the batch
    // filtered_alerts() feed.
    filter::Alert a;
    a.time = e.time;
    a.source = e.source;
    a.category = static_cast<std::uint16_t>(e.category);
    a.type = cats_.at(static_cast<std::size_t>(e.category))->type;
    a.failure_id = e.failure_id;
    a.weight = e.weight;
    offer(a);
  }

  if (study_.events() % opts_.study.chunk_events == 0) {
    // Chunk boundary: shed filter entries the watermark proves dead,
    // and publish the cold-path metric deltas.
    if (opts_.strict_order) filter_.evict_stale();
    flusher_.flush(scratch_);
    StreamObs::get().watermark.set(study_.watermark());
  }
  if (sampled) {
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    StreamObs::get().latency.observe(dt.count());
  }
}

std::uint32_t StreamPipeline::intern(std::string_view name) {
  // Look up the view before inserting: emplace would build (and
  // allocate) a key and node for every tagged line, known source or
  // not.
  const auto it = source_ids_.find(name);
  if (it != source_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(source_ids_.size());
  source_ids_.emplace(name, id);
  return id;
}

void StreamPipeline::ingest_line(std::string_view line) {
  const bool sampled = (latency_tick_++ % 16) == 0;
  const auto t0 = sampled ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
  study_.mark_no_ground_truth();

  // The shared reducer, with no ground truth: every line weighs 1 and
  // the tagger goes unscored (left at zero).
  const auto tagged =
      core::detail::reduce_line(ctx_, line, year_.year_of(line), 1.0,
                                study_.partial(), line_, scratch_);
  const parse::LogRecord& rec = line_.rec;

  sim::SimEvent e;
  e.time = rec.timestamp_valid ? rec.time : study_.watermark();
  e.severity = rec.severity;
  e.weight = 1.0;
  filter::Alert a;
  if (tagged) {
    e.category = static_cast<std::int32_t>(tagged->category);
    a.time = e.time;
    a.category = tagged->category;
    a.type = tagged->type;
    a.source = intern(rec.source);
    a.weight = 1.0;
    e.source = a.source;
  }

  study_.on_event(e, line);
  StreamObs::get().events.inc();
  if (tagged) offer(a);

  if (study_.events() % opts_.study.chunk_events == 0) {
    flusher_.flush(scratch_);
    StreamObs::get().watermark.set(study_.watermark());
  }
  if (sampled) {
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    StreamObs::get().latency.observe(dt.count());
  }
}

void StreamPipeline::publish_metrics() {
  flusher_.flush(scratch_);
  filter_.publish_metrics();
  if (predict_) predict_->publish_metrics();
  StreamObs::get().watermark.set(study_.watermark());
}

void StreamPipeline::finish() {
  if (predict_) predict_->finish();
  publish_metrics();
  study_.finish();
}

StreamSnapshot StreamPipeline::snapshot(SnapshotScope scope) const {
  StreamSnapshot s = study_.snapshot(scope);
  s.year_rollovers = year_.rollovers();
  if (predict_) {
    const PredictStats ps = predict_->stats();
    s.predict_enabled = true;
    s.predict_fitted = ps.fitted;
    s.predict_issued = ps.issued;
    s.predict_hits = ps.hits;
    s.predict_misses = ps.misses;
    s.predict_false_alarms = ps.false_alarms;
    s.predict_incidents = ps.incidents;
    s.predict_routed = ps.routed;
  }
  return s;
}

void StreamPipeline::save(std::ostream& os) {
  // Publish first: the serialized registry must already contain every
  // pending delta, so restore can simply re-base the flushers.
  publish_metrics();
  std::ostringstream payload(std::ios::binary);
  CheckpointWriter w(payload);
  w.header();
  w.u8(static_cast<std::uint8_t>(system_));

  // Options travel with the state: a restored engine must rebuild its
  // accumulators with the exact shapes the checkpoint assumes.
  w.i64(opts_.study.threshold_us);
  w.u64(opts_.study.chunk_events);
  w.i64(opts_.study.window_us);
  w.u64(opts_.study.window_buckets);
  w.u64(opts_.study.reservoir_k);
  w.u64(opts_.study.reservoir_seed);
  w.boolean(opts_.study.capture_compression_sample);
  w.boolean(opts_.study.collect_source_tallies);
  w.boolean(opts_.strict_order);

  // v3: the prediction stage travels too -- options always, state only
  // when enabled.
  w.boolean(opts_.predict.enabled);
  w.u64(opts_.predict.train_alerts);
  w.i64(opts_.predict.horizon_us);

  study_.save(w);
  filter_.save(w);
  if (predict_) predict_->save(w);

  w.i64(year_.year());
  w.u32(static_cast<std::uint32_t>(year_.last_month()));
  w.u32(static_cast<std::uint32_t>(year_.rollovers()));
  w.u64(source_ids_.size());
  for (const auto& [name, id] : source_ids_) {
    w.str(name);
    w.u32(id);
  }

  // v2: the obs registry's counter/gauge tables. Histograms and spans
  // measure this process's wall time and are deliberately absent.
  write_counter_table(w, obs::registry().counter_values());
  write_gauge_table(w, obs::registry().gauge_values());

  os << payload.view() << seal(payload.view());
  if (!os) throw std::runtime_error("checkpoint: write failed");
}

void StreamPipeline::restore(std::istream& is) {
  const std::string bytes{std::istreambuf_iterator<char>(is),
                          std::istreambuf_iterator<char>()};
  std::istringstream body(bytes, std::ios::binary);
  CheckpointReader r(body);
  // Magic and version before the trailer: an old file is told to
  // regenerate, not that its trailer is missing. The parse below stops
  // where the trailer starts.
  r.header();
  unseal(bytes, "checkpoint");
  const auto sys = static_cast<parse::SystemId>(r.u8());
  if (sys != system_) {
    throw std::runtime_error("checkpoint: system mismatch");
  }

  StreamStudyOptions so;
  so.threshold_us = r.i64();
  so.chunk_events = static_cast<std::size_t>(r.u64());
  so.window_us = r.i64();
  so.window_buckets = static_cast<std::size_t>(r.u64());
  so.reservoir_k = static_cast<std::size_t>(r.u64());
  so.reservoir_seed = r.u64();
  so.capture_compression_sample = r.boolean();
  so.collect_source_tallies = r.boolean();
  const bool strict = r.boolean();

  PredictOptions po;
  po.enabled = r.boolean();
  po.train_alerts = static_cast<std::size_t>(r.u64());
  po.horizon_us = r.i64();

  opts_.study = so;
  opts_.strict_order = strict;
  opts_.predict = po;
  ctx_.collect_source_tallies = so.collect_source_tallies;

  predict_.reset();
  if (po.enabled) {
    predict_ = std::make_unique<PredictStage>(po);
    if (psink_) predict_->set_sink(psink_);
  }

  // Assigning over the state joins its compression task, if one still
  // runs (the task reads only the sample it owns).
  study_ = StreamStudyState(system_, so);
  study_.load(r);
  filter_ = OnlineSimultaneousFilter(so.threshold_us, strict);
  filter_.load(r);
  if (predict_) predict_->load(r);

  const int year = static_cast<int>(r.i64());
  const int last_month = static_cast<int>(r.u32());
  const int rollovers = static_cast<int>(r.u32());
  year_.restore(year, last_month, rollovers);

  const std::uint64_t sources = r.u64();
  if (sources > (1u << 24)) {
    throw std::runtime_error("checkpoint: implausible source map size");
  }
  source_ids_.clear();
  for (std::uint64_t i = 0; i < sources; ++i) {
    std::string name = r.str();
    const std::uint32_t id = r.u32();
    source_ids_[std::move(name)] = id;
  }

  // v2: restore the obs registry, then re-base the tag flusher on the
  // (transient, possibly non-zero) scratch so future flushes publish
  // only post-restore growth.
  for (const auto& [name, value] : read_counter_table(r)) {
    obs::registry().set_counter(name, value);
  }
  for (const auto& [name, value] : read_gauge_table(r)) {
    obs::registry().set_gauge(name, value);
  }
  flusher_.rebase(scratch_);
}

}  // namespace wss::stream
