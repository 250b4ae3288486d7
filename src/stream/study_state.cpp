#include "stream/study_state.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "compress/codec.hpp"
#include "obs/metrics.hpp"

namespace wss::stream {

namespace {

/// A fresh chunk partial with the same zero-state the batch
/// core::detail::make_partial produces.
core::PipelineResult fresh_partial(parse::SystemId system,
                                   std::size_t num_categories) {
  core::PipelineResult r;
  r.system = system;
  r.weighted_alert_counts.assign(num_categories, 0.0);
  r.physical_alert_counts.assign(num_categories, 0);
  return r;
}

/// Wall time of each Table 2 compression of the sample; its count is
/// the number of compressions the process has run.
obs::Histogram& compression_seconds() {
  static obs::Histogram& h = obs::registry().histogram(
      "wss_stream_compression_seconds", obs::latency_bounds_seconds());
  return h;
}

/// compress::compression_fraction, timed into compression_seconds().
double timed_fraction(std::string_view sample) {
  const auto t0 = std::chrono::steady_clock::now();
  const double fraction = compress::compression_fraction(sample);
  compression_seconds().observe(std::chrono::duration<double>(
      std::chrono::steady_clock::now() - t0).count());
  return fraction;
}

}  // namespace

std::vector<double> StreamSnapshot::category_rates_per_day() const {
  std::vector<double> rates(weighted_alert_counts.size(), 0.0);
  const double elapsed_days =
      static_cast<double>(watermark - first_time) /
      static_cast<double>(util::kUsPerDay);
  if (elapsed_days <= 0.0) return rates;
  for (std::size_t c = 0; c < rates.size(); ++c) {
    rates[c] = weighted_alert_counts[c] / elapsed_days;
  }
  return rates;
}

StreamStudyState::StreamStudyState(parse::SystemId system,
                                   const StreamStudyOptions& opts)
    : system_(system),
      opts_(opts),
      num_categories_(tag::categories_of(system).size()),
      total_(fresh_partial(system, num_categories_)),
      partial_(fresh_partial(system, num_categories_)),
      filtered_counts_(num_categories_, 0),
      gap_reservoir_(opts.reservoir_k, opts.reservoir_seed),
      window_messages_(opts.window_us, opts.window_buckets),
      window_raw_alerts_(opts.window_us, opts.window_buckets),
      window_admitted_(opts.window_us, opts.window_buckets) {
  if (opts.chunk_events == 0) {
    throw std::invalid_argument("StreamStudyOptions: chunk_events must be > 0");
  }
}

void StreamStudyState::on_event(const sim::SimEvent& e,
                                std::string_view line) {
  if (finished_) {
    throw std::logic_error("StreamStudyState: on_event after finish()");
  }
  if (!any_event_) {
    first_time_ = e.time;
    any_event_ = true;
  }
  watermark_ = std::max(watermark_, e.time);
  ++events_;
  window_messages_.add(e.time, e.weight);

  if (opts_.capture_compression_sample &&
      sampled_lines_ < kCompressionSampleLines) {
    compression_sample_.append(line);
    compression_sample_.push_back('\n');
    if (++sampled_lines_ == kCompressionSampleLines) {
      // Deferred only when no thread can be started: the first full
      // snapshot or save() then compresses on the thread that calls it.
      compression_task_ = std::async(
          std::launch::async | std::launch::deferred,
          [text = std::exchange(compression_sample_, {})]() mutable {
            const std::string sample = std::move(text);  // freed on return
            return SampleFraction{sample.size(), timed_fraction(sample)};
          });
    }
  }

  ++events_in_partial_;
  if (events_in_partial_ >= opts_.chunk_events) merge_open_chunk();
}

void StreamStudyState::on_filter_verdict(const filter::Alert& a,
                                         bool admitted) {
  ++alerts_offered_;
  window_raw_alerts_.add(a.time, a.weight);
  if (!admitted) return;

  ++alerts_admitted_;
  if (a.category >= filtered_counts_.size()) {
    filtered_counts_.resize(static_cast<std::size_t>(a.category) + 1, 0);
  }
  ++filtered_counts_[a.category];
  ++filtered_by_type_[static_cast<std::size_t>(a.type)];
  window_admitted_.add(a.time, 1.0);

  if (any_admitted_) {
    const double gap_s = static_cast<double>(a.time - last_admitted_time_) /
                         static_cast<double>(util::kUsPerSec);
    gap_moments_.add(gap_s);
    gap_reservoir_.add(gap_s);
  }
  last_admitted_time_ = a.time;
  any_admitted_ = true;
}

void StreamStudyState::merge_open_chunk() {
  // The per-chunk tagged-alert vector is the one batch output no table
  // consumes; dropping it here (instead of letting it accumulate) is
  // the O(log) -> O(chunk) memory step. Everything else merges exactly
  // as core::run_pipeline does, in chunk order.
  partial_.tagged_alerts.clear();
  core::detail::merge_partial(total_, std::move(partial_));
  partial_ = fresh_partial(system_, num_categories_);
  events_in_partial_ = 0;
  // Same chunk-merge accounting as the batch run/merge loops; NOT in
  // merge_partial itself, because snapshot() merges a copy.
  core::detail::PipelineCounters::get().chunks.inc();
}

void StreamStudyState::finish() {
  if (finished_) return;
  if (events_in_partial_ > 0) merge_open_chunk();
  finished_ = true;
}

StreamSnapshot StreamStudyState::snapshot(SnapshotScope scope) const {
  // Fold the open chunk into a copy of the running total -- the same
  // partial-merge the batch pipeline would perform if the log ended
  // here.
  core::PipelineResult acc = total_;
  if (events_in_partial_ > 0) {
    core::PipelineResult part = partial_;
    part.tagged_alerts.clear();
    core::detail::merge_partial(acc, std::move(part));
  }
  core::detail::finalize_result(acc);

  StreamSnapshot s;
  s.system = system_;
  s.finished = finished_;
  s.events = events_;
  s.first_time = first_time_;
  s.watermark = watermark_;

  s.physical_messages = acc.physical_messages;
  s.weighted_messages = acc.weighted_messages;
  s.physical_bytes = acc.physical_bytes;
  s.weighted_bytes = acc.weighted_bytes;
  s.corrupted_source_lines = acc.corrupted_source_lines;
  s.invalid_timestamp_lines = acc.invalid_timestamp_lines;
  s.weighted_alert_counts = acc.weighted_alert_counts;
  s.physical_alert_counts = acc.physical_alert_counts;
  s.categories_observed = acc.categories_observed;
  s.tagging = acc.tagging;
  s.has_ground_truth = has_ground_truth_;

  // Table 2 derived fields: the exact expressions of
  // core::table2_row, evaluated on bit-identical inputs.
  const auto& spec = sim::system_spec(system_);
  s.days = spec.days;
  s.measured_gb = acc.weighted_bytes / 1e9;
  s.rate_bytes_per_sec =
      acc.weighted_bytes / (static_cast<double>(spec.days) * 86400.0);
  s.messages = acc.weighted_messages;
  for (const double w : acc.weighted_alert_counts) s.alerts += w;

  if (scope == SnapshotScope::kFull) {
    if (sampled_lines_ == kCompressionSampleLines) {
      s.compressed_fraction = filled_fraction().fraction;
    } else if (!compression_sample_.empty()) {
      if (!compression_cache_ ||
          compression_cache_->bytes != compression_sample_.size()) {
        compression_cache_ = {compression_sample_.size(),
                              timed_fraction(compression_sample_)};
      }
      s.compressed_fraction = compression_cache_->fraction;
    }
  }

  s.alerts_offered = alerts_offered_;
  s.alerts_admitted = alerts_admitted_;
  s.filtered_counts = filtered_counts_;
  for (int i = 0; i < 3; ++i) s.filtered_by_type[i] = filtered_by_type_[i];

  s.gap_count = gap_moments_.count();
  s.gap_mean_s = gap_moments_.mean();
  s.gap_stddev_s = gap_moments_.stddev();
  s.gap_min_s = gap_moments_.min();
  s.gap_max_s = gap_moments_.max();
  s.gap_p50_s = gap_reservoir_.quantile(0.50);
  s.gap_p95_s = gap_reservoir_.quantile(0.95);
  s.gap_p99_s = gap_reservoir_.quantile(0.99);

  s.window_seconds = static_cast<double>(window_messages_.window()) /
                     static_cast<double>(util::kUsPerSec);
  s.messages_in_window = window_messages_.total(watermark_);
  s.raw_alerts_in_window = window_raw_alerts_.total(watermark_);
  s.admitted_in_window = window_admitted_.total(watermark_);
  return s;
}

const StreamStudyState::SampleFraction& StreamStudyState::filled_fraction()
    const {
  if (compression_task_.valid()) compression_cache_ = compression_task_.get();
  return *compression_cache_;
}

void StreamStudyState::save_result(CheckpointWriter& w,
                                   const core::PipelineResult& r) {
  // tagged_alerts is intentionally not serialized: it is cleared at
  // every chunk merge and no streaming output reads it.
  w.u8(static_cast<std::uint8_t>(r.system));
  w.u64(r.physical_messages);
  w.f64(r.weighted_messages);
  w.u64(r.physical_bytes);
  w.f64(r.weighted_bytes);
  w.u64(r.corrupted_source_lines);
  w.u64(r.invalid_timestamp_lines);
  w.u64(r.weighted_alert_counts.size());
  for (const double v : r.weighted_alert_counts) w.f64(v);
  for (const std::uint64_t v : r.physical_alert_counts) w.u64(v);
  w.u64(r.tagging.true_positives);
  w.u64(r.tagging.false_positives);
  w.u64(r.tagging.true_negatives);
  w.u64(r.tagging.false_negatives);
  w.u64(r.messages_by_source.size());
  for (const auto& [source, weight] : r.messages_by_source) {
    w.str(source);
    w.f64(weight);
  }
  w.f64(r.corrupted_source_weight);
}

void StreamStudyState::load_result(CheckpointReader& r,
                                   core::PipelineResult& out) {
  out.system = static_cast<parse::SystemId>(r.u8());
  out.physical_messages = r.u64();
  out.weighted_messages = r.f64();
  out.physical_bytes = r.u64();
  out.weighted_bytes = r.f64();
  out.corrupted_source_lines = r.u64();
  out.invalid_timestamp_lines = r.u64();
  const std::uint64_t n = r.u64();
  if (n > (1u << 20)) {
    throw std::runtime_error("checkpoint: implausible category count");
  }
  out.weighted_alert_counts.assign(static_cast<std::size_t>(n), 0.0);
  out.physical_alert_counts.assign(static_cast<std::size_t>(n), 0);
  for (auto& v : out.weighted_alert_counts) v = r.f64();
  for (auto& v : out.physical_alert_counts) v = r.u64();
  out.tagging = {};
  out.tagging.add(true, true, r.u64());
  out.tagging.add(true, false, r.u64());
  out.tagging.add(false, false, r.u64());
  out.tagging.add(false, true, r.u64());
  const std::uint64_t sources = r.u64();
  if (sources > (1u << 24)) {
    throw std::runtime_error("checkpoint: implausible source count");
  }
  out.messages_by_source.clear();
  for (std::uint64_t i = 0; i < sources; ++i) {
    std::string name = r.str();
    out.messages_by_source[std::move(name)] = r.f64();
  }
  out.corrupted_source_weight = r.f64();
  out.tagged_alerts.clear();
}

void StreamStudyState::save(CheckpointWriter& w) const {
  save_result(w, total_);
  save_result(w, partial_);
  w.u64(events_in_partial_);
  w.u64(events_);
  w.i64(first_time_);
  w.i64(watermark_);
  w.boolean(any_event_);
  w.boolean(finished_);
  w.boolean(has_ground_truth_);

  w.u64(filtered_counts_.size());
  for (const std::uint64_t v : filtered_counts_) w.u64(v);
  for (int i = 0; i < 3; ++i) w.u64(filtered_by_type_[i]);
  w.u64(alerts_offered_);
  w.u64(alerts_admitted_);

  gap_moments_.save(w);
  gap_reservoir_.save(w);
  w.i64(last_admitted_time_);
  w.boolean(any_admitted_);

  window_messages_.save(w);
  window_raw_alerts_.save(w);
  window_admitted_.save(w);

  // v6: a filled sample travels as its raw size and fraction (bit
  // exact), a filling one as its text.
  w.u64(sampled_lines_);
  if (sampled_lines_ == kCompressionSampleLines) {
    const SampleFraction& f = filled_fraction();
    w.u64(f.bytes);
    w.f64(f.fraction);
  } else {
    w.str(compression_sample_);
  }
}

void StreamStudyState::load(CheckpointReader& r) {
  load_result(r, total_);
  load_result(r, partial_);
  events_in_partial_ = static_cast<std::size_t>(r.u64());
  events_ = r.u64();
  first_time_ = r.i64();
  watermark_ = r.i64();
  any_event_ = r.boolean();
  finished_ = r.boolean();
  has_ground_truth_ = r.boolean();

  const std::uint64_t n = r.u64();
  if (n > (1u << 20)) {
    throw std::runtime_error("checkpoint: implausible filtered count size");
  }
  filtered_counts_.assign(static_cast<std::size_t>(n), 0);
  for (auto& v : filtered_counts_) v = r.u64();
  for (int i = 0; i < 3; ++i) filtered_by_type_[i] = r.u64();
  alerts_offered_ = r.u64();
  alerts_admitted_ = r.u64();

  gap_moments_.load(r);
  gap_reservoir_.load(r);
  last_admitted_time_ = r.i64();
  any_admitted_ = r.boolean();

  window_messages_.load(r);
  window_raw_alerts_.load(r);
  window_admitted_.load(r);

  compression_task_ = {};
  compression_cache_.reset();
  compression_sample_.clear();
  const std::uint64_t sampled = r.u64();
  if (sampled > kCompressionSampleLines) {
    throw std::runtime_error("checkpoint: implausible sample line count");
  }
  sampled_lines_ = static_cast<std::size_t>(sampled);
  if (sampled_lines_ == kCompressionSampleLines) {
    SampleFraction f;
    f.bytes = r.u64();
    f.fraction = r.f64();
    compression_cache_ = f;
  } else {
    compression_sample_ = r.str();
  }
}

}  // namespace wss::stream
