#include "stream/predict_stage.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace wss::stream {

namespace {

/// Incident-detection quiet gap (matches the batch predictors).
constexpr util::TimeUs kIncidentGapUs = 30 * util::kUsPerSec;

/// seen_failures_ horizon: a failure id older than this of stream time
/// can be forgotten (ids are not reused across days in any corpus).
constexpr util::TimeUs kFailureHorizonUs = 24 * util::kUsPerHour;

/// Pending predictions are expired every this many observed alerts
/// (checkpointed via observed_, so interrupted and uninterrupted runs
/// expire at identical points).
constexpr std::uint64_t kExpiryStride = 64;

/// Hard bound on the pending set; the oldest entries are force-expired
/// (unhit ones as false alarms) beyond it.
constexpr std::size_t kMaxPending = 16384;

/// Cached handles for the prediction metrics (registration is cold).
struct PredictObs {
  obs::Counter& issued;
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& false_alarms;
  obs::Counter& incidents;
  obs::Histogram& lead_time;
  static PredictObs& get() {
    static PredictObs s{
        obs::registry().counter("wss_predict_issued_total"),
        obs::registry().counter("wss_predict_hits_total"),
        obs::registry().counter("wss_predict_misses_total"),
        obs::registry().counter("wss_predict_false_alarms_total"),
        obs::registry().counter("wss_predict_incidents_total"),
        obs::registry().histogram("wss_predict_lead_time_seconds",
                                  obs::lead_time_bounds_seconds()),
    };
    return s;
  }
};

}  // namespace

PredictStage::PredictStage(const PredictOptions& opts) : opts_(opts) {
  if (opts_.train_alerts == 0) {
    throw std::invalid_argument("predict stage: train_alerts must be >= 1");
  }
  if (opts_.horizon_us <= 0) {
    throw std::invalid_argument("predict stage: horizon must be positive");
  }
  auto rate = std::make_unique<predict::RateBurstPredictor>();
  predict::PrecursorOptions popts;
  popts.window_us = opts_.horizon_us;
  auto prec = std::make_unique<predict::PrecursorPredictor>(popts);
  auto peri = std::make_unique<predict::PeriodicPredictor>();
  rate_burst_ = rate.get();
  precursor_ = prec.get();
  periodic_ = peri.get();
  // The one place ensemble membership is decided. The routing table
  // (and so a checkpoint) stores member indices in this order.
  std::vector<std::unique_ptr<predict::Predictor>> members;
  members.push_back(std::move(rate));
  members.push_back(std::move(prec));
  members.push_back(std::move(peri));
  ensemble_ = std::make_unique<predict::EnsemblePredictor>(std::move(members));
}

bool PredictStage::is_incident(const filter::Alert& a, bool ground_truth) {
  if (ground_truth) {
    // Simulated streams: an incident is the first alert of each
    // distinct failure (the predict::ground_truth_incidents rule);
    // chatter (id 0) is never an incident.
    if (a.failure_id == 0) return false;
    return seen_failures_.emplace(a.failure_id, a.time).second;
  }
  // Parsed real logs: quiet-gap heuristic per category.
  const auto it = gap_last_.find(a.category);
  const bool fresh = it == gap_last_.end() ||
                     a.time - it->second >= kIncidentGapUs;
  gap_last_[a.category] = a.time;
  return fresh;
}

void PredictStage::score_incident(const filter::Alert& a) {
  ++incidents_;
  bool any = false;
  util::TimeUs earliest = 0;
  for (PendingPrediction& pp : pending_) {
    if (pp.p.category != a.category) continue;
    if (pp.p.issued_at >= a.time) continue;  // zero lead is no warning
    if (a.time < pp.p.window_begin || a.time > pp.p.window_end) continue;
    pp.hit = true;
    if (!any || pp.p.issued_at < earliest) earliest = pp.p.issued_at;
    any = true;
  }
  if (any) {
    ++hits_;
    PredictObs::get().lead_time.observe(
        static_cast<double>(a.time - earliest) / 1e6);
  } else {
    ++misses_;
  }
}

void PredictStage::expire(util::TimeUs before) {
  auto keep = pending_.begin();
  for (PendingPrediction& pp : pending_) {
    if (pp.p.window_end < before) {
      if (!pp.hit) ++false_alarms_;
    } else {
      *keep++ = pp;
    }
  }
  pending_.erase(keep, pending_.end());
  if (pending_.size() > kMaxPending) {
    const std::size_t excess = pending_.size() - kMaxPending;
    for (std::size_t i = 0; i < excess; ++i) {
      if (!pending_[i].hit) ++false_alarms_;
    }
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(excess));
  }
  // Shed failure ids the stream has moved past.
  while (!seen_failures_.empty()) {
    const auto oldest = std::min_element(
        seen_failures_.begin(), seen_failures_.end(),
        [](const auto& x, const auto& y) { return x.second < y.second; });
    if (watermark_ - oldest->second < kFailureHorizonUs) break;
    seen_failures_.erase(oldest);
  }
}

void PredictStage::fit() {
  precursor_->fit(training_);
  periodic_->fit(training_);
  // fit_routing streams the training vector through every member once
  // and resets their streaming state after.
  ensemble_->fit_routing(training_);
  fitted_ = true;
  training_.clear();
  training_.shrink_to_fit();
}

void PredictStage::observe(const filter::Alert& a, bool ground_truth) {
  ++observed_;
  if (a.time > watermark_) watermark_ = a.time;

  // Score first: a prediction issued *by* this alert cannot claim it.
  if (is_incident(a, ground_truth)) score_incident(a);

  if (!fitted_) {
    training_.push_back(a);
    if (training_.size() >= opts_.train_alerts) fit();
  } else {
    ensemble_->observe(a);
    for (const predict::Prediction& p : ensemble_->drain()) {
      ++issued_;
      pending_.push_back(PendingPrediction{p, false});
      if (sink_) sink_(p);
    }
  }

  if (observed_ % kExpiryStride == 0) expire(watermark_);
}

void PredictStage::finish() {
  // +1: a window ending exactly at the watermark has had its last
  // chance (the alert at the watermark was already scored). Windows
  // still open stay undecided -- neither hit nor false alarm.
  expire(watermark_ + 1);
}

PredictStats PredictStage::stats() const {
  PredictStats s;
  s.fitted = fitted_;
  s.issued = issued_;
  s.hits = hits_;
  s.misses = misses_;
  s.false_alarms = false_alarms_;
  s.incidents = incidents_;
  s.routed = ensemble_->routing().size();
  return s;
}

void PredictStage::publish_metrics() {
  PredictObs& o = PredictObs::get();
  o.issued.inc(issued_ - published_issued_);
  o.hits.inc(hits_ - published_hits_);
  o.misses.inc(misses_ - published_misses_);
  o.false_alarms.inc(false_alarms_ - published_false_alarms_);
  o.incidents.inc(incidents_ - published_incidents_);
  published_issued_ = issued_;
  published_hits_ = hits_;
  published_misses_ = misses_;
  published_false_alarms_ = false_alarms_;
  published_incidents_ = incidents_;
}

void PredictStage::save(CheckpointWriter& w) const {
  w.boolean(fitted_);
  w.u64(observed_);
  w.i64(watermark_);

  w.u64(static_cast<std::uint64_t>(training_.size()));
  for (const filter::Alert& a : training_) {
    w.i64(a.time);
    w.u32(a.source);
    w.u32(a.category);
    w.u8(static_cast<std::uint8_t>(a.type));
    w.u64(a.failure_id);
    w.f64(a.weight);
  }

  rate_burst_->save(w);
  precursor_->save(w);
  periodic_->save(w);
  ensemble_->save_routing(w);

  w.u64(static_cast<std::uint64_t>(seen_failures_.size()));
  for (const auto& [id, t] : seen_failures_) {
    w.u64(id);
    w.i64(t);
  }
  w.u64(static_cast<std::uint64_t>(gap_last_.size()));
  for (const auto& [cat, t] : gap_last_) {
    w.u32(cat);
    w.i64(t);
  }

  w.u64(static_cast<std::uint64_t>(pending_.size()));
  for (const PendingPrediction& pp : pending_) {
    w.i64(pp.p.issued_at);
    w.u32(pp.p.category);
    w.i64(pp.p.window_begin);
    w.i64(pp.p.window_end);
    w.u8(pp.hit ? 1 : 0);
  }

  w.u64(issued_);
  w.u64(hits_);
  w.u64(misses_);
  w.u64(false_alarms_);
  w.u64(incidents_);
}

void PredictStage::load(CheckpointReader& r) {
  fitted_ = r.boolean();
  observed_ = r.u64();
  watermark_ = r.i64();

  training_.clear();
  const std::uint64_t nt = r.u64();
  if (nt > opts_.train_alerts) {
    throw std::runtime_error("checkpoint: implausible training buffer size");
  }
  for (std::uint64_t i = 0; i < nt; ++i) {
    filter::Alert a;
    a.time = r.i64();
    a.source = r.u32();
    a.category = static_cast<std::uint16_t>(r.u32());
    a.type = static_cast<filter::AlertType>(r.u8());
    a.failure_id = r.u64();
    a.weight = r.f64();
    training_.push_back(a);
  }

  rate_burst_->load(r);
  precursor_->load(r);
  periodic_->load(r);
  ensemble_->load_routing(r);

  seen_failures_.clear();
  const std::uint64_t nf = r.u64();
  if (nf > (1u << 24)) {
    throw std::runtime_error("checkpoint: implausible failure map size");
  }
  for (std::uint64_t i = 0; i < nf; ++i) {
    const std::uint64_t id = r.u64();
    seen_failures_[id] = r.i64();
  }
  gap_last_.clear();
  const std::uint64_t ng = r.u64();
  if (ng > (1u << 20)) {
    throw std::runtime_error("checkpoint: implausible gap map size");
  }
  for (std::uint64_t i = 0; i < ng; ++i) {
    const auto cat = static_cast<std::uint16_t>(r.u32());
    gap_last_[cat] = r.i64();
  }

  pending_.clear();
  const std::uint64_t np = r.u64();
  if (np > kMaxPending) {
    throw std::runtime_error("checkpoint: implausible pending set size");
  }
  for (std::uint64_t i = 0; i < np; ++i) {
    PendingPrediction pp;
    pp.p.issued_at = r.i64();
    pp.p.category = static_cast<std::uint16_t>(r.u32());
    pp.p.window_begin = r.i64();
    pp.p.window_end = r.i64();
    pp.hit = r.u8() != 0;
    pending_.push_back(pp);
  }

  issued_ = r.u64();
  hits_ = r.u64();
  misses_ = r.u64();
  false_alarms_ = r.u64();
  incidents_ = r.u64();

  // The restored registry (saved after a publish) already holds every
  // published delta; re-base so nothing is double-counted.
  published_issued_ = issued_;
  published_hits_ = hits_;
  published_misses_ = misses_;
  published_false_alarms_ = false_alarms_;
  published_incidents_ = incidents_;
}

}  // namespace wss::stream
