// Online failure prediction as a pipeline stage.
//
// Runs the Section 5 ensemble (rate-burst, precursor, periodic) over
// the offered alert stream inside StreamPipeline. The stage has three
// jobs:
//
//  1. *Self-training.* The first `train_alerts` offered alerts are
//     buffered; at the boundary the batch fit steps run once
//     (precursor pairs, periodic periods, ensemble routing) and the
//     buffer is dropped. Until then no predictions are issued.
//
//  2. *Lead-time accounting.* Every issued prediction is held in a
//     pending set until its window closes. Incidents are detected
//     online -- by first-alert-of-failure_id when the stream carries
//     ground truth, by a 30s quiet-gap heuristic otherwise -- and
//     each incident is scored the moment it happens: `hit` if some
//     pending prediction of its category covers it (lead time =
//     incident time minus the earliest covering issue time, observed
//     into wss_predict_lead_time_seconds), `miss` otherwise. A
//     prediction whose window expires uncovered is a `false alarm`.
//     Incidents are scored from the first alert (the training phase
//     has no predictions, so early incidents count as misses), which
//     keeps the reconciliation identity hits + misses == incidents
//     exact over the whole stream.
//
//  3. *Bit-exact checkpointing.* save()/load() carry the training
//     buffer, every member's learned + streaming state, the routing
//     table, the pending set, and all counters, so restore-and-finish
//     emits byte-identical predictions to an uninterrupted run
//     (checkpoint v5). Like the ingest-latency histogram, the
//     lead-time histogram is live-only and not checkpointed.
#pragma once

#include <functional>
#include <map>

#include "predict/ensemble.hpp"
#include "predict/periodic.hpp"
#include "predict/precursor.hpp"
#include "predict/rate_burst.hpp"
#include "stream/checkpoint.hpp"

namespace wss::stream {

/// Knobs for PredictStage.
struct PredictOptions {
  bool enabled = false;
  /// Offered alerts buffered before the one-shot fit.
  std::size_t train_alerts = 4096;
  /// Prediction window (the precursor member's window_us; the other
  /// members keep their own defaults).
  util::TimeUs horizon_us = 10 * util::kUsPerMin;
};

/// Point-in-time prediction tallies (StreamSnapshot payload and the
/// per-tenant /status fields).
struct PredictStats {
  bool fitted = false;
  std::uint64_t issued = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t false_alarms = 0;
  std::uint64_t incidents = 0;
  std::size_t routed = 0;  ///< ensemble routed categories
};

/// The online prediction stage (see file comment).
class PredictStage {
 public:
  using PredictionSink = std::function<void(const predict::Prediction&)>;

  explicit PredictStage(const PredictOptions& opts);

  /// Consumes one offered alert in stream order. `ground_truth` picks
  /// the incident-detection mode (see file comment).
  void observe(const filter::Alert& a, bool ground_truth);

  /// End-of-stream: expires every pending prediction whose window has
  /// closed (windows still open at the watermark stay undecided).
  void finish();

  /// Sink for issued predictions (called inside observe()).
  void set_sink(PredictionSink sink) { sink_ = std::move(sink); }

  PredictStats stats() const;
  bool fitted() const { return fitted_; }
  const PredictOptions& options() const { return opts_; }
  const predict::EnsemblePredictor& ensemble() const { return *ensemble_; }

  /// Publishes counter growth since the last publish to the global
  /// wss_predict_* counters. Idempotent; call at cold points.
  void publish_metrics();

  void save(CheckpointWriter& w) const;
  void load(CheckpointReader& r);

 private:
  struct PendingPrediction {
    predict::Prediction p;
    bool hit = false;
  };

  void fit();
  void score_incident(const filter::Alert& a);
  bool is_incident(const filter::Alert& a, bool ground_truth);
  void expire(util::TimeUs before);

  PredictOptions opts_;

  // Ensemble members: owned by ensemble_, concrete handles kept for
  // fit and serialization.
  predict::RateBurstPredictor* rate_burst_ = nullptr;
  predict::PrecursorPredictor* precursor_ = nullptr;
  predict::PeriodicPredictor* periodic_ = nullptr;
  std::unique_ptr<predict::EnsemblePredictor> ensemble_;

  bool fitted_ = false;
  std::uint64_t observed_ = 0;
  util::TimeUs watermark_ = 0;
  std::vector<filter::Alert> training_;

  // Incident detection state.
  std::map<std::uint64_t, util::TimeUs> seen_failures_;  ///< id -> first time
  std::map<std::uint16_t, util::TimeUs> gap_last_;       ///< cat -> last alert

  std::vector<PendingPrediction> pending_;

  std::uint64_t issued_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t false_alarms_ = 0;
  std::uint64_t incidents_ = 0;

  // Publish baselines (NOT checkpointed: save() publishes pending
  // deltas first, and load() re-bases on the loaded tallies because
  // the restored registry already contains everything published).
  std::uint64_t published_issued_ = 0;
  std::uint64_t published_hits_ = 0;
  std::uint64_t published_misses_ = 0;
  std::uint64_t published_false_alarms_ = 0;
  std::uint64_t published_incidents_ = 0;

  PredictionSink sink_;
};

}  // namespace wss::stream
