// Ablation (Section 5, "Predict Failures"): single-feature predictors
// vs the per-category ensemble. "Prediction efforts must account for
// significant shifts in system behavior ... predictors should
// specialize in sets of failures with similar predictive behaviors."
//
// Protocol: per system, train on the first 60% of the collection
// window (fit precursor pairs, periodicity, and the ensemble routing),
// evaluate on the remaining 40% against ground-truth failure onsets.
//
// A second, online section replays the same protocol through
// stream::StreamPipeline with the prediction stage enabled (the
// `wss stream --predict` path): train_alerts is sized by a pre-pass so
// the stage fits at the same 60% time boundary, and per-system
// precision / recall / median lead time are printed as a second table.
//
// Exits 1 when the batch ensemble claim is NOT reproduced.
#include "bench_common.hpp"

#include "obs/metrics.hpp"
#include "predict/ensemble.hpp"
#include "predict/periodic.hpp"
#include "predict/precursor.hpp"
#include "predict/rate_burst.hpp"
#include "stream/pipeline.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

/// Median of a fixed-bucket histogram delta, linearly interpolated
/// inside the median bucket (+Inf bucket reports the last bound --
/// lead times above 4h saturate the operational scale anyway).
double bucket_median(const std::vector<double>& bounds,
                     const std::vector<std::uint64_t>& counts) {
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  if (total == 0) return 0.0;
  const double target = static_cast<double>(total) / 2.0;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cum += counts[i];
    if (static_cast<double>(cum) >= target) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : bounds.back();
      const double frac =
          (target - static_cast<double>(cum - counts[i])) /
          static_cast<double>(counts[i]);
      return lo + (hi - lo) * frac;
    }
  }
  return bounds.back();
}

}  // namespace

int main() {
  using namespace wss;
  bench::header("Ablation: failure prediction",
                "single-feature predictors vs per-category ensemble");
  core::Study study(bench::standard_options());

  util::Table t({"System", "Predictor", "Predictions", "Precision",
                 "Recall", "F1"});
  bench::begin_csv("prediction");
  util::CsvWriter csv(std::cout);
  csv.row({"system", "predictor", "predictions", "precision", "recall",
           "f1"});

  bool ensemble_dominates = true;
  for (const auto id : parse::kAllSystems) {
    const auto& spec = sim::system_spec(id);
    const auto all = study.simulator(id).ground_truth_alerts();
    const util::TimeUs split =
        spec.start_time() + (spec.end_time() - spec.start_time()) * 6 / 10;
    std::vector<filter::Alert> train;
    std::vector<filter::Alert> test;
    for (const auto& a : all) (a.time < split ? train : test).push_back(a);
    const auto incidents = predict::ground_truth_incidents(test);
    if (incidents.empty() || train.empty()) continue;

    auto rate = std::make_unique<predict::RateBurstPredictor>();
    auto precursor = std::make_unique<predict::PrecursorPredictor>();
    precursor->fit(train);
    auto periodic = std::make_unique<predict::PeriodicPredictor>();
    periodic->fit(train);

    double best_single = 0.0;
    const auto report = [&](const char* name, predict::Predictor& p,
                            bool single) {
      const auto score = predict::score_predictions(
          predict::run_predictor(p, test), incidents);
      if (single) best_single = std::max(best_single, score.f1());
      t.add_row({std::string(parse::system_name(id)), name,
                 std::to_string(score.predictions),
                 util::format("%.2f", score.precision()),
                 util::format("%.2f", score.recall()),
                 util::format("%.2f", score.f1())});
      csv.row({std::string(parse::system_short_name(id)), name,
               std::to_string(score.predictions),
               util::format("%.4f", score.precision()),
               util::format("%.4f", score.recall()),
               util::format("%.4f", score.f1())});
      return score.f1();
    };
    report("rate-burst", *rate, true);
    report("precursor", *precursor, true);
    report("periodic", *periodic, true);

    std::vector<std::unique_ptr<predict::Predictor>> members;
    members.push_back(std::move(rate));
    members.push_back(std::move(precursor));
    members.push_back(std::move(periodic));
    predict::EnsemblePredictor ensemble(std::move(members));
    ensemble.fit_routing(train);
    const double f1 = report("ensemble", ensemble, false);
    // The comparison is against the best member chosen WITH HINDSIGHT;
    // the ensemble must get close to it without knowing which feature
    // works on this machine. Below the noise floor, everything ties.
    if (best_single >= 0.05 && f1 < 0.85 * best_single) {
      ensemble_dominates = false;
    }
    t.add_separator();
  }
  bench::end_csv("prediction");
  std::cout << "\n" << t.render();

  // ---- Online section: the same protocol through the streaming
  // prediction stage (`wss stream --predict`). ----
  std::cout << "\n==== Online: StreamPipeline --predict ====\n";
  util::Table ot({"System", "Issued", "Precision", "Recall(test)",
                  "MedLead(s)", "Incidents"});
  obs::Histogram& lead_hist = obs::registry().histogram(
      "wss_predict_lead_time_seconds", obs::lead_time_bounds_seconds());
  for (const auto id : parse::kAllSystems) {
    const auto& simulator = study.simulator(id);
    const auto& events = simulator.events();
    if (events.empty()) continue;
    const auto& spec = sim::system_spec(id);
    const util::TimeUs split =
        spec.start_time() + (spec.end_time() - spec.start_time()) * 6 / 10;

    // Pre-pass: how many raw alerts does the pipeline itself offer
    // before the 60% boundary? That count, as train_alerts, makes the
    // online stage fit at the batch protocol's train/test cut.
    std::uint64_t train_alerts = 0;
    {
      stream::StreamPipeline pre(id);
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (events[i].time >= split) break;
        pre.ingest(events[i], simulator.line(i));
      }
      pre.finish();
      train_alerts = pre.snapshot().alerts_offered;
    }
    if (train_alerts == 0) continue;

    const auto lead_before = lead_hist.bucket_counts();
    stream::StreamPipelineOptions popts;
    popts.predict.enabled = true;
    popts.predict.train_alerts = train_alerts;
    stream::StreamPipeline pipeline(id, popts);
    std::uint64_t incidents_at_fit = 0;
    bool seen_fit = false;
    for (std::size_t i = 0; i < events.size(); ++i) {
      pipeline.ingest(events[i], simulator.line(i));
      if (!seen_fit && pipeline.predict_stage()->fitted()) {
        seen_fit = true;
        incidents_at_fit = pipeline.predict_stage()->stats().incidents;
      }
    }
    pipeline.finish();
    const auto snap = pipeline.snapshot();
    const auto lead_after = lead_hist.bucket_counts();
    std::vector<std::uint64_t> lead_delta(lead_after.size(), 0);
    for (std::size_t i = 0; i < lead_after.size(); ++i) {
      lead_delta[i] = lead_after[i] - lead_before[i];
    }
    const double median_lead =
        bucket_median(lead_hist.bounds(), lead_delta);

    // Pre-fit incidents are unpredictable by construction (the stage
    // is still training), so test recall excludes them; precision is
    // over issued predictions, all of which are post-fit.
    const std::uint64_t issued = snap.predict_issued;
    const std::uint64_t test_incidents =
        snap.predict_incidents - incidents_at_fit;
    const double precision =
        issued == 0 ? 0.0
                    : static_cast<double>(issued - snap.predict_false_alarms) /
                          static_cast<double>(issued);
    const double recall =
        test_incidents == 0
            ? 0.0
            : static_cast<double>(snap.predict_hits) /
                  static_cast<double>(test_incidents);

    ot.add_row({std::string(parse::system_name(id)), std::to_string(issued),
                util::format("%.2f", precision), util::format("%.2f", recall),
                util::format("%.0f", median_lead),
                std::to_string(snap.predict_incidents)});
  }
  std::cout << ot.render();
  std::cout << util::format(
      "\nEnsemble within 15%% of the best hindsight-chosen single\n"
      "predictor on every system, without knowing which feature works\n"
      "where: %s\n"
      "(Low absolute recall matches the paper: many failure categories\n"
      "carry no predictive signature at all, and no single feature\n"
      "covers every machine -- hence the ensemble recommendation.)\n",
      ensemble_dominates ? "REPRODUCED" : "NOT reproduced");
  return ensemble_dominates ? 0 : 1;
}
