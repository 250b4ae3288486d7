// Batch-vs-stream prediction equivalence: the online PredictStage
// (`wss stream --predict`), fed one event at a time, must issue
// exactly the Prediction set that the batch predictors API produces
// from the same alert stream with the same train/test split -- on all
// five systems, and regardless of the batch study's thread count.
//
// The stream side offers ground-truth alerts to the stage (the
// event-ingest path constructs them exactly as
// Simulator::ground_truth_alerts() does), so the batch reference is
// the same three-member ensemble (rate burst, precursor, periodic)
// fitted on the first train_alerts alerts and run over the remainder.
// Sets are compared canonically sorted -- the ensemble drain order is
// not part of the contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "core/study.hpp"
#include "predict/ensemble.hpp"
#include "predict/periodic.hpp"
#include "predict/precursor.hpp"
#include "predict/rate_burst.hpp"
#include "stream/pipeline.hpp"

namespace wss {
namespace {

sim::SimOptions small_sim(std::uint64_t seed) {
  sim::SimOptions opts;
  opts.seed = seed;
  opts.category_cap = 1500;
  opts.chatter_events = 10000;
  return opts;
}

using PredictionKey =
    std::tuple<util::TimeUs, std::uint16_t, util::TimeUs, util::TimeUs>;

std::vector<PredictionKey> canonical(
    const std::vector<predict::Prediction>& ps) {
  std::vector<PredictionKey> keys;
  keys.reserve(ps.size());
  for (const auto& p : ps) {
    keys.emplace_back(p.issued_at, p.category, p.window_begin, p.window_end);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// The batch reference: mirrors PredictStage's construction and fit
/// order exactly (predict_stage.cpp is the normative copy).
std::vector<predict::Prediction> batch_predictions(
    const std::vector<filter::Alert>& alerts,
    const stream::PredictOptions& opts) {
  auto rate = std::make_unique<predict::RateBurstPredictor>();
  predict::PrecursorOptions popts;
  popts.window_us = opts.horizon_us;
  auto prec = std::make_unique<predict::PrecursorPredictor>(popts);
  auto peri = std::make_unique<predict::PeriodicPredictor>();
  auto* prec_raw = prec.get();
  auto* peri_raw = peri.get();
  std::vector<std::unique_ptr<predict::Predictor>> members;
  members.push_back(std::move(rate));
  members.push_back(std::move(prec));
  members.push_back(std::move(peri));
  predict::EnsemblePredictor ensemble(std::move(members));

  const std::size_t cut = std::min(opts.train_alerts, alerts.size());
  const std::vector<filter::Alert> train(alerts.begin(),
                                         alerts.begin() +
                                             static_cast<std::ptrdiff_t>(cut));
  prec_raw->fit(train);
  peri_raw->fit(train);
  ensemble.fit_routing(train);

  const std::vector<filter::Alert> test(
      alerts.begin() + static_cast<std::ptrdiff_t>(cut), alerts.end());
  return predict::run_predictor(ensemble, test);
}

struct StreamRun {
  std::vector<predict::Prediction> predictions;
  stream::StreamSnapshot snapshot;
};

StreamRun stream_predictions(const sim::Simulator& simulator,
                             const stream::PredictOptions& predict) {
  stream::StreamPipelineOptions popts;
  popts.predict = predict;
  stream::StreamPipeline pipeline(simulator.spec().id, popts);
  StreamRun run;
  pipeline.set_prediction_sink(
      [&run](const predict::Prediction& p) { run.predictions.push_back(p); });
  const auto& events = simulator.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    pipeline.ingest(events[i], simulator.renderer().render(events[i], i));
  }
  pipeline.finish();
  run.snapshot = pipeline.snapshot();
  return run;
}

TEST(PredictStream, StreamEqualsBatchAllSystemsBothThreadCounts) {
  for (const auto id : parse::kAllSystems) {
    SCOPED_TRACE(parse::system_short_name(id));

    // Two batch studies, serial and 4-way threaded: prediction inputs
    // and outputs must not depend on the study's thread count.
    std::vector<PredictionKey> batch_by_threads[2];
    stream::PredictOptions predict;
    predict.enabled = true;
    int slot = 0;
    for (const int threads : {1, 4}) {
      core::StudyOptions sopts;
      sopts.sim = small_sim(42);
      sopts.pipeline.num_threads = threads;
      core::Study study(sopts);
      // Engage the threaded pipeline path for real, then predict from
      // the study's alert stream.
      (void)study.parallel_pipeline_result(id);
      const auto alerts = study.simulator(id).ground_truth_alerts();
      if (alerts.size() < 10) GTEST_SKIP() << "stream too small";
      predict.train_alerts = alerts.size() * 6 / 10;
      batch_by_threads[slot++] = canonical(batch_predictions(alerts, predict));
    }
    EXPECT_EQ(batch_by_threads[0], batch_by_threads[1])
        << "batch predictions depend on the study thread count";

    const sim::Simulator simulator(id, small_sim(42));
    const StreamRun run = stream_predictions(simulator, predict);
    EXPECT_TRUE(run.snapshot.predict_fitted);
    EXPECT_EQ(canonical(run.predictions), batch_by_threads[0])
        << "streamed predictions diverge from the batch reference";

    // The snapshot's issued count is the sink stream, nothing more.
    EXPECT_EQ(run.snapshot.predict_issued, run.predictions.size());
    // Lead-time accounting identity: every incident is decided exactly
    // once -- hit or miss.
    EXPECT_EQ(run.snapshot.predict_hits + run.snapshot.predict_misses,
              run.snapshot.predict_incidents);
  }
}

TEST(PredictStream, SecondSeedStillAgrees) {
  // One more seed end to end, single-threaded batch only: guards
  // against the first seed having accidentally quiet training splits.
  for (const auto id :
       {parse::SystemId::kLiberty, parse::SystemId::kBlueGeneL}) {
    SCOPED_TRACE(parse::system_short_name(id));
    const sim::Simulator simulator(id, small_sim(7));
    const auto alerts = simulator.ground_truth_alerts();
    if (alerts.size() < 10) GTEST_SKIP() << "stream too small";
    stream::PredictOptions predict;
    predict.enabled = true;
    predict.train_alerts = alerts.size() * 6 / 10;
    const StreamRun run = stream_predictions(simulator, predict);
    EXPECT_EQ(canonical(run.predictions),
              canonical(batch_predictions(alerts, predict)));
  }
}

TEST(PredictStream, TrainingOnlyStreamIssuesNothing) {
  // train_alerts beyond the stream: the stage must stay in training,
  // issue nothing, and still account every incident as a miss.
  const sim::Simulator simulator(parse::SystemId::kLiberty, small_sim(42));
  stream::PredictOptions predict;
  predict.enabled = true;
  predict.train_alerts = simulator.ground_truth_alerts().size() + 1000;
  const StreamRun run = stream_predictions(simulator, predict);
  EXPECT_FALSE(run.snapshot.predict_fitted);
  EXPECT_TRUE(run.predictions.empty());
  EXPECT_EQ(run.snapshot.predict_issued, 0u);
  EXPECT_EQ(run.snapshot.predict_hits, 0u);
  EXPECT_EQ(run.snapshot.predict_misses, run.snapshot.predict_incidents);
}

}  // namespace
}  // namespace wss
