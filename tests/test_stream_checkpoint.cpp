// Checkpoint/restore of the full streaming engine:
// checkpoint -> restore -> finish must equal an uninterrupted run,
// bit for bit -- FP accumulators, reservoir contents, filter verdicts,
// emitted alert sequence, everything.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/generator.hpp"
#include "stream/pipeline.hpp"
#include "stream/report.hpp"

namespace wss {
namespace {

void expect_snapshots_identical(const stream::StreamSnapshot& a,
                                const stream::StreamSnapshot& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.first_time, b.first_time);
  EXPECT_EQ(a.watermark, b.watermark);
  EXPECT_EQ(a.physical_messages, b.physical_messages);
  // Bit-exact doubles: plain == on purpose.
  EXPECT_EQ(a.weighted_messages, b.weighted_messages);
  EXPECT_EQ(a.physical_bytes, b.physical_bytes);
  EXPECT_EQ(a.weighted_bytes, b.weighted_bytes);
  EXPECT_EQ(a.corrupted_source_lines, b.corrupted_source_lines);
  EXPECT_EQ(a.invalid_timestamp_lines, b.invalid_timestamp_lines);
  ASSERT_EQ(a.weighted_alert_counts.size(), b.weighted_alert_counts.size());
  for (std::size_t c = 0; c < a.weighted_alert_counts.size(); ++c) {
    EXPECT_EQ(a.weighted_alert_counts[c], b.weighted_alert_counts[c])
        << "category " << c;
  }
  EXPECT_EQ(a.physical_alert_counts, b.physical_alert_counts);
  EXPECT_EQ(a.categories_observed, b.categories_observed);
  EXPECT_EQ(a.tagging.true_positives, b.tagging.true_positives);
  EXPECT_EQ(a.tagging.false_positives, b.tagging.false_positives);
  EXPECT_EQ(a.tagging.true_negatives, b.tagging.true_negatives);
  EXPECT_EQ(a.tagging.false_negatives, b.tagging.false_negatives);
  EXPECT_EQ(a.measured_gb, b.measured_gb);
  EXPECT_EQ(a.rate_bytes_per_sec, b.rate_bytes_per_sec);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.alerts, b.alerts);
  EXPECT_EQ(a.compressed_fraction.has_value(),
            b.compressed_fraction.has_value());
  if (a.compressed_fraction) {
    EXPECT_EQ(*a.compressed_fraction, *b.compressed_fraction);
  }
  EXPECT_EQ(a.alerts_offered, b.alerts_offered);
  EXPECT_EQ(a.alerts_admitted, b.alerts_admitted);
  EXPECT_EQ(a.filtered_counts, b.filtered_counts);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(a.filtered_by_type[i], b.filtered_by_type[i]);
  }
  EXPECT_EQ(a.gap_count, b.gap_count);
  EXPECT_EQ(a.gap_mean_s, b.gap_mean_s);
  EXPECT_EQ(a.gap_stddev_s, b.gap_stddev_s);
  EXPECT_EQ(a.gap_min_s, b.gap_min_s);
  EXPECT_EQ(a.gap_max_s, b.gap_max_s);
  EXPECT_EQ(a.gap_p50_s, b.gap_p50_s);
  EXPECT_EQ(a.gap_p95_s, b.gap_p95_s);
  EXPECT_EQ(a.gap_p99_s, b.gap_p99_s);
  EXPECT_EQ(a.messages_in_window, b.messages_in_window);
  EXPECT_EQ(a.raw_alerts_in_window, b.raw_alerts_in_window);
  EXPECT_EQ(a.admitted_in_window, b.admitted_in_window);
  EXPECT_EQ(a.predict_enabled, b.predict_enabled);
  EXPECT_EQ(a.predict_fitted, b.predict_fitted);
  EXPECT_EQ(a.predict_issued, b.predict_issued);
  EXPECT_EQ(a.predict_hits, b.predict_hits);
  EXPECT_EQ(a.predict_misses, b.predict_misses);
  EXPECT_EQ(a.predict_false_alarms, b.predict_false_alarms);
  EXPECT_EQ(a.predict_incidents, b.predict_incidents);
  EXPECT_EQ(a.predict_routed, b.predict_routed);
}

struct Emitted {
  std::vector<filter::Alert> alerts;
  void attach(stream::StreamPipeline& p) {
    p.set_alert_sink(
        [this](const filter::Alert& a) { alerts.push_back(a); });
  }
};

TEST(StreamCheckpoint, RestoreAndFinishEqualsUninterrupted) {
  sim::SimOptions opts;
  opts.category_cap = 900;
  opts.chatter_events = 4000;
  const sim::Simulator simulator(parse::SystemId::kLiberty, opts);
  const auto& events = simulator.events();
  ASSERT_GT(events.size(), 1000u);
  // An awkward cut on purpose: mid-chunk, so the open partial, the
  // filter table, and the reservoir all carry live state across the
  // checkpoint.
  const std::size_t cut = events.size() / 2 + 137;

  stream::StreamPipeline uninterrupted(parse::SystemId::kLiberty);
  Emitted full;
  full.attach(uninterrupted);
  for (std::size_t i = 0; i < events.size(); ++i) {
    uninterrupted.ingest(events[i], simulator.renderer().render(events[i], i));
  }
  uninterrupted.finish();

  stream::StreamPipeline first(parse::SystemId::kLiberty);
  Emitted head;
  head.attach(first);
  for (std::size_t i = 0; i < cut; ++i) {
    first.ingest(events[i], simulator.renderer().render(events[i], i));
  }
  std::stringstream checkpoint;
  first.save(checkpoint);

  stream::StreamPipeline resumed(parse::SystemId::kLiberty);
  resumed.restore(checkpoint);
  EXPECT_EQ(resumed.events(), cut);
  Emitted tail;
  tail.attach(resumed);
  for (std::size_t i = cut; i < events.size(); ++i) {
    resumed.ingest(events[i], simulator.renderer().render(events[i], i));
  }
  resumed.finish();

  expect_snapshots_identical(resumed.snapshot(), uninterrupted.snapshot());

  // The emitted survivor stream splices exactly.
  ASSERT_EQ(head.alerts.size() + tail.alerts.size(), full.alerts.size());
  for (std::size_t i = 0; i < full.alerts.size(); ++i) {
    const auto& got =
        i < head.alerts.size() ? head.alerts[i]
                               : tail.alerts[i - head.alerts.size()];
    EXPECT_EQ(got.time, full.alerts[i].time) << "alert " << i;
    EXPECT_EQ(got.category, full.alerts[i].category) << "alert " << i;
    EXPECT_EQ(got.source, full.alerts[i].source) << "alert " << i;
  }
}

TEST(StreamCheckpoint, FileModeRoundTrip) {
  // Render a small log, stream it line by line with a mid-stream
  // checkpoint, and require equivalence in file (ingest_line) mode
  // too -- this exercises year-tracker and source-intern state.
  sim::SimOptions opts;
  opts.category_cap = 400;
  opts.chatter_events = 1500;
  const sim::Simulator simulator(parse::SystemId::kSpirit, opts);
  std::vector<std::string> lines;
  simulator.for_each_line(
      [&](std::string_view l) { lines.emplace_back(l); });
  ASSERT_GT(lines.size(), 200u);
  const std::size_t cut = lines.size() / 3 + 29;

  stream::StreamPipelineOptions popts;
  popts.strict_order = false;
  stream::StreamPipeline uninterrupted(parse::SystemId::kSpirit, popts);
  for (const auto& l : lines) uninterrupted.ingest_line(l);
  uninterrupted.finish();

  stream::StreamPipeline first(parse::SystemId::kSpirit, popts);
  for (std::size_t i = 0; i < cut; ++i) first.ingest_line(lines[i]);
  std::stringstream checkpoint;
  first.save(checkpoint);

  stream::StreamPipeline resumed(parse::SystemId::kSpirit, popts);
  resumed.restore(checkpoint);
  for (std::size_t i = cut; i < lines.size(); ++i) {
    resumed.ingest_line(lines[i]);
  }
  resumed.finish();

  expect_snapshots_identical(resumed.snapshot(), uninterrupted.snapshot());
}

// ---- Prediction-stage state across the checkpoint ----

struct PredictedStream {
  std::vector<predict::Prediction> predictions;
  void attach(stream::StreamPipeline& p) {
    p.set_prediction_sink([this](const predict::Prediction& pr) {
      predictions.push_back(pr);
    });
  }
};

void expect_prediction_splice(const PredictedStream& head,
                              const PredictedStream& tail,
                              const PredictedStream& full) {
  ASSERT_EQ(head.predictions.size() + tail.predictions.size(),
            full.predictions.size());
  for (std::size_t i = 0; i < full.predictions.size(); ++i) {
    const auto& got =
        i < head.predictions.size()
            ? head.predictions[i]
            : tail.predictions[i - head.predictions.size()];
    EXPECT_EQ(got.issued_at, full.predictions[i].issued_at) << "pred " << i;
    EXPECT_EQ(got.category, full.predictions[i].category) << "pred " << i;
    EXPECT_EQ(got.window_begin, full.predictions[i].window_begin)
        << "pred " << i;
    EXPECT_EQ(got.window_end, full.predictions[i].window_end) << "pred " << i;
  }
}

TEST(StreamCheckpoint, PredictStateRoundTripsMidTrainingAndPostFit) {
  sim::SimOptions opts;
  opts.category_cap = 900;
  opts.chatter_events = 4000;
  const sim::Simulator simulator(parse::SystemId::kLiberty, opts);
  const auto& events = simulator.events();
  const std::size_t cut = events.size() / 2 + 137;
  const std::size_t total_alerts = simulator.ground_truth_alerts().size();
  ASSERT_GT(total_alerts, 100u);

  // Two training sizes, chosen against the cut: a small one so the cut
  // lands AFTER fit (member streaming state, routing, and pending
  // windows cross the checkpoint) and a huge one so the cut lands
  // MID-TRAINING (the training buffer itself crosses).
  for (const std::size_t train_alerts :
       {total_alerts / 10, total_alerts * 2}) {
    SCOPED_TRACE(testing::Message() << "train_alerts " << train_alerts);
    stream::StreamPipelineOptions popts;
    popts.predict.enabled = true;
    popts.predict.train_alerts = train_alerts;

    stream::StreamPipeline uninterrupted(parse::SystemId::kLiberty, popts);
    PredictedStream full;
    full.attach(uninterrupted);
    for (std::size_t i = 0; i < events.size(); ++i) {
      uninterrupted.ingest(events[i],
                           simulator.renderer().render(events[i], i));
    }
    uninterrupted.finish();

    stream::StreamPipeline first(parse::SystemId::kLiberty, popts);
    PredictedStream head;
    head.attach(first);
    for (std::size_t i = 0; i < cut; ++i) {
      first.ingest(events[i], simulator.renderer().render(events[i], i));
    }
    std::stringstream checkpoint;
    first.save(checkpoint);

    stream::StreamPipeline resumed(parse::SystemId::kLiberty, popts);
    PredictedStream tail;
    tail.attach(resumed);  // sink survives restore (set before it)
    resumed.restore(checkpoint);
    for (std::size_t i = cut; i < events.size(); ++i) {
      resumed.ingest(events[i], simulator.renderer().render(events[i], i));
    }
    resumed.finish();

    expect_snapshots_identical(resumed.snapshot(), uninterrupted.snapshot());
    expect_prediction_splice(head, tail, full);
  }
}

// ---- The Table 2 compression sample across the checkpoint ----

/// `wss stream --in --predict`'s engine options.
stream::StreamPipelineOptions predicting_file_mode() {
  stream::StreamPipelineOptions popts;
  popts.strict_order = false;
  popts.predict.enabled = true;
  return popts;
}

std::vector<std::string> generated_lines(parse::SystemId system,
                                         std::uint64_t cap,
                                         std::uint64_t chatter) {
  sim::SimOptions opts;
  opts.seed = 1;
  opts.category_cap = cap;
  opts.chatter_events = chatter;
  const sim::Simulator simulator(system, opts);
  std::vector<std::string> lines;
  simulator.for_each_line(
      [&](std::string_view l) { lines.emplace_back(l); });
  return lines;
}

TEST(StreamCheckpoint, CutsAroundTheSampleFillRestoreTheUninterruptedReport) {
  // Before the fill the sample's text crosses the checkpoint; on the
  // filling line its compression task has just started, and save()
  // must wait for it; long after, only its size and fraction cross.
  constexpr std::size_t kFill = stream::kCompressionSampleLines;
  for (const parse::SystemId system : parse::kAllSystems) {
    SCOPED_TRACE(parse::system_name(system));
    const std::vector<std::string> lines =
        generated_lines(system, 3000, 30000);
    ASSERT_GT(lines.size(), kFill + 5000);
    const auto popts = predicting_file_mode();

    stream::StreamPipeline uninterrupted(system, popts);
    for (const auto& l : lines) uninterrupted.ingest_line(l);
    uninterrupted.finish();
    const stream::StreamSnapshot expected = uninterrupted.snapshot();
    ASSERT_TRUE(expected.compressed_fraction);

    std::size_t sample_bytes = 0;
    for (std::size_t i = 0; i < kFill - 1; ++i) {
      sample_bytes += lines[i].size() + 1;
    }
    for (const std::size_t cut :
         {kFill - 1, kFill, kFill + 1, lines.size() - 100}) {
      SCOPED_TRACE(testing::Message() << "cut after line " << cut);
      stream::StreamPipeline first(system, popts);
      for (std::size_t i = 0; i < cut; ++i) first.ingest_line(lines[i]);
      std::stringstream checkpoint;
      first.save(checkpoint);
      // The text is 1-3 MB; everything else is a few tens of kB.
      if (cut < kFill) {
        EXPECT_GT(checkpoint.str().size(), sample_bytes);
      } else {
        EXPECT_LT(checkpoint.str().size(), sample_bytes / 10);
      }

      stream::StreamPipeline resumed(system, popts);
      resumed.restore(checkpoint);
      for (std::size_t i = cut; i < lines.size(); ++i) {
        resumed.ingest_line(lines[i]);
      }
      resumed.finish();
      const stream::StreamSnapshot got = resumed.snapshot();
      expect_snapshots_identical(got, expected);
      EXPECT_EQ(stream::render_snapshot(got),
                stream::render_snapshot(expected));
    }
  }
}

TEST(StreamCheckpoint, OnlyTheFillingLineStartsTheCompression) {
  // Every compression observes wss_stream_compression_seconds, and
  // save() waits for a running one. So a count unchanged after a save
  // means no compression task was started.
  constexpr std::size_t kFill = stream::kCompressionSampleLines;
  const std::vector<std::string> lines =
      generated_lines(parse::SystemId::kLiberty, 3000, 30000);
  ASSERT_GT(lines.size(), kFill);
  const obs::Histogram& compressions = obs::registry().histogram(
      "wss_stream_compression_seconds", obs::latency_bounds_seconds());
  const std::uint64_t before = compressions.count();

  stream::StreamPipeline pipeline(parse::SystemId::kLiberty,
                                  predicting_file_mode());
  for (std::size_t i = 0; i + 1 < kFill; ++i) pipeline.ingest_line(lines[i]);
  std::stringstream filling;
  pipeline.save(filling);
  EXPECT_FALSE(pipeline.snapshot(stream::SnapshotScope::kStatus)
                   .compressed_fraction);
  EXPECT_EQ(compressions.count(), before);

  pipeline.ingest_line(lines[kFill - 1]);
  std::stringstream filled;
  pipeline.save(filled);
  EXPECT_EQ(compressions.count(), before + 1);
  EXPECT_TRUE(pipeline.snapshot().compressed_fraction);
  EXPECT_EQ(compressions.count(), before + 1);
}

TEST(StreamCheckpoint, PredictDisabledRoundTripStaysDisabled) {
  stream::StreamPipeline p(parse::SystemId::kLiberty);
  std::stringstream checkpoint;
  p.save(checkpoint);
  stream::StreamPipeline q(parse::SystemId::kLiberty);
  q.restore(checkpoint);
  EXPECT_FALSE(q.snapshot().predict_enabled);
}

TEST(StreamCheckpoint, RejectsV2WithUpgradeDiagnostic) {
  stream::StreamPipeline p(parse::SystemId::kLiberty);
  std::stringstream checkpoint;
  p.save(checkpoint);
  // v2 is a pre-prediction build's file, v3 one without the trailer,
  // v4 one with episode-miner state, v5 one that carries the Table 2
  // sample's text: all get the same one-line cure.
  for (const int old_version : {2, 3, 4, 5}) {
    SCOPED_TRACE(old_version);
    std::string bytes = checkpoint.str();
    // The header is magic(u32 LE) then version(u32 LE): rewrite the
    // version field, as an older build would have written.
    ASSERT_GE(bytes.size(), 8u);
    bytes[4] = static_cast<char>(old_version);
    bytes[5] = bytes[6] = bytes[7] = 0;
    std::stringstream old(bytes);
    stream::StreamPipeline q(parse::SystemId::kLiberty);
    try {
      q.restore(old);
      FAIL() << "old checkpoint was accepted";
    } catch (const std::runtime_error& e) {
      // One line, names both versions AND the cure.
      const std::string what = e.what();
      EXPECT_NE(what.find("unsupported version " +
                          std::to_string(old_version)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("v" + std::to_string(stream::kCheckpointVersion)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("regenerate"), std::string::npos) << what;
      EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    }
  }
}

TEST(StreamCheckpoint, RejectsWrongSystem) {
  stream::StreamPipeline liberty(parse::SystemId::kLiberty);
  std::stringstream checkpoint;
  liberty.save(checkpoint);
  stream::StreamPipeline spirit(parse::SystemId::kSpirit);
  EXPECT_THROW(spirit.restore(checkpoint), std::runtime_error);
}

TEST(StreamCheckpoint, RejectsTruncatedCheckpoint) {
  stream::StreamPipeline p(parse::SystemId::kLiberty);
  std::stringstream checkpoint;
  p.save(checkpoint);
  const std::string full = checkpoint.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  stream::StreamPipeline q(parse::SystemId::kLiberty);
  EXPECT_THROW(q.restore(cut), std::runtime_error);
}

}  // namespace
}  // namespace wss
