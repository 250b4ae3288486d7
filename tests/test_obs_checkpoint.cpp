// Checkpoint v2 metrics round-trip: a stream that checkpoints
// mid-run, restores in a "fresh process" (registry reset), and
// finishes must report exactly the counters and gauges of an
// uninterrupted run. Histograms and spans measure wall time of a
// particular process and are deliberately outside the contract.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/generator.hpp"
#include "stream/pipeline.hpp"

namespace wss {
namespace {

using CounterTable = std::vector<std::pair<std::string, std::uint64_t>>;
using GaugeTable = std::vector<std::pair<std::string, std::int64_t>>;

sim::SimOptions small_sim() {
  sim::SimOptions opts;
  opts.category_cap = 500;
  opts.chatter_events = 3000;
  return opts;
}

stream::StreamPipelineOptions stream_opts() {
  stream::StreamPipelineOptions popts;
  popts.study.chunk_events = 512;
  return popts;
}

TEST(ObsCheckpoint, RestoreAndFinishReportsIdenticalMetrics) {
  const sim::Simulator simulator(parse::SystemId::kLiberty, small_sim());
  const auto& events = simulator.events();
  ASSERT_GT(events.size(), 1000u);
  // Mid-chunk cut: pending (unpublished) tag and filter deltas must
  // ride the checkpoint via the publish-before-save contract.
  const std::size_t cut = events.size() / 2 + 137;

  // Uninterrupted reference run.
  obs::registry().reset();
  stream::StreamPipeline uninterrupted(parse::SystemId::kLiberty,
                                       stream_opts());
  for (std::size_t i = 0; i < events.size(); ++i) {
    uninterrupted.ingest(events[i], simulator.renderer().render(events[i], i));
  }
  uninterrupted.finish();
  const CounterTable full_counters = obs::registry().counter_values();
  const GaugeTable full_gauges = obs::registry().gauge_values();

  // Sanity: the reference run actually counted.
  const auto events_total = [&] {
    for (const auto& [n, v] : full_counters) {
      if (n == "wss_stream_events_total") return v;
    }
    return std::uint64_t{0};
  }();
  EXPECT_EQ(events_total, events.size());

  // Interrupted run: ingest to the cut, save, then simulate a process
  // restart by zeroing the registry before restore.
  obs::registry().reset();
  stream::StreamPipeline first(parse::SystemId::kLiberty, stream_opts());
  for (std::size_t i = 0; i < cut; ++i) {
    first.ingest(events[i], simulator.renderer().render(events[i], i));
  }
  std::stringstream checkpoint;
  first.save(checkpoint);

  obs::registry().reset();
  stream::StreamPipeline resumed(parse::SystemId::kLiberty, stream_opts());
  resumed.restore(checkpoint);
  for (std::size_t i = cut; i < events.size(); ++i) {
    resumed.ingest(events[i], simulator.renderer().render(events[i], i));
  }
  resumed.finish();
  const CounterTable resumed_counters = obs::registry().counter_values();
  const GaugeTable resumed_gauges = obs::registry().gauge_values();

  ASSERT_EQ(resumed_counters.size(), full_counters.size());
  for (std::size_t i = 0; i < full_counters.size(); ++i) {
    EXPECT_EQ(resumed_counters[i].first, full_counters[i].first);
    EXPECT_EQ(resumed_counters[i].second, full_counters[i].second)
        << full_counters[i].first;
  }
  ASSERT_EQ(resumed_gauges.size(), full_gauges.size());
  for (std::size_t i = 0; i < full_gauges.size(); ++i) {
    EXPECT_EQ(resumed_gauges[i].first, full_gauges[i].first);
    EXPECT_EQ(resumed_gauges[i].second, full_gauges[i].second)
        << full_gauges[i].first;
  }
}

TEST(ObsCheckpoint, SaveIsIdempotentOnMetrics) {
  // Saving twice (double publish) must not double-count anything: the
  // flushers publish deltas, and a delta published once is gone.
  const sim::Simulator simulator(parse::SystemId::kSpirit, small_sim());
  const auto& events = simulator.events();
  obs::registry().reset();
  stream::StreamPipeline p(parse::SystemId::kSpirit, stream_opts());
  for (std::size_t i = 0; i < events.size() / 2; ++i) {
    p.ingest(events[i], simulator.renderer().render(events[i], i));
  }
  std::stringstream snap1;
  p.save(snap1);
  const CounterTable after_first = obs::registry().counter_values();
  std::stringstream snap2;
  p.save(snap2);
  const CounterTable after_second = obs::registry().counter_values();
  ASSERT_EQ(after_first.size(), after_second.size());
  for (std::size_t i = 0; i < after_first.size(); ++i) {
    EXPECT_EQ(after_first[i].second, after_second[i].second)
        << after_first[i].first;
  }
  // And both serialized registries are byte-identical.
  EXPECT_EQ(snap1.str(), snap2.str());
}

}  // namespace
}  // namespace wss
