// Determinism contract of the event-counting metrics: the whitelisted
// wss_pipeline_*, wss_filter_*, and wss_tag_* counters
// are bit-identical across 1/2/4/8 worker threads AND between the
// batch pipeline and the streaming engine, on all five systems.
//
// Counters count events, not time, and every per-event increment
// happens in core::detail::reduce_read / the shared filter decision
// sequence -- so thread count and batch-vs-stream may only change
// *when* deltas get published, never the totals. Deliberately outside
// the whitelist: wss_stream_* (stream-only machinery), gauges
// (last-writer-wins), histograms, and spans (wall-clock).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "core/pipeline.hpp"
#include "filter/simultaneous.hpp"
#include "obs/metrics.hpp"
#include "sim/generator.hpp"
#include "stream/pipeline.hpp"

namespace wss {
namespace {

constexpr std::size_t kChunkEvents = 512;  // small: many chunk merges
constexpr util::TimeUs kThresholdUs = 5 * util::kUsPerSec;

sim::SimOptions small_sim() {
  sim::SimOptions opts;
  opts.category_cap = 400;
  opts.chatter_events = 2500;
  return opts;
}

using CounterTable = std::vector<std::pair<std::string, std::uint64_t>>;

/// The deterministic subset of the registry's counters.
CounterTable whitelisted_counters() {
  CounterTable out;
  for (auto& [name, value] : obs::registry().counter_values()) {
    const bool deterministic =
        name.starts_with("wss_pipeline_") || name.starts_with("wss_filter_") ||
        name.starts_with("wss_tag_");
    if (deterministic) out.emplace_back(name, value);
  }
  return out;
}

/// One batch run (pipeline + simultaneous filter) at `threads` workers;
/// returns the whitelisted counter table it produced.
CounterTable batch_run(parse::SystemId id, int threads) {
  obs::registry().reset();
  const sim::Simulator simulator(id, small_sim());
  core::PipelineOptions popts;
  popts.num_threads = threads;
  popts.chunk_events = kChunkEvents;
  if (threads == 1) {
    core::run_pipeline(simulator, popts);  // serial reference path
  } else {
    core::ParallelPipeline(popts).run(simulator);
  }
  const auto truth = simulator.ground_truth_alerts();
  filter::apply_simultaneous_parallel(truth, kThresholdUs, threads);
  return whitelisted_counters();
}

/// One streaming run over the same rendered events.
CounterTable stream_run(parse::SystemId id) {
  obs::registry().reset();
  const sim::Simulator simulator(id, small_sim());
  stream::StreamPipelineOptions popts;
  popts.study.chunk_events = kChunkEvents;
  popts.study.threshold_us = kThresholdUs;
  stream::StreamPipeline pipeline(id, popts);
  const auto& events = simulator.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    pipeline.ingest(events[i], simulator.renderer().render(events[i], i));
  }
  pipeline.finish();
  return whitelisted_counters();
}

void expect_tables_equal(const CounterTable& a, const CounterTable& b,
                         const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first) << what << " entry " << i;
    EXPECT_EQ(a[i].second, b[i].second) << what << ": " << a[i].first;
  }
}

std::uint64_t value_of(const CounterTable& t, std::string_view name) {
  for (const auto& [n, v] : t) {
    if (n == name) return v;
  }
  return 0;
}

class ObsDeterminismTest : public ::testing::TestWithParam<parse::SystemId> {};

TEST_P(ObsDeterminismTest, CountersInvariantAcrossThreadCounts) {
  const parse::SystemId id = GetParam();
  const CounterTable serial = batch_run(id, 1);

  // Non-trivial by construction: the run really was counted.
  const sim::Simulator simulator(id, small_sim());
  EXPECT_EQ(value_of(serial, "wss_pipeline_events_total"),
            simulator.events().size());
  EXPECT_GT(value_of(serial, "wss_filter_offered_total"), 0u);
  EXPECT_GT(value_of(serial, "wss_pipeline_chunks_total"), 0u);

  for (const int threads : {2, 4, 8}) {
    const CounterTable threaded = batch_run(id, threads);
    expect_tables_equal(serial, threaded,
                        ("threads=" + std::to_string(threads)).c_str());
  }
}

TEST_P(ObsDeterminismTest, CountersInvariantBatchVersusStream) {
  const parse::SystemId id = GetParam();
  const CounterTable batch = batch_run(id, 4);
  const CounterTable stream = stream_run(id);
  expect_tables_equal(batch, stream, "batch vs stream");
}

INSTANTIATE_TEST_SUITE_P(AllSystems, ObsDeterminismTest,
                         ::testing::ValuesIn(parse::kAllSystems),
                         [](const auto& info) {
                           return std::string(
                               parse::system_short_name(info.param));
                         });

}  // namespace
}  // namespace wss
