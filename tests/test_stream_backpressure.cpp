// Ingestion backpressure: exact drop accounting under kDropOldest,
// losslessness under kBlock, and an (env-gated) paced soak that runs
// the full producer/consumer engine for a configurable stretch of
// wall time -- the CI nightly stress job sets WSS_SOAK_SECONDS.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "sim/generator.hpp"
#include "sim/replay.hpp"
#include "stream/pipeline.hpp"
#include "stream/source.hpp"

namespace wss {
namespace {

stream::StreamItem item(std::uint64_t index) {
  stream::StreamItem it;
  it.index = index;
  return it;
}

TEST(Backpressure, DropOldestEvictsExactlyAndInOrder) {
  // Single-threaded: capacity 4, push 10. The ring must hold the 4
  // newest items and have counted exactly 6 evictions.
  stream::IngestRing ring(4, stream::BackpressurePolicy::kDropOldest);
  ASSERT_EQ(ring.capacity(), 4u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(ring.push(item(i)));
  }
  EXPECT_EQ(ring.dropped(), 6u);
  ring.close();
  std::vector<std::uint64_t> got;
  while (auto it = ring.pop()) got.push_back(it->index);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got, (std::vector<std::uint64_t>{6, 7, 8, 9}));
}

TEST(Backpressure, CapacityHintRoundsUpToPowerOfTwo) {
  stream::IngestRing ring(5, stream::BackpressurePolicy::kBlock);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(Backpressure, DropOldestAccountingBalancesUnderConcurrency) {
  // A deliberately slow consumer against a fast producer: whatever
  // happens, delivered + dropped must equal pushed, and delivered
  // indices must be strictly increasing (drops only remove a prefix
  // of the unconsumed window, never reorder).
  constexpr std::uint64_t kTotal = 20000;
  stream::IngestRing ring(16, stream::BackpressurePolicy::kDropOldest);

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kTotal; ++i) {
      ring.push(item(i));
    }
    ring.close();
  });

  std::uint64_t delivered = 0;
  std::uint64_t last = 0;
  bool first = true;
  bool monotone = true;
  while (auto it = ring.pop()) {
    ++delivered;
    if (!first && it->index <= last) monotone = false;
    last = it->index;
    first = false;
    if (delivered % 64 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  producer.join();

  EXPECT_TRUE(monotone);
  EXPECT_EQ(delivered + ring.dropped(), kTotal);
  EXPECT_GT(ring.dropped(), 0u);  // the slow consumer must have lost some
}

TEST(Backpressure, BlockPolicyLosesNothing) {
  constexpr std::uint64_t kTotal = 50000;
  stream::IngestRing ring(8, stream::BackpressurePolicy::kBlock);

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kTotal; ++i) ring.push(item(i));
    ring.close();
  });

  std::uint64_t delivered = 0;
  std::uint64_t expect_index = 0;
  bool in_order = true;
  while (auto it = ring.pop()) {
    if (it->index != expect_index) in_order = false;
    ++expect_index;
    ++delivered;
  }
  producer.join();

  EXPECT_TRUE(in_order);
  EXPECT_EQ(delivered, kTotal);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(Backpressure, PushAfterCloseIsRejectedNotCounted) {
  stream::IngestRing ring(4, stream::BackpressurePolicy::kDropOldest);
  ring.close();
  EXPECT_FALSE(ring.push(item(0)));
  EXPECT_EQ(ring.dropped(), 0u);
}

// Paced end-to-end soak. Runs only when WSS_SOAK_SECONDS is set (the
// nightly stress job exports it); a bare `ctest` finishes instantly.
// The producer replays a simulated Liberty log at a pace chosen so the
// replay spans the requested wall time, through a small blocking ring,
// into the full streaming engine under tsan-visible concurrency; the
// result must still be bit-identical to the batch pipeline.
TEST(Backpressure, PacedSoakMatchesBatch) {
  const char* soak = std::getenv("WSS_SOAK_SECONDS");
  if (soak == nullptr) {
    GTEST_SKIP() << "set WSS_SOAK_SECONDS to run the paced soak";
  }
  const double wall_seconds = std::max(1.0, std::atof(soak));

  sim::SimOptions opts;
  opts.category_cap = 2000;
  opts.chatter_events = 20000;
  const sim::Simulator simulator(parse::SystemId::kLiberty, opts);
  const auto& events = simulator.events();
  ASSERT_GT(events.size(), 1000u);
  const double sim_span_s =
      static_cast<double>(events.back().time - events.front().time) /
      static_cast<double>(util::kUsPerSec);

  sim::ReplayOptions ropts;
  ropts.speed = sim_span_s / wall_seconds;  // finish in ~wall_seconds
  const sim::Replayer replayer(simulator, ropts);

  stream::IngestRing ring(256, stream::BackpressurePolicy::kBlock);
  std::thread producer([&] {
    replayer.run([&](std::size_t i, const sim::SimEvent& e,
                     std::string_view line) {
      stream::StreamItem it;
      it.index = i;
      it.event = e;
      it.line = std::string(line);
      return ring.push(std::move(it));
    });
    ring.close();
  });

  stream::StreamPipeline pipeline(parse::SystemId::kLiberty);
  while (auto it = ring.pop()) {
    pipeline.ingest(it->event, it->line);
  }
  producer.join();
  pipeline.finish();

  core::PipelineOptions popts;
  const auto batch = core::run_pipeline(simulator, popts);
  const auto snap = pipeline.snapshot();
  EXPECT_EQ(snap.events, events.size());
  EXPECT_EQ(snap.weighted_messages, batch.weighted_messages);
  EXPECT_EQ(snap.weighted_bytes, batch.weighted_bytes);
  EXPECT_EQ(ring.dropped(), 0u);
}

}  // namespace
}  // namespace wss
