// Determinism equivalence: ParallelPipeline must be *bit-identical*
// to the serial run_pipeline for every system, at 1, 2, 4, and 7
// (non-power-of-two) threads, with corruption injection on and off.
// Floating-point fields are compared with exact equality -- the
// chunked canonical accumulation order (core/pipeline.hpp) is what
// makes that possible.
//
// The run(simulator, meanwhile) cases pin the caller-side task: it runs
// once, on the calling thread, leaves the result bit-identical, and its
// failures and the workers' failures both reach the caller only after
// the pool has joined.
#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "sim/corruption.hpp"

// One armed allocation failure: the next allocation made on a thread
// other than g_spared throws std::bad_alloc. This is how a test makes a
// pool worker's chunk fail. These replace the test binary's global
// operator new and delete.
namespace {
std::atomic<bool> g_fail_armed{false};
std::atomic<std::thread::id> g_spared{};

/// True, once, for the first allocation off g_spared after arming.
bool fail_this_allocation() {
  return g_fail_armed.load(std::memory_order_acquire) &&
         std::this_thread::get_id() != g_spared.load() &&
         g_fail_armed.exchange(false);
}
}  // namespace

void* operator new(std::size_t size) {
  if (fail_this_allocation()) throw std::bad_alloc();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// Kept out of line: inlined into the cleanup of a `new T` expression,
// free() makes GCC warn of a mismatch (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace wss::core {
namespace {

using parse::SystemId;

sim::SimOptions tiny_sim(bool corruption) {
  sim::SimOptions o;
  o.category_cap = 800;
  o.chatter_events = 6000;
  o.inject_corruption = corruption;
  return o;
}

/// Exact, field-by-field equality. EXPECT_EQ on doubles is bitwise
/// for the values the pipeline produces (no NaNs, no signed zeros
/// from sums of positive weights).
void expect_identical(const PipelineResult& a, const PipelineResult& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.system, b.system);
  EXPECT_EQ(a.physical_messages, b.physical_messages);
  EXPECT_EQ(a.weighted_messages, b.weighted_messages);
  EXPECT_EQ(a.physical_bytes, b.physical_bytes);
  EXPECT_EQ(a.weighted_bytes, b.weighted_bytes);
  EXPECT_EQ(a.corrupted_source_lines, b.corrupted_source_lines);
  EXPECT_EQ(a.invalid_timestamp_lines, b.invalid_timestamp_lines);
  EXPECT_EQ(a.categories_observed, b.categories_observed);

  EXPECT_EQ(a.weighted_alert_counts, b.weighted_alert_counts);
  EXPECT_EQ(a.physical_alert_counts, b.physical_alert_counts);

  EXPECT_EQ(a.tagging.true_positives, b.tagging.true_positives);
  EXPECT_EQ(a.tagging.false_positives, b.tagging.false_positives);
  EXPECT_EQ(a.tagging.true_negatives, b.tagging.true_negatives);
  EXPECT_EQ(a.tagging.false_negatives, b.tagging.false_negatives);

  ASSERT_EQ(a.tagged_alerts.size(), b.tagged_alerts.size());
  for (std::size_t i = 0; i < a.tagged_alerts.size(); ++i) {
    const auto& x = a.tagged_alerts[i];
    const auto& y = b.tagged_alerts[i];
    ASSERT_TRUE(x.time == y.time && x.source == y.source &&
                x.category == y.category && x.type == y.type &&
                x.failure_id == y.failure_id && x.weight == y.weight)
        << "alert " << i << " differs";
  }

  EXPECT_EQ(a.corrupted_source_weight, b.corrupted_source_weight);
  ASSERT_EQ(a.messages_by_source.size(), b.messages_by_source.size());
  auto ia = a.messages_by_source.begin();
  auto ib = b.messages_by_source.begin();
  for (; ia != a.messages_by_source.end(); ++ia, ++ib) {
    EXPECT_EQ(ia->first, ib->first);
    EXPECT_EQ(ia->second, ib->second) << "source " << ia->first;
  }
}

class ParallelPerSystem : public ::testing::TestWithParam<SystemId> {};

TEST_P(ParallelPerSystem, BitIdenticalAtEveryThreadCount) {
  const sim::Simulator simulator(GetParam(), tiny_sim(/*corruption=*/true));
  const PipelineResult serial = run_pipeline(simulator);
  for (const int threads : {1, 2, 4, 7}) {
    PipelineOptions opts;
    opts.num_threads = threads;
    const PipelineResult parallel = ParallelPipeline(opts).run(simulator);
    expect_identical(serial, parallel,
                     "threads=" + std::to_string(threads));
  }
}

TEST_P(ParallelPerSystem, BitIdenticalWithoutCorruption) {
  const sim::Simulator simulator(GetParam(), tiny_sim(/*corruption=*/false));
  const PipelineResult serial = run_pipeline(simulator);
  for (const int threads : {2, 7}) {
    PipelineOptions opts;
    opts.num_threads = threads;
    expect_identical(serial, ParallelPipeline(opts).run(simulator),
                     "threads=" + std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, ParallelPerSystem, ::testing::ValuesIn(parse::kAllSystems),
    [](const ::testing::TestParamInfo<SystemId>& info) {
      return std::string(parse::system_short_name(info.param));
    });

TEST(ParallelPipeline, CustomChunkSizeMatchesSerialWithSameChunk) {
  // Chunk size is part of the determinism contract: parallel and
  // serial agree whenever they use the SAME chunk_events.
  const sim::Simulator simulator(SystemId::kSpirit, tiny_sim(true));
  PipelineOptions opts;
  opts.chunk_events = 1000;  // deliberately non-default
  const PipelineResult serial = run_pipeline(simulator, opts);
  opts.num_threads = 3;
  expect_identical(serial, ParallelPipeline(opts).run(simulator),
                   "chunk=1000 threads=3");
}

TEST(ParallelPipeline, SourceTalliesCanBeDisabled) {
  const sim::Simulator simulator(SystemId::kLiberty, tiny_sim(true));
  PipelineOptions opts;
  opts.num_threads = 4;
  opts.collect_source_tallies = false;
  const PipelineResult r = ParallelPipeline(opts).run(simulator);
  EXPECT_TRUE(r.messages_by_source.empty());
  EXPECT_EQ(r.corrupted_source_weight, 0.0);
  EXPECT_GT(r.physical_messages, 0u);
}

TEST(ParallelPipeline, ZeroThreadsResolvesToHardware) {
  PipelineOptions opts;
  opts.num_threads = 0;
  EXPECT_GE(ParallelPipeline(opts).resolved_threads(), 1);
}

TEST(ParallelPipeline, MoreThreadsThanChunksIsFine) {
  sim::SimOptions so = tiny_sim(true);
  so.category_cap = 100;
  so.chatter_events = 500;
  const sim::Simulator simulator(SystemId::kLiberty, so);
  PipelineOptions opts;
  opts.num_threads = 16;
  opts.chunk_events = 1 << 20;  // single chunk
  expect_identical(run_pipeline(simulator, opts),
                   ParallelPipeline(opts).run(simulator), "one chunk");
}

obs::Counter& events_counter() {
  return obs::registry().counter("wss_pipeline_events_total");
}

/// Options that cut tiny_sim's log into several chunks, so 2, 4 and 7
/// threads all take the pool branch.
PipelineOptions small_chunks(int threads) {
  PipelineOptions opts;
  opts.num_threads = threads;
  opts.chunk_events = 500;
  return opts;
}

TEST(ParallelPipelineMeanwhile, RunsOnceOnTheCallingThread) {
  const sim::Simulator simulator(SystemId::kLiberty, tiny_sim(true));
  ASSERT_GT(simulator.event_shards(500).size(), 7u);
  sim::SimOptions none;
  none.category_cap = 0;
  none.chatter_events = 0;
  const sim::Simulator empty(SystemId::kLiberty, none);
  ASSERT_LE(empty.event_shards(500).size(), 1u);  // the serial branch

  for (const sim::Simulator* s : {&simulator, &empty}) {
    for (const int threads : {1, 2, 4, 7}) {
      SCOPED_TRACE("events=" + std::to_string(s->events().size()) +
                   " threads=" + std::to_string(threads));
      int calls = 0;
      std::thread::id ran_on;
      ParallelPipeline(small_chunks(threads)).run(*s, [&] {
        ++calls;
        ran_on = std::this_thread::get_id();
      });
      EXPECT_EQ(calls, 1);
      EXPECT_EQ(ran_on, std::this_thread::get_id());
    }
  }
}

TEST(ParallelPipelineMeanwhile, OneWorkerRunsItAfterThePass) {
  const sim::Simulator simulator(SystemId::kSpirit, tiny_sim(true));
  obs::Counter& events = events_counter();
  const std::uint64_t before = events.value();
  std::uint64_t seen = 0;
  ParallelPipeline(small_chunks(1)).run(simulator, [&] {
    seen = events.value() - before;
  });
  EXPECT_EQ(seen, simulator.events().size());
}

TEST(ParallelPipelineMeanwhile, BuildingASimulatorMeanwhileKeepsTheResult) {
  const sim::Simulator simulator(SystemId::kRedStorm, tiny_sim(true));
  const PipelineResult serial = run_pipeline(simulator, small_chunks(1));
  for (const int threads : {2, 4, 7}) {
    std::unique_ptr<const sim::Simulator> next;
    const PipelineResult r =
        ParallelPipeline(small_chunks(threads)).run(simulator, [&] {
          next = std::make_unique<const sim::Simulator>(SystemId::kBlueGeneL,
                                                        tiny_sim(true));
        });
    ASSERT_NE(next, nullptr);
    EXPECT_GT(next->events().size(), 0u);
    expect_identical(serial, r, "threads=" + std::to_string(threads));
  }
}

TEST(ParallelPipelineMeanwhile, ItsFailureIsRethrownAfterTheJoin) {
  const sim::Simulator simulator(SystemId::kLiberty, tiny_sim(true));
  obs::Counter& events = events_counter();
  for (const int threads : {1, 2, 4, 7}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    try {
      ParallelPipeline(small_chunks(threads)).run(simulator, [] {
        throw std::runtime_error("meanwhile failed");
      });
      ADD_FAILURE() << "run returned";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "meanwhile failed");
    }
    // Every worker has joined: no line is reduced after the throw.
    const std::uint64_t at_throw = events.value();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(events.value(), at_throw);
  }
}

TEST(ParallelPipelineMeanwhile, ChunkFailureDuringItIsRethrown) {
  // Two threads: one pool worker reduces chunks while the caller is
  // still inside `meanwhile`, which fails that worker's next allocation
  // once it is inside a chunk. Small chunks keep many left to fail in.
  sim::SimOptions so = tiny_sim(true);
  so.chatter_events = 60000;
  const sim::Simulator simulator(SystemId::kLiberty, so);
  PipelineOptions opts = small_chunks(2);
  opts.chunk_events = 64;
  obs::Counter& events = events_counter();
  const std::uint64_t before = events.value();
  bool injected = false;
  const auto fail_next_chunk = [&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    const auto waiting = [&] {
      return std::chrono::steady_clock::now() < deadline;
    };
    while (events.value() == before && waiting()) std::this_thread::yield();
    g_spared = std::this_thread::get_id();
    g_fail_armed.store(true);
    while (g_fail_armed.load() && waiting()) std::this_thread::yield();
    injected = !g_fail_armed.exchange(false);
  };
  EXPECT_THROW(ParallelPipeline(opts).run(simulator, fail_next_chunk),
               std::bad_alloc);
  EXPECT_TRUE(injected) << "the worker finished before the failure was armed";
}

}  // namespace
}  // namespace wss::core
