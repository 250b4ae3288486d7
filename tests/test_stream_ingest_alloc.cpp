// Steady-state allocation contract of the file-mode stream engine:
// once its record, parse scratch, matching scratch, filter table and
// source map have grown to fit, StreamPipeline::ingest_line allocates
// nothing per line. What is left is per chunk: each merge of the open
// chunk starts a fresh partial, whose two per-category count vectors
// are two allocations. The same holds for `wss stream --in`'s block
// route (stream::FileIngest): once the pool's scratches are warm,
// cutting, reading and reducing blocks allocates nothing on any thread.
//
// The counter (tests/alloc_counter.hpp) replaces this binary's global
// operator new; it counts every allocation, so the measured region is
// exactly the ingest loop.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "logio/input.hpp"
#include "sim/generator.hpp"
#include "stream/file_ingest.hpp"
#include "stream/pipeline.hpp"

namespace wss::stream {
namespace {

std::vector<std::string> corpus(parse::SystemId system) {
  sim::SimOptions opts;
  opts.category_cap = 300;
  opts.chatter_events = 4000;
  opts.inject_corruption = true;
  const sim::Simulator simulator(system, opts);
  std::vector<std::string> lines;
  lines.reserve(simulator.events().size());
  for (std::size_t i = 0; i < simulator.events().size(); ++i) {
    lines.push_back(simulator.line(i));
  }
  return lines;
}

void expect_steady_state_allocates_per_chunk_only(parse::SystemId system) {
  const std::vector<std::string> lines = corpus(system);
  StreamPipelineOptions opts;
  opts.strict_order = false;  // what `wss stream --in` runs
  StreamPipeline pipeline(system, opts);

  // Warm-up: grows every buffer to its high-water mark, builds every
  // DFA state, interns every source this corpus has and fills the
  // bounded compression sample (the log's first lines). The filled
  // sample is compressed once, on its own thread; the full snapshot
  // waits for that, so its allocations are not counted as ingest's.
  do {
    for (const std::string& line : lines) pipeline.ingest_line(line);
  } while (pipeline.events() < kCompressionSampleLines);
  ASSERT_TRUE(pipeline.snapshot().compressed_fraction);
  const std::uint64_t merges_before =
      pipeline.events() / opts.study.chunk_events;

  const std::uint64_t before = testing_util::allocations();
  for (const std::string& line : lines) pipeline.ingest_line(line);
  const std::uint64_t after = testing_util::allocations();
  const std::uint64_t merges =
      pipeline.events() / opts.study.chunk_events - merges_before;

  EXPECT_GT(pipeline.snapshot().alerts_offered, 0u);
  EXPECT_GT(pipeline.snapshot().corrupted_source_lines, 0u);
  EXPECT_LE(after - before, 2 * merges)
      << (after - before) << " allocations across " << lines.size()
      << " steady-state lines and " << merges << " chunk merges";
}

/// The corpus written `reps` times over into one log file: a warm-up
/// long enough that every pool thread has read every kind of line many
/// times, then a measured stretch.
void expect_blocks_allocate_per_chunk_only(parse::SystemId system,
                                           int workers) {
  constexpr int kWarmReps = 30;
  constexpr int kReps = kWarmReps + 8;
  const std::vector<std::string> lines = corpus(system);
  const std::filesystem::path log =
      std::filesystem::temp_directory_path() /
      ("wss_ingest_alloc_" + std::to_string(::getpid()) + ".log");
  {
    std::ofstream os(log, std::ios::binary);
    for (int r = 0; r < kReps; ++r) {
      for (const std::string& line : lines) os << line << '\n';
    }
  }
  StreamPipelineOptions opts;
  opts.strict_order = false;
  StreamPipeline pipeline(system, opts);

  const std::uint64_t warm = kWarmReps * lines.size();
  const std::uint64_t last = (kReps - 1) * lines.size();
  ASSERT_GT(warm, kCompressionSampleLines);
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  FileIngestOptions fopts;
  fopts.after_line = [&](std::uint64_t reduced) {
    if (reduced == warm) {
      // The full snapshot waits for the sample's compression thread.
      EXPECT_TRUE(pipeline.snapshot().compressed_fraction);
      before = testing_util::allocations();
    } else if (reduced == last) {
      after = testing_util::allocations();
    }
  };
  {
    logio::ChunkReader reader = logio::ChunkReader::open(log);
    FileIngest ingest(pipeline, workers);
    EXPECT_TRUE(ingest.run(reader, fopts));
  }
  std::filesystem::remove(log);
  const std::uint64_t merges = last / opts.study.chunk_events -
                               warm / opts.study.chunk_events;
  EXPECT_GT(after, 0u);
  EXPECT_LE(after - before, 2 * merges)
      << (after - before) << " allocations across " << last - warm
      << " steady-state lines on " << workers << " pool threads and "
      << merges << " chunk merges";
}

TEST(StreamIngestAlloc, BlocksBlueGeneL) {
  expect_blocks_allocate_per_chunk_only(parse::SystemId::kBlueGeneL, 3);
}

TEST(StreamIngestAlloc, BlocksRedStorm) {
  expect_blocks_allocate_per_chunk_only(parse::SystemId::kRedStorm, 1);
}

TEST(StreamIngestAlloc, BlocksLiberty) {
  expect_blocks_allocate_per_chunk_only(parse::SystemId::kLiberty, 3);
}

TEST(StreamIngestAlloc, BlueGeneL) {
  expect_steady_state_allocates_per_chunk_only(parse::SystemId::kBlueGeneL);
}

TEST(StreamIngestAlloc, RedStorm) {
  expect_steady_state_allocates_per_chunk_only(parse::SystemId::kRedStorm);
}

TEST(StreamIngestAlloc, Liberty) {
  expect_steady_state_allocates_per_chunk_only(parse::SystemId::kLiberty);
}

}  // namespace
}  // namespace wss::stream
