// Steady-state allocation contract of the file-mode stream engine:
// once its record, parse scratch, matching scratch, filter table and
// source map have grown to fit, StreamPipeline::ingest_line allocates
// nothing per line. What is left is per chunk: each merge of the open
// chunk starts a fresh partial, whose two per-category count vectors
// are two allocations.
//
// The counter (tests/alloc_counter.hpp) replaces this binary's global
// operator new; it counts every allocation, so the measured region is
// exactly the ingest loop.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "sim/generator.hpp"
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
