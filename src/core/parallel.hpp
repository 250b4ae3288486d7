// Parallel parse->tag pipeline over a simulated system log.
//
// Shards the simulator's rendered line stream into fixed-size chunks
// (sim::Simulator::event_shards), reduces each chunk to a partial
// PipelineResult on a fixed-size std::jthread pool fed by a bounded
// MPMC work queue, and merges the partials in chunk-index order. With
// one worker the same loop reduces each chunk inline instead; that
// branch is core::run_pipeline.
//
// Determinism guarantee: because chunk boundaries depend only on
// PipelineOptions::chunk_events and the merge walks chunks in index
// order (regardless of which worker finished when), the output is
// bit-identical to the serial core::run_pipeline for every thread
// count and every scheduling interleave. tests/test_core_parallel.cpp
// enforces this at 1, 2, 4, and 7 threads.
//
// The hot path (parse + tag of one chunk) takes no locks: workers
// share only const state (Simulator, TagEngine -- both documented
// const-shareable, see test_tag_threading) and write partial results
// into per-chunk slots they exclusively own.
#pragma once

#include "core/pipeline.hpp"

namespace wss::core {

/// Runs the pipeline across a thread pool. Stateless apart from its
/// options; a single instance may be reused for many runs.
class ParallelPipeline {
 public:
  explicit ParallelPipeline(PipelineOptions options = {});

  const PipelineOptions& options() const { return options_; }

  /// The thread count a run will actually use (resolves num_threads=0
  /// to the hardware concurrency).
  int resolved_threads() const;

  /// Runs parse->tag over every rendered line of `simulator`.
  /// Bit-identical to run_pipeline(simulator, options()).
  PipelineResult run(const sim::Simulator& simulator) const;

 private:
  PipelineOptions options_;
};

}  // namespace wss::core
