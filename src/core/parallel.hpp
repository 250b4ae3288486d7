// Parallel parse->tag pipeline over a simulated system log.
//
// Shards the simulator's rendered line stream into fixed-size chunks
// (sim::Simulator::event_shards), reduces each chunk to a partial
// PipelineResult on W workers that claim chunk ids from one atomic
// counter, and merges the partials in chunk-index order. The workers
// are W-1 std::jthreads plus the calling thread: the caller first runs
// an optional `meanwhile` task (serial work the pass need not wait
// for, such as building the next input) and then drains chunks as the
// last worker. With one worker the merge loop reduces each chunk
// inline instead and `meanwhile` runs after it; that branch is
// core::run_pipeline.
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

#include <functional>

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

  /// Same, and runs `meanwhile` exactly once on the calling thread
  /// while the other workers reduce chunks; the caller then reduces
  /// chunks too, as the last of the pass's workers.
  /// With one worker, `meanwhile` runs after the pass. It may read
  /// `simulator` (const, shared with the workers); what it holds while
  /// it runs adds to the pass's peak memory. The first failure, a
  /// chunk's or `meanwhile`'s, stops the pass and is rethrown after
  /// every pool thread has joined.
  PipelineResult run(const sim::Simulator& simulator,
                     const std::function<void()>& meanwhile) const;

 private:
  PipelineOptions options_;
};

}  // namespace wss::core
