#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/span.hpp"
#include "tag/metrics.hpp"
#include "tag/rulesets.hpp"

namespace wss::core {

ParallelPipeline::ParallelPipeline(PipelineOptions options)
    : options_(options) {}

int ParallelPipeline::resolved_threads() const {
  if (options_.num_threads > 0) return options_.num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace {

using Shards = std::vector<sim::Simulator::EventRange>;

/// Reduces every shard on `workers` threads -- `workers - 1` pool
/// threads plus the caller, which first runs `meanwhile` and then
/// drains chunks as the last worker. Returns the partials indexed by
/// chunk. Workers claim chunk ids from one atomic counter and each
/// writes only partials[i] for the ids it claimed, so the result array
/// needs no lock; the join orders every write before the caller's
/// merge. The first failure (a chunk's or `meanwhile`'s) stops further
/// claims and is rethrown once every pool thread has joined.
std::vector<PipelineResult> reduce_on_pool(
    const detail::ChunkContext& ctx, const Shards& shards, int workers,
    const std::function<void()>& meanwhile) {
  std::vector<PipelineResult> partials(shards.size());
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;
  const auto record_failure = [&] {
    std::lock_guard<std::mutex> lock(error_mu);
    if (!failed.exchange(true)) first_error = std::current_exception();
  };
  const auto drain = [&] {
    // Worker-owned matching scratch, reused across every chunk this
    // worker claims: the steady-state tag path allocates nothing, and
    // the candidate-set cache warms once per thread.
    match::MatchScratch scratch;
    tag::TagMetricsFlusher flusher;
    obs::Span worker_span("pipeline_worker");
    for (std::size_t i = next_chunk.fetch_add(1, std::memory_order_relaxed);
         i < shards.size() && !failed.load(std::memory_order_relaxed);
         i = next_chunk.fetch_add(1, std::memory_order_relaxed)) {
      try {
        partials[i] = detail::process_chunk(ctx, shards[i].begin,
                                            shards[i].end, scratch);
        flusher.flush(scratch);
      } catch (...) {
        record_failure();
      }
    }
  };

  {
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(workers - 1));
    for (int w = 1; w < workers; ++w) pool.emplace_back(drain);
    try {
      meanwhile();
    } catch (...) {
      record_failure();
    }
    drain();  // the caller is the last worker
  }  // jthreads join here

  if (failed.load()) std::rethrow_exception(first_error);
  return partials;
}

}  // namespace

PipelineResult ParallelPipeline::run(const sim::Simulator& simulator) const {
  return run(simulator, [] {});
}

PipelineResult ParallelPipeline::run(
    const sim::Simulator& simulator,
    const std::function<void()>& meanwhile) const {
  const Shards shards = simulator.event_shards(options_.chunk_events);
  const int workers = std::min<int>(
      resolved_threads(), static_cast<int>(std::max<std::size_t>(
                              shards.size(), 1)));

  const parse::SystemId system = simulator.spec().id;
  const tag::TagEngine engine(tag::build_ruleset(system));

  detail::ChunkContext ctx;
  ctx.simulator = &simulator;
  ctx.engine = &engine;
  ctx.system = system;
  ctx.num_categories = tag::categories_of(system).size();
  ctx.collect_source_tallies = options_.collect_source_tallies;

  // A threaded run reduces every chunk on the pool first; a serial run
  // reduces each chunk inside the merge loop, holding one partial at a
  // time. Both merge in chunk-index order, so both accumulate in the
  // same FP order.
  const bool threaded = workers > 1;
  std::vector<PipelineResult> partials;
  if (threaded) partials = reduce_on_pool(ctx, shards, workers, meanwhile);

  PipelineResult r = detail::make_partial(ctx);
  std::size_t alerts = 0;
  for (const PipelineResult& p : partials) alerts += p.tagged_alerts.size();
  r.tagged_alerts.reserve(alerts);
  match::MatchScratch scratch;  // serial only: reused across every chunk
  tag::TagMetricsFlusher flusher;
  obs::Counter& chunks = detail::PipelineCounters::get().chunks;
  {
    obs::Span pass(threaded ? "pipeline_merge" : "pipeline_serial");
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (threaded) {
        // The exchange frees each partial as soon as it is merged.
        detail::merge_partial(r, std::exchange(partials[i], {}));
      } else {
        detail::merge_partial(r, detail::process_chunk(ctx, shards[i].begin,
                                                       shards[i].end, scratch));
        flusher.flush(scratch);
      }
      chunks.inc();
    }
  }
  {
    obs::Span fin("finalize");
    detail::finalize_result(r);
  }
  if (!threaded) meanwhile();
  return r;
}

PipelineResult run_pipeline(const sim::Simulator& simulator,
                            const PipelineOptions& options) {
  PipelineOptions serial = options;
  serial.num_threads = 1;
  return ParallelPipeline(serial).run(simulator);
}

PipelineResult run_pipeline(const sim::Simulator& simulator,
                            bool collect_source_tallies) {
  PipelineOptions options;
  options.collect_source_tallies = collect_source_tallies;
  return run_pipeline(simulator, options);
}

}  // namespace wss::core
