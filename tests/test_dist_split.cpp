// Property tests for the split planner: every axis must partition the
// (system, chunk) work-unit space *exactly* -- no chunk unassigned, no
// chunk assigned twice -- across seeds and split counts, and the
// partition property must hold all the way down to the event stream
// (verified by folding the per-slice wss_pipeline_* counter deltas
// against an independent batch run's totals).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "dist/manifest.hpp"
#include "dist/partial.hpp"
#include "dist/split.hpp"
#include "dist/worker.hpp"
#include "obs/metrics.hpp"
#include "sim/generator.hpp"
#include "tag/rulesets.hpp"

namespace wss {
namespace {

namespace fs = std::filesystem;

/// Small, fast study volumes for property sweeps.
core::StudyOptions small_options(std::uint64_t seed) {
  core::StudyOptions o;
  o.sim.seed = seed;
  o.sim.category_cap = 300;
  o.sim.chatter_events = 1500;
  return o;
}

TEST(DistSplitProperty, EveryAxisPartitionsChunksExactly) {
  for (const std::uint64_t seed : {42ull, 7ull, 20260807ull}) {
    for (const auto axis : {dist::SplitAxis::kSystem, dist::SplitAxis::kTime,
                            dist::SplitAxis::kCategory}) {
      for (const std::uint32_t n : {1u, 2u, 3u, 5u, 9u}) {
        SCOPED_TRACE(std::string(dist::split_axis_name(axis)) + " N=" +
                     std::to_string(n) + " seed=" + std::to_string(seed));
        dist::SplitOptions opts;
        opts.axis = axis;
        opts.num_splits = n;
        opts.study = small_options(seed);
        const dist::StudyManifest m = dist::plan_split(opts);
        ASSERT_EQ(m.assignments.size(), n);
        ASSERT_EQ(m.systems.size(), parse::kNumSystems);
        for (std::size_t i = 0; i < m.systems.size(); ++i) {
          std::vector<std::uint64_t> owned(m.chunk_counts[i], 0);
          for (const dist::Assignment& a : m.assignments) {
            for (const dist::Slice& slice : a.slices) {
              if (slice.system != m.systems[i]) continue;
              for (const dist::ChunkRange& r : slice.ranges) {
                ASSERT_LT(r.begin, r.end);
                ASSERT_LE(r.end, m.chunk_counts[i]);
                for (std::uint64_t c = r.begin; c < r.end; ++c) ++owned[c];
              }
            }
          }
          for (std::uint64_t c = 0; c < m.chunk_counts[i]; ++c) {
            ASSERT_EQ(owned[c], 1u)
                << parse::system_short_name(m.systems[i]) << " chunk " << c
                << " assigned " << owned[c] << " times";
          }
        }
      }
    }
  }
}

TEST(DistSplitProperty, SystemAxisKeepsWholeSystemsTogether) {
  dist::SplitOptions opts;
  opts.axis = dist::SplitAxis::kSystem;
  opts.num_splits = 3;
  opts.study = small_options(42);
  const dist::StudyManifest m = dist::plan_split(opts);
  for (std::size_t i = 0; i < m.systems.size(); ++i) {
    const auto expected = static_cast<std::uint32_t>(i % 3);
    for (const dist::Assignment& a : m.assignments) {
      for (const dist::Slice& slice : a.slices) {
        if (slice.system != m.systems[i]) continue;
        EXPECT_EQ(a.id, expected)
            << parse::system_short_name(m.systems[i])
            << " landed on the wrong assignment";
        EXPECT_EQ(slice.chunk_count(), m.chunk_counts[i])
            << "system axis must assign whole systems";
      }
    }
  }
}

TEST(DistSplitProperty, TimeAxisSlicesAreContiguousAndOrdered) {
  dist::SplitOptions opts;
  opts.axis = dist::SplitAxis::kTime;
  opts.num_splits = 4;
  opts.study = small_options(42);
  const dist::StudyManifest m = dist::plan_split(opts);
  for (std::size_t i = 0; i < m.systems.size(); ++i) {
    const std::uint64_t chunks = m.chunk_counts[i];
    for (const dist::Assignment& a : m.assignments) {
      for (const dist::Slice& slice : a.slices) {
        if (slice.system != m.systems[i]) continue;
        // One contiguous run per system, at the documented boundaries.
        ASSERT_EQ(slice.ranges.size(), 1u);
        EXPECT_EQ(slice.ranges[0].begin, a.id * chunks / 4);
        EXPECT_EQ(slice.ranges[0].end, (a.id + 1ull) * chunks / 4);
      }
    }
  }
}

TEST(DistSplitProperty, PlanningIsDeterministic) {
  for (const auto axis : {dist::SplitAxis::kSystem, dist::SplitAxis::kTime,
                          dist::SplitAxis::kCategory}) {
    dist::SplitOptions opts;
    opts.axis = axis;
    opts.num_splits = 3;
    opts.study = small_options(99);
    const dist::StudyManifest a = dist::plan_split(opts);
    const dist::StudyManifest b = dist::plan_split(opts);
    ASSERT_EQ(a.assignments.size(), b.assignments.size());
    for (std::size_t i = 0; i < a.assignments.size(); ++i) {
      ASSERT_EQ(a.assignments[i].slices.size(),
                b.assignments[i].slices.size());
      for (std::size_t s = 0; s < a.assignments[i].slices.size(); ++s) {
        const auto& sa = a.assignments[i].slices[s];
        const auto& sb = b.assignments[i].slices[s];
        ASSERT_EQ(sa.system, sb.system);
        ASSERT_EQ(sa.ranges.size(), sb.ranges.size());
        for (std::size_t r = 0; r < sa.ranges.size(); ++r) {
          EXPECT_EQ(sa.ranges[r].begin, sb.ranges[r].begin);
          EXPECT_EQ(sa.ranges[r].end, sb.ranges[r].end);
        }
      }
    }
  }
}

TEST(DistSplitProperty, ManifestRoundTripsThroughDisk) {
  const fs::path dir = fs::temp_directory_path() /
                       ("wss_dist_split_rt_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  for (const auto axis : {dist::SplitAxis::kSystem, dist::SplitAxis::kTime,
                          dist::SplitAxis::kCategory}) {
    dist::SplitOptions opts;
    opts.axis = axis;
    opts.num_splits = 3;
    opts.study = small_options(4242);
    const dist::StudyManifest m = dist::plan_split(opts);
    dist::write_manifest(m, dir.string());
    const dist::StudyManifest loaded = dist::load_manifest(dir.string());
    EXPECT_EQ(loaded.axis, m.axis);
    EXPECT_EQ(loaded.num_splits, m.num_splits);
    EXPECT_EQ(loaded.options.sim.seed, m.options.sim.seed);
    EXPECT_EQ(loaded.options.sim.category_cap, m.options.sim.category_cap);
    EXPECT_EQ(loaded.options.sim.chatter_events,
              m.options.sim.chatter_events);
    EXPECT_EQ(loaded.options.sim.inject_corruption,
              m.options.sim.inject_corruption);
    EXPECT_EQ(loaded.options.sim.threshold_us, m.options.sim.threshold_us);
    EXPECT_EQ(loaded.options.pipeline.chunk_events,
              m.options.pipeline.chunk_events);
    EXPECT_EQ(loaded.systems, m.systems);
    EXPECT_EQ(loaded.chunk_counts, m.chunk_counts);
    ASSERT_EQ(loaded.assignments.size(), m.assignments.size());
    for (std::size_t i = 0; i < m.assignments.size(); ++i) {
      ASSERT_EQ(loaded.assignments[i].slices.size(),
                m.assignments[i].slices.size());
    }
    fs::remove_all(dir);
  }
}

// The partition property, verified at event granularity: fold every
// worker's wss_pipeline_* counter deltas and compare with an
// independent batch run over the same systems. Equal totals mean
// every event was processed by exactly one slice.
TEST(DistSplitProperty, SliceCounterDeltasFoldToBatchTotals) {
  const core::StudyOptions study = small_options(42);

  // Batch reference: registry deltas across serial runs of all five.
  std::map<std::string, std::uint64_t> before;
  for (const auto& [name, v] : obs::registry().counter_values()) {
    before[name] = v;
  }
  std::uint64_t total_events = 0;
  for (const auto id : parse::kAllSystems) {
    const sim::Simulator sim(id, study.sim);
    total_events += sim.events().size();
    (void)core::run_pipeline(sim, study.pipeline);
  }
  std::map<std::string, std::uint64_t> batch;
  for (const auto& [name, v] : obs::registry().counter_values()) {
    const auto it = before.find(name);
    const std::uint64_t prior = it == before.end() ? 0 : it->second;
    if (v > prior) batch[name] = v - prior;
  }

  const fs::path dir = fs::temp_directory_path() /
                       ("wss_dist_split_fold_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  dist::SplitOptions sopts;
  sopts.axis = dist::SplitAxis::kCategory;  // maximally interleaved
  sopts.num_splits = 3;
  sopts.study = study;
  const dist::StudyManifest m = dist::plan_split(sopts);
  dist::write_manifest(m, dir.string());

  std::map<std::string, std::uint64_t> folded;
  for (std::uint32_t id = 0; id < m.num_splits; ++id) {
    dist::WorkerOptions wopts;
    wopts.manifest_dir = dir.string();
    wopts.worker_id = id;
    const auto report = dist::run_worker(m, wopts);
    ASSERT_EQ(report.outcome, dist::WorkerOutcome::kCompleted);
    const auto partial =
        dist::read_partial(dist::partial_path(dir.string(), id));
    for (const auto& [name, delta] : partial.counter_deltas) {
      folded[name] += delta;
    }
  }
  fs::remove_all(dir);

  // The event-granular pipeline counters must agree exactly. (The
  // chunks counter is merge-side bookkeeping and excluded: workers
  // never fold.)
  for (const std::string name :
       {"wss_pipeline_events_total", "wss_pipeline_bytes_total",
        "wss_pipeline_corrupted_source_lines_total",
        "wss_pipeline_invalid_timestamp_lines_total",
        "wss_pipeline_alerts_tagged_total"}) {
    const auto b = batch.find(name);
    const auto f = folded.find(name);
    const std::uint64_t batch_v = b == batch.end() ? 0 : b->second;
    const std::uint64_t fold_v = f == folded.end() ? 0 : f->second;
    EXPECT_EQ(fold_v, batch_v) << name;
  }
  const auto events = batch.find("wss_pipeline_events_total");
  ASSERT_NE(events, batch.end());
  EXPECT_EQ(events->second, total_events);
}

// Serialization round-trip: a real chunk partial must survive
// save -> load -> save with byte-identical encoding (bit-exact FP
// fields included).
TEST(DistSplitProperty, ChunkPartialSerializationRoundTripsBitExactly) {
  const core::StudyOptions study = small_options(42);
  const sim::Simulator sim(parse::SystemId::kSpirit, study.sim);
  const tag::RuleSet rules = tag::build_ruleset(parse::SystemId::kSpirit);
  const tag::TagEngine engine(rules);
  core::detail::ChunkContext ctx;
  ctx.simulator = &sim;
  ctx.engine = &engine;
  ctx.system = parse::SystemId::kSpirit;
  ctx.num_categories = tag::categories_of(parse::SystemId::kSpirit).size();
  const auto shards = sim.event_shards(study.pipeline.chunk_events);
  ASSERT_FALSE(shards.empty());
  match::MatchScratch scratch;
  const core::PipelineResult original =
      core::detail::process_chunk(ctx, shards[0].begin, shards[0].end,
                                  scratch);

  const auto encode = [](const core::PipelineResult& r) {
    std::ostringstream os(std::ios::binary);
    stream::CheckpointWriter w(os);
    dist::save_result(w, r);
    return std::move(os).str();
  };
  const std::string bytes = encode(original);
  std::istringstream is(bytes, std::ios::binary);
  stream::CheckpointReader r(is);
  const core::PipelineResult decoded = dist::load_result(r);
  EXPECT_EQ(encode(decoded), bytes);
  EXPECT_EQ(decoded.physical_messages, original.physical_messages);
  EXPECT_EQ(decoded.tagged_alerts.size(), original.tagged_alerts.size());
  EXPECT_EQ(decoded.messages_by_source, original.messages_by_source);
}

}  // namespace
}  // namespace wss
