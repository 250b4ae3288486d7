// Distributed study performance: split + workers + merge wall time
// versus a single-process study at the same (golden) configuration.
//
// Three timed phases over one full five-system study:
//   1. baseline -- one in-process Study renders every artifact;
//   2. plan     -- plan_split + write_manifest (the coordinator cost);
//   3. execute  -- N sequential workers, then merge (worst case: a
//      single machine paying the full protocol overhead with zero
//      parallel speedup, so overhead_x is an upper bound).
//
// The merged artifacts are byte-compared against the baseline's: the
// bench double-checks the equivalence contract while timing it, and
// FAILs on any divergence.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/golden.hpp"
#include "dist/manifest.hpp"
#include "dist/merge.hpp"
#include "dist/split.hpp"
#include "dist/worker.hpp"
#include "util/strings.hpp"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string read_file(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return std::move(ss).str();
}

}  // namespace

int main() {
  using namespace wss;

  std::cout << "==== perf_dist: split/worker/merge vs single-process ====\n";

  constexpr std::uint32_t kSplits = 4;
  const auto golden_opts = core::golden_study_options();

  const fs::path root =
      fs::temp_directory_path() /
      ("wss_perf_dist_" + std::to_string(::getpid()));
  const fs::path baseline_dir = root / "baseline";
  const fs::path manifest_dir = root / "manifest";
  fs::remove_all(root);
  fs::create_directories(root);

  // Phase 1: single-process baseline (simulate + pipeline + render).
  const auto t_base = Clock::now();
  core::Study baseline(golden_opts);
  const std::size_t baseline_artifacts = core::write_artifacts(
      baseline, baseline_dir.string(), [](const core::GoldenArtifact&) {
        return true;
      });
  const double baseline_s = seconds_since(t_base);

  // Phase 2: plan. Category routing is the most expensive axis (it
  // reads every chunk's ground truth), so it is the one worth timing.
  const auto t_plan = Clock::now();
  dist::SplitOptions split;
  split.axis = dist::SplitAxis::kCategory;
  split.num_splits = kSplits;
  split.study = golden_opts;
  const dist::StudyManifest planned = dist::plan_split(split);
  dist::write_manifest(planned, manifest_dir.string());
  const double plan_s = seconds_since(t_plan);

  // Phase 3: N workers back-to-back, then merge. Workers re-simulate
  // their systems from the manifest options, exactly as separate
  // machines would.
  const dist::StudyManifest manifest =
      dist::load_manifest(manifest_dir.string());
  const auto t_exec = Clock::now();
  std::uint64_t worker_events = 0;
  for (std::uint32_t id = 0; id < kSplits; ++id) {
    dist::WorkerOptions wopts;
    wopts.manifest_dir = manifest_dir.string();
    wopts.worker_id = id;
    wopts.threads = 2;
    const auto report = dist::run_worker(manifest, wopts);
    if (report.outcome != dist::WorkerOutcome::kCompleted) std::abort();
    worker_events += report.events;
  }
  const double workers_s = seconds_since(t_exec);

  const auto t_merge = Clock::now();
  dist::MergeOptions mopts;
  mopts.manifest_dir = manifest_dir.string();
  const auto merged = dist::run_merge(manifest, mopts);
  const double merge_s = seconds_since(t_merge);
  if (!merged.ok()) {
    std::cerr << merged.describe_failure() << "\n";
    return 1;
  }

  // Equivalence check rides along: merged bytes must equal baseline's.
  std::size_t diverged = 0;
  for (const auto& artifact : core::golden_artifacts()) {
    const std::string got = read_file(fs::path(merged.out_dir) / artifact.file);
    const std::string want = read_file(baseline_dir / artifact.file);
    if (got.empty() || got != want) {
      std::cerr << "  DIVERGED: " << artifact.file << "\n";
      ++diverged;
    }
  }
  const bool pass = diverged == 0 && merged.artifacts == baseline_artifacts;

  const double dist_total_s = plan_s + workers_s + merge_s;
  const double overhead_x = dist_total_s / baseline_s;

  std::cout << util::format(
      "  workload        5 systems, golden opts, %llu events, %llu chunks\n",
      static_cast<unsigned long long>(worker_events),
      static_cast<unsigned long long>(merged.chunks));
  std::cout << util::format("  baseline        %8.3f s (single process)\n",
                            baseline_s);
  std::cout << util::format("  plan            %8.3f s (category axis, N=%u)\n",
                            plan_s, kSplits);
  std::cout << util::format("  workers         %8.3f s (%u sequential)\n",
                            workers_s, kSplits);
  std::cout << util::format("  merge           %8.3f s (%zu artifacts)\n",
                            merge_s, merged.artifacts);
  std::cout << util::format(
      "  overhead        %.2fx of baseline (sequential worst case)\n",
      overhead_x);
  std::cout << util::format("  equivalence     %s\n",
                            pass ? "PASS (bit-identical)" : "FAIL");

  fs::remove_all(root);
  return pass ? 0 : 1;
}
