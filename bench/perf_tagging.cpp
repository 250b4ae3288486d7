// Perf: tag-engine throughput on the real TagEngine::tag_line path
// (DESIGN.md section 5d), plus a SIMD-level ablation of it.
//
// Tagging must keep up with hundreds of millions of messages, so the
// miss path (chatter lines that match no rule) is what matters; the
// corpus below is chatter-heavy by construction.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "match/scratch.hpp"
#include "sim/generator.hpp"
#include "simd/dispatch.hpp"
#include "tag/engine.hpp"
#include "tag/rulesets.hpp"

namespace {

using namespace wss;

struct Corpus {
  std::vector<std::string> lines;
  std::size_t bytes = 0;
};

/// The engine every pass times: BG/L rules.
const tag::TagEngine& engine() {
  static const tag::TagEngine e(
      tag::build_ruleset(parse::SystemId::kBlueGeneL));
  return e;
}

/// Mixed corpus: alerts and chatter in simulator proportions.
const Corpus& mixed_corpus() {
  static const Corpus c = [] {
    sim::SimOptions opts;
    opts.category_cap = 2000;
    opts.chatter_events = 30000;
    opts.inject_corruption = false;
    const sim::Simulator simulator(parse::SystemId::kBlueGeneL, opts);
    Corpus out;
    for (std::size_t i = 0; i < simulator.events().size(); ++i) {
      out.lines.push_back(simulator.line(i));
      out.bytes += out.lines.back().size();
    }
    return out;
  }();
  return c;
}

/// Miss-path corpus: the mixed corpus minus every line the engine
/// tags. This is the case that scales to 10^9 messages -- the paper's
/// logs are overwhelmingly chatter -- and the one the set matcher is
/// built for.
const Corpus& miss_corpus() {
  static const Corpus c = [] {
    match::MatchScratch scratch;
    Corpus out;
    for (const auto& line : mixed_corpus().lines) {
      if (!engine().tag_line(line, scratch)) {
        out.lines.push_back(line);
        out.bytes += line.size();
      }
    }
    return out;
  }();
  return c;
}

std::size_t tag_pass(const Corpus& c, match::MatchScratch& scratch) {
  std::size_t hits = 0;
  for (const auto& line : c.lines) {
    hits += engine().tag_line(line, scratch).has_value() ? 1 : 0;
  }
  return hits;
}

void tag_corpus(benchmark::State& state, const Corpus& c) {
  match::MatchScratch scratch;  // reused: the steady-state contract
  for (auto _ : state) {
    const std::size_t hits = tag_pass(c, scratch);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.lines.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.bytes));
}

void BM_TagMulti(benchmark::State& state) { tag_corpus(state, mixed_corpus()); }
BENCHMARK(BM_TagMulti);

void BM_TagMultiMiss(benchmark::State& state) {
  tag_corpus(state, miss_corpus());
}
BENCHMARK(BM_TagMultiMiss);

/// SIMD-level ablation of the tagging hot path: the same engine, timed
/// once per supported WSS_SIMD level (the vector block skip in
/// LiteralScanner and the vectorized delimiter scans react to
/// simd::set_level at runtime). Tag counts are cross-checked across
/// levels -- a disagreement is a correctness bug, not a perf result --
/// and each row records its speedup over the scalar baseline. Appended
/// as JSON-lines to BENCH_simd.json.
void emit_simd_ablation(const char* workload, const Corpus& c, int reps = 3) {
  const simd::Level restore = simd::active_level();
  const auto lines = static_cast<double>(c.lines.size());

  struct Row {
    simd::Level level;
    double lines_per_sec = 0.0;
    std::size_t hits = 0;
  };
  std::vector<Row> rows;
  for (const simd::Level level : simd::supported_levels()) {
    rows.push_back({level});
  }

  std::cout << "\n==== SIMD ablation (tag engine, " << workload << ", "
            << c.lines.size() << " lines) ====\n";
  for (Row& row : rows) {
    simd::set_level(row.level);
    match::MatchScratch scratch;
    row.hits = tag_pass(c, scratch);  // warm-up at this level
    double best_s = 1e300;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      const std::size_t hits = tag_pass(c, scratch);
      const auto t1 = std::chrono::steady_clock::now();
      if (hits != row.hits) std::abort();
      best_s =
          std::min(best_s, std::chrono::duration<double>(t1 - t0).count());
    }
    row.lines_per_sec = lines / best_s;
    if (row.hits != rows[0].hits) {
      std::cerr << "FATAL: level " << simd::level_name(row.level)
                << " tags " << row.hits << " lines, scalar tags "
                << rows[0].hits << "\n";
      std::abort();
    }
  }
  simd::set_level(restore);

  const double scalar_lps = rows[0].lines_per_sec;
  std::string json = util::format(
      "{\"bench\":\"perf_tagging\",\"layer\":\"tagging\",\"workload\":\"%s\","
      "\"lines\":%zu,\"tagged\":%zu,\"levels\":[",
      workload, c.lines.size(), rows[0].hits);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const double speedup =
        scalar_lps > 0 ? row.lines_per_sec / scalar_lps : 1.0;
    std::cout << util::format("  %-7s  %10.0f lines/sec  (%.2fx scalar)\n",
                              simd::level_name(row.level), row.lines_per_sec,
                              speedup);
    json += util::format(
        "%s{\"level\":\"%s\",\"lines_per_sec\":%.1f,"
        "\"speedup_vs_scalar\":%.3f}",
        i == 0 ? "" : ",", simd::level_name(row.level), row.lines_per_sec,
        speedup);
  }
  json += "]}";
  std::ofstream os("BENCH_simd.json", std::ios::app);
  if (os) os << json << "\n";
  std::cout << "(appended to BENCH_simd.json)\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "==== Perf: tagging throughput (BG/L rules, "
            << mixed_corpus().lines.size() << " mixed / "
            << miss_corpus().lines.size() << " miss-only lines) ====\n\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  emit_simd_ablation("bgl miss-path (untagged lines only)", miss_corpus());
  emit_simd_ablation("bgl mixed cap=2000 chatter=30000", mixed_corpus());
  return 0;
}
