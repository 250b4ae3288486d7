// Steady-state allocation contract of the tag path: after a warm-up
// pass (scratch buffers sized, candidate-set cache populated), tagging
// a line allocates NOTHING -- on BG/L, whose rules the literal scan
// decides alone, and on Spirit and Liberty, whose `.*` terms run the
// Pike VM. The pipeline calls
// tag_line hundreds of millions of times; a single per-line allocation
// is the difference between memory-bandwidth-bound and
// allocator-bound.
//
// The counter (tests/alloc_counter.hpp) replaces this binary's global
// operator new; it counts every allocation, so the measured region is
// exactly the tag loop.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "match/scratch.hpp"
#include "read_records.hpp"
#include "sim/generator.hpp"
#include "tag/engine.hpp"
#include "tag/metrics.hpp"
#include "tag/rulesets.hpp"

namespace wss::tag {
namespace {

std::vector<std::string> corpus(parse::SystemId system) {
  sim::SimOptions opts;
  opts.category_cap = 500;
  opts.chatter_events = 5000;
  opts.inject_corruption = false;
  const sim::Simulator simulator(system, opts);
  std::vector<std::string> lines;
  lines.reserve(simulator.events().size());
  for (std::size_t i = 0; i < simulator.events().size(); ++i) {
    lines.push_back(simulator.line(i));
  }
  return lines;
}

std::size_t tag_pass(const TagEngine& engine,
                     const std::vector<std::string>& lines,
                     match::MatchScratch& scratch) {
  std::size_t hits = 0;
  for (const auto& line : lines) {
    hits += engine.tag_line(line, scratch).has_value() ? 1 : 0;
  }
  return hits;
}

class TagAllocTest : public testing::TestWithParam<parse::SystemId> {};

TEST_P(TagAllocTest, SteadyStateTaggingAllocatesNothing) {
  const parse::SystemId system = GetParam();
  const std::vector<std::string> lines = corpus(system);
  ASSERT_FALSE(lines.empty());
  const TagEngine engine(build_ruleset(system));
  match::MatchScratch scratch;
  // The metrics flusher rides the same hot loop in production; it must
  // hold the zero-allocation bar too (handles bind at construction).
  TagMetricsFlusher flusher;

  // Warm-up: grows every scratch buffer (Pike-VM thread lists
  // included) to its high-water mark.
  const std::size_t hits = tag_pass(engine, lines, scratch);
  flusher.flush(scratch);
  // Spirit's GM_MAP and Liberty's GM_PAR/GM_MAP are `.*` terms: the
  // measured pass must run them, not only the literal scan.
  if (system != parse::SystemId::kBlueGeneL) {
    EXPECT_GT(scratch.dfa_scans, 0u);
  }

  const std::uint64_t before = testing_util::allocations();
  const std::size_t hits_again = tag_pass(engine, lines, scratch);
  flusher.flush(scratch);
  const std::uint64_t after = testing_util::allocations();

  EXPECT_EQ(hits_again, hits);
  EXPECT_GT(hits, 0u);  // the corpus must exercise the hit path too
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations across " << lines.size()
      << " steady-state lines";
}

INSTANTIATE_TEST_SUITE_P(
    Systems, TagAllocTest,
    testing::Values(parse::SystemId::kBlueGeneL, parse::SystemId::kSpirit,
                    parse::SystemId::kLiberty),
    [](const testing::TestParamInfo<parse::SystemId>& info) {
      return std::string(parse::system_short_name(info.param));
    });

// End-to-end miss-path contract: read (mmap) -> split -> parse ->
// tag, the whole chain, allocates nothing per line in steady state.
// Direct before/after counting cannot separate warm-up (string
// capacities and scratch vectors grow DURING the first pass), so the
// pin is differential: a file with the corpus once and
// a file with it twice incur IDENTICAL allocation counts -- every
// allocation is per-pass setup or high-water growth, and the extra
// N lines of the doubled file add exactly zero.
TEST(TagAllocEndToEnd, DoubledCorpusAddsZeroAllocations) {
  const std::vector<std::string> lines = corpus(parse::SystemId::kBlueGeneL);
  std::string text;
  for (const auto& line : lines) {
    text += line;
    text += '\n';
  }
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("wss_alloc_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const fs::path once = dir / "once.log";
  const fs::path twice = dir / "twice.log";
  {
    std::ofstream(once, std::ios::binary) << text;
    std::ofstream(twice, std::ios::binary) << text << text;
  }

  const TagEngine engine(build_ruleset(parse::SystemId::kBlueGeneL));
  const auto pass = [&](const fs::path& p) -> std::pair<std::uint64_t,
                                                        std::size_t> {
    match::MatchScratch scratch;
    std::size_t hits = 0;
    const std::uint64_t before =
        testing_util::allocations();
    testing_util::read_records(
        p, parse::SystemId::kBlueGeneL, 2005,
        [&](const parse::LogRecord& rec) {
          hits += engine.tag_line(rec.raw, scratch).has_value() ? 1 : 0;
        });
    const std::uint64_t after = testing_util::allocations();
    return {after - before, hits};
  };

  // Prime one pass first so both measured passes see the same
  // process state (first-touch allocations happen here).
  pass(once);

  const auto [allocs_once, hits_once] = pass(once);
  const auto [allocs_twice, hits_twice] = pass(twice);

  std::error_code ec;
  fs::remove_all(dir, ec);

  EXPECT_GT(hits_once, 0u);
  EXPECT_EQ(hits_twice, 2 * hits_once);
  EXPECT_EQ(allocs_twice, allocs_once)
      << "the doubled corpus cost " << (allocs_twice - allocs_once)
      << " extra allocations across " << lines.size() << " extra lines";
}

}  // namespace
}  // namespace wss::tag
