// `wss stream --in` against an independent reference: the loop the
// retired `wss analyze` command ran, copied here as the oracle. It
// reads the file with tests/read_records.hpp, tags each record, interns
// parsed source names in order of first alert, and runs the batch
// filter::SimultaneousFilter over the tagged alerts. The stream report
// must print the oracle's line count, parse-quality counts, year
// rollovers, alert totals and per-category Raw/Filtered table.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "filter/simultaneous.hpp"
#include "logio/input.hpp"
#include "read_records.hpp"
#include "sim/spec.hpp"
#include "tag/engine.hpp"
#include "tag/rulesets.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace wss {
namespace {

namespace fs = std::filesystem;
using parse::SystemId;

/// What the oracle found in one log.
struct Summary {
  testing_util::ReadCounts read;
  std::size_t alerts = 0;
  std::size_t kept = 0;
  std::vector<std::size_t> raw;
  std::vector<std::size_t> filtered;
};

Summary analyze_oracle(const fs::path& path, SystemId system, int year,
                       double threshold_s) {
  const tag::RuleSet rules = tag::build_ruleset(system);
  const tag::TagEngine engine(rules);
  filter::SimultaneousFilter filter(
      static_cast<util::TimeUs>(threshold_s * 1e6));
  std::map<std::string, std::uint32_t> source_ids;
  match::MatchScratch scratch;
  Summary s;
  s.raw.assign(rules.size(), 0);
  s.filtered.assign(rules.size(), 0);
  s.read = testing_util::read_records(
      path, system, year, [&](const parse::LogRecord& rec) {
        const auto tagged = engine.tag(rec, scratch);
        if (!tagged) return;
        ++s.alerts;
        ++s.raw[tagged->category];
        filter::Alert a;
        a.time = rec.time;
        a.category = tagged->category;
        a.type = tagged->type;
        const auto [it, inserted] = source_ids.emplace(
            rec.source, static_cast<std::uint32_t>(source_ids.size()));
        a.source = it->second;
        if (filter.admit(a)) {
          ++s.kept;
          ++s.filtered[tagged->category];
        }
      });
  return s;
}

std::string commas(std::size_t n) {
  return util::with_commas(static_cast<std::int64_t>(n));
}

class StreamFileOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("wss_stream_oracle_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  int run_tokens(std::vector<std::string> tokens) {
    std::vector<const char*> argv = {"wss"};
    for (const auto& t : tokens) argv.push_back(t.c_str());
    out_.str("");
    err_.str("");
    return cli::run(
        cli::Args::parse(static_cast<int>(argv.size()), argv.data()), out_,
        err_);
  }

  /// Writes a simulated log (corruption on, the generator's default).
  std::string generate(SystemId system, int seed, bool compressed = false,
                       const std::string& chatter = "3000") {
    const std::string name = std::string(parse::system_short_name(system)) +
                             "_" + std::to_string(seed) +
                             (compressed ? ".wsc" : ".log");
    const std::string path = (dir_ / name).string();
    std::vector<std::string> tokens = {
        "generate", "--system", std::string(parse::system_short_name(system)),
        "--out",    path,       "--seed", std::to_string(seed),
        "--cap",    "300",      "--chatter", chatter};
    if (compressed) tokens.emplace_back("--compressed");
    EXPECT_EQ(run_tokens(tokens), 0) << err_.str();
    return path;
  }

  /// Runs `wss stream --in` and checks its report against the oracle.
  void expect_stream_matches_oracle(SystemId system, const std::string& log,
                                    double threshold_s, int year = 0) {
    const std::string sys(parse::system_short_name(system));
    SCOPED_TRACE(sys + " " + log);
    std::vector<std::string> tokens = {"stream", "--system", sys, "--in", log};
    if (threshold_s != 5.0) {
      tokens.insert(tokens.end(),
                    {"--threshold", util::format("%g", threshold_s)});
    }
    if (year != 0) {
      tokens.insert(tokens.end(), {"--year", std::to_string(year)});
    }
    ASSERT_EQ(run_tokens(tokens), 0) << err_.str();
    const std::string report = out_.str();

    const int start_year =
        year != 0 ? year : sim::system_spec(system).start_date.year;
    const Summary s = analyze_oracle(log, system, start_year, threshold_s);
    ASSERT_GT(s.read.lines, 0u);
    ASSERT_GT(s.alerts, 0u);

    const auto expect_has = [&report](const std::string& needle) {
      EXPECT_NE(report.find(needle), std::string::npos)
          << "missing '" << needle << "' in:\n" << report;
    };
    expect_has(" (final): " + commas(s.read.lines) + " events");
    expect_has(util::format(
        "  parse: %s corrupted sources, %s invalid timestamps, %d year "
        "rollover(s)\n",
        commas(s.read.corrupted_sources).c_str(),
        commas(s.read.invalid_timestamps).c_str(), s.read.year_rollovers));
    expect_has("  filter: " + commas(s.alerts) + " alerts -> " +
               commas(s.kept) + " after filtering");

    const auto cats = tag::categories_of(system);
    util::Table t({"Category", "Type", "Raw", "Filtered"});
    for (std::size_t c = 0; c < s.raw.size(); ++c) {
      if (s.raw[c] == 0) continue;
      t.add_row({cats[c]->name,
                 std::string(1, filter::alert_type_letter(cats[c]->type)),
                 std::to_string(s.raw[c]), std::to_string(s.filtered[c])});
    }
    expect_has(t.render());
  }

  fs::path dir_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(StreamFileOracleTest, EverySystemTwoSeeds) {
  for (const SystemId system : parse::kAllSystems) {
    for (const int seed : {1, 7}) {
      expect_stream_matches_oracle(system, generate(system, seed), 5.0);
    }
  }
}

TEST_F(StreamFileOracleTest, CompressedInput) {
  const std::string log = generate(SystemId::kSpirit, 3, /*compressed=*/true);
  expect_stream_matches_oracle(SystemId::kSpirit, log, 5.0);
}

TEST_F(StreamFileOracleTest, OtherThresholds) {
  expect_stream_matches_oracle(SystemId::kBlueGeneL,
                               generate(SystemId::kBlueGeneL, 1), 30.0);
  expect_stream_matches_oracle(SystemId::kSpirit,
                               generate(SystemId::kSpirit, 7), 1.0);
}

// A log over several of the reader's chunks: lines cut by a chunk edge
// reach the engine whole.
TEST_F(StreamFileOracleTest, SpansSeveralReadChunks) {
  const std::string log = generate(SystemId::kBlueGeneL, 5, false, "10000");
  ASSERT_GT(fs::file_size(log), 4 * logio::kReadChunk);
  expect_stream_matches_oracle(SystemId::kBlueGeneL, log, 5.0);
}

TEST_F(StreamFileOracleTest, ExplicitStartYear) {
  expect_stream_matches_oracle(SystemId::kLiberty,
                               generate(SystemId::kLiberty, 1), 5.0, 2003);
}

}  // namespace
}  // namespace wss
