// Corruption accounting against hand-computed ground truth: a log
// containing truncated lines, NUL-embedded bytes, and a >1 MiB line is
// read by the test-side reader (tests/read_records.hpp) and streamed
// through the online engine, and
// both must report EXACTLY the corrupted-source and invalid-timestamp
// counts a human gets from reading the file (Section 3.2.1's
// corruption modes, pinned line by line instead of statistically).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "read_records.hpp"
#include "stream/pipeline.hpp"

namespace wss {
namespace {

namespace fs = std::filesystem;

/// The hand-built corpus. Per line (Liberty syslog grammar):
///   0  clean
///   1  NUL byte inside the host token  -> source corrupted
///   2  truncated mid-timestamp         -> invalid stamp + no source
///   3  empty line                      -> invalid stamp + no source
///   4  valid header, 1 MiB body        -> clean (size is not corruption)
///   5  truncated mid-tag               -> clean (header fully parsed)
std::vector<std::string> corpus() {
  std::vector<std::string> lines;
  lines.push_back("Jun 12 08:00:00 lhost1 kernel: link up");
  lines.push_back(std::string("Jun 12 08:00:01 lh\0st1 kernel: nul host", 39));
  lines.push_back("Jun 12 08");
  lines.push_back("");
  lines.push_back("Jun 12 08:00:02 lhost2 kernel: " +
                  std::string((1u << 20) + 1, 'a'));
  lines.push_back("Jun 12 08:00:03 lhost3 ker");
  return lines;
}

constexpr std::size_t kCorrupted = 3;  // lines 1, 2, 3
constexpr std::size_t kInvalidStamps = 2;  // lines 2, 3

class LogioCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("wss_corrupt_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    path_ = dir_ / "messages";
    std::ofstream os(path_, std::ios::binary);
    for (const auto& line : corpus()) os << line << '\n';
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  fs::path path_;
};

/// What the test keeps of a record. A LogRecord views its line, which
/// the reader frees once the pass is over, so the checks below read
/// owned copies.
struct KeptRecord {
  bool timestamp_valid = false;
  bool source_corrupted = false;
  std::string source;
  std::size_t body_size = 0;
  std::size_t raw_size = 0;
};

TEST_F(LogioCorruptionTest, ReaderCountsMatchHandComputation) {
  std::vector<KeptRecord> recs;
  const auto stats = testing_util::read_records(
      path_, parse::SystemId::kLiberty, 2004,
      [&](const parse::LogRecord& rec) {
        recs.push_back({rec.timestamp_valid, rec.source_corrupted,
                        std::string(rec.source), rec.body.size(),
                        rec.raw.size()});
      });

  EXPECT_EQ(stats.lines, corpus().size());
  EXPECT_EQ(stats.corrupted_sources, kCorrupted);
  EXPECT_EQ(stats.invalid_timestamps, kInvalidStamps);
  EXPECT_EQ(stats.year_rollovers, 0);

  ASSERT_EQ(recs.size(), corpus().size());
  // Line 0: fully clean.
  EXPECT_TRUE(recs[0].timestamp_valid);
  EXPECT_FALSE(recs[0].source_corrupted);
  EXPECT_EQ(recs[0].source, "lhost1");
  // Line 1: the NUL poisons only the source; the stamp still parses.
  EXPECT_TRUE(recs[1].timestamp_valid);
  EXPECT_TRUE(recs[1].source_corrupted);
  // Lines 2 and 3: nothing usable.
  for (const std::size_t i : {std::size_t{2}, std::size_t{3}}) {
    EXPECT_FALSE(recs[i].timestamp_valid) << "line " << i;
    EXPECT_TRUE(recs[i].source_corrupted) << "line " << i;
  }
  // Line 4: a giant body is NOT corruption; it survives intact.
  EXPECT_TRUE(recs[4].timestamp_valid);
  EXPECT_FALSE(recs[4].source_corrupted);
  EXPECT_EQ(recs[4].source, "lhost2");
  EXPECT_EQ(recs[4].body_size, (1u << 20) + 1);
  EXPECT_GT(recs[4].raw_size, 1u << 20);
  // Line 5: truncated after the host -- still attributable.
  EXPECT_TRUE(recs[5].timestamp_valid);
  EXPECT_FALSE(recs[5].source_corrupted);
  EXPECT_EQ(recs[5].source, "lhost3");
}

TEST_F(LogioCorruptionTest, StreamPipelineAccountsIdentically) {
  obs::registry().reset();
  stream::StreamPipelineOptions popts;
  popts.strict_order = false;  // parsed-log mode
  popts.start_year = 2004;
  popts.study.collect_source_tallies = true;
  stream::StreamPipeline pipeline(parse::SystemId::kLiberty, popts);

  std::size_t expected_bytes = 0;
  for (const auto& line : corpus()) {
    pipeline.ingest_line(line);
    expected_bytes += line.size() + 1;  // '\n' included, as on disk
  }
  pipeline.finish();

  const auto snap = pipeline.snapshot();
  EXPECT_EQ(snap.physical_messages, corpus().size());
  EXPECT_EQ(snap.corrupted_source_lines, kCorrupted);
  EXPECT_EQ(snap.invalid_timestamp_lines, kInvalidStamps);
  EXPECT_EQ(snap.physical_bytes, expected_bytes);

  // The obs counters must agree with the hand count, not merely with
  // each other.
  const auto counters = obs::registry().snapshot();
  EXPECT_EQ(counters.counter_or_zero("wss_pipeline_events_total"),
            corpus().size());
  EXPECT_EQ(
      counters.counter_or_zero("wss_pipeline_corrupted_source_lines_total"),
      kCorrupted);
  EXPECT_EQ(
      counters.counter_or_zero("wss_pipeline_invalid_timestamp_lines_total"),
      kInvalidStamps);
  EXPECT_EQ(counters.counter_or_zero("wss_pipeline_bytes_total"),
            expected_bytes);
}

}  // namespace
}  // namespace wss
