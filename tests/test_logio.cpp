// Log I/O: disk round-trips (plain, compressed, per-source layout),
// year-rollover inference, and anonymization that preserves tagging.
// Files are read back with tests/read_records.hpp.
#include <gtest/gtest.h>

#include <filesystem>

#include "logio/anonymize.hpp"
#include "logio/writer.hpp"
#include "read_records.hpp"
#include "tag/engine.hpp"
#include "tag/rulesets.hpp"

namespace wss::logio {
namespace {

namespace fs = std::filesystem;
using parse::SystemId;

class LogIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("wss_logio_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  sim::Simulator make_sim(SystemId id) {
    sim::SimOptions opts;
    opts.category_cap = 300;
    opts.chatter_events = 2000;
    opts.inject_corruption = false;
    return sim::Simulator(id, opts);
  }

  fs::path dir_;
};

TEST_F(LogIoTest, PlainRoundTrip) {
  const auto sim = make_sim(SystemId::kLiberty);
  const auto res = write_log(sim, dir_ / "messages");
  EXPECT_EQ(res.lines, sim.events().size());
  EXPECT_EQ(res.files, 1u);
  EXPECT_GT(res.bytes_written, res.lines * 20);

  std::size_t read_lines = 0;
  const auto stats = testing_util::read_records(
      dir_ / "messages", SystemId::kLiberty, 2004,
      [&](const parse::LogRecord& rec) {
        ++read_lines;
        EXPECT_TRUE(rec.timestamp_valid);
      });
  EXPECT_EQ(read_lines, res.lines);
  EXPECT_EQ(stats.lines, res.lines);
  EXPECT_EQ(stats.invalid_timestamps, 0u);
}

TEST_F(LogIoTest, CompressedRoundTrip) {
  const auto sim = make_sim(SystemId::kLiberty);
  WriteOptions opts;
  opts.compressed = true;
  const auto res = write_log(sim, dir_ / "messages.wsc", opts);

  // Compressed file is smaller than the raw text.
  const auto raw = write_log(sim, dir_ / "messages");
  EXPECT_LT(res.bytes_written, raw.bytes_written / 2);

  // And reads back identically.
  EXPECT_EQ(read_log_text(dir_ / "messages.wsc"),
            read_log_text(dir_ / "messages"));
}

TEST_F(LogIoTest, PerSourceLayout) {
  const auto sim = make_sim(SystemId::kLiberty);
  WriteOptions opts;
  opts.per_source_dirs = true;
  const auto res = write_log(sim, dir_, opts);
  EXPECT_GT(res.files, 50u);  // one per active source
  // The admin node's file exists (chattiest source).
  EXPECT_TRUE(fs::exists(dir_ / "ladmin1" / "messages"));
}

TEST_F(LogIoTest, YearRolloverInference) {
  // Spirit's window starts 2005-01-01 and spans 558 days -> one
  // New Year boundary inside the log.
  const auto sim = make_sim(SystemId::kSpirit);
  write_log(sim, dir_ / "messages");
  util::TimeUs prev = 0;
  bool monotone = true;
  const auto stats = testing_util::read_records(
      dir_ / "messages", SystemId::kSpirit, 2005,
      [&](const parse::LogRecord& rec) {
        if (rec.time < prev) monotone = false;
        prev = rec.time;
      });
  EXPECT_EQ(stats.year_rollovers, 1);
  EXPECT_TRUE(monotone) << "year inference must keep time monotone";
}

TEST_F(LogIoTest, MissingFileThrows) {
  EXPECT_THROW(read_log_text(dir_ / "nope"), std::runtime_error);
}

TEST(YearTrackerTest, BumpsOnBackwardJump) {
  YearTracker yt(2005);
  EXPECT_EQ(yt.on_month(11), 2005);
  EXPECT_EQ(yt.on_month(12), 2005);
  EXPECT_EQ(yt.on_month(1), 2006);  // Dec -> Jan
  EXPECT_EQ(yt.on_month(2), 2006);
  EXPECT_EQ(yt.rollovers(), 1);
  // Mild out-of-order lines (Mar after Apr) do not bump.
  YearTracker yt2(2005);
  yt2.on_month(4);
  EXPECT_EQ(yt2.on_month(3), 2005);
}

TEST(AnonymizerTest, StableAndSeedKeyed) {
  const Anonymizer a(1);
  const Anonymizer b(1);
  const Anonymizer c(2);
  const std::string line = "connect from 192.168.7.13 by user42";
  EXPECT_EQ(a.anonymize(line), b.anonymize(line));
  EXPECT_NE(a.anonymize(line), c.anonymize(line));
  EXPECT_EQ(a.anonymize(line).find("192.168.7.13"), std::string::npos);
  EXPECT_EQ(a.anonymize(line).find("user42"), std::string::npos);
}

TEST(AnonymizerTest, ReplacesIpAddresses) {
  const Anonymizer a(3);
  const std::string out =
      a.anonymize("open_demux: connect 172.16.0.9:1234 failed");
  EXPECT_EQ(out.find("172.16.0.9"), std::string::npos);
  EXPECT_NE(out.find("10."), std::string::npos);
  EXPECT_NE(out.find(":1234"), std::string::npos);  // port kept
}

TEST(AnonymizerTest, DoesNotMangleNonIpNumbers) {
  const Anonymizer a(4);
  EXPECT_EQ(a.anonymize("sense key = 0x3 at 12345"),
            "sense key = 0x3 at 12345");
  // A version string with four components is admittedly IP-shaped;
  // anything else numeric is untouched.
  EXPECT_EQ(a.anonymize("job 99 exited 1"), "job 99 exited 1");
}

TEST(AnonymizerTest, ReplacesOwnersAndAtUsers) {
  const Anonymizer a(5);
  const std::string out =
      a.anonymize("Job Queued at request of root@ln12, owner = jdoe7");
  EXPECT_EQ(out.find("root@"), std::string::npos);
  EXPECT_EQ(out.find("jdoe7"), std::string::npos);
  EXPECT_NE(out.find("@ln12"), std::string::npos);
}

TEST(AnonymizerTest, PathsKeepBasename) {
  const Anonymizer a(6);
  const std::string out = a.anonymize(
      "assertion failed. /usr/src/gm/libgm/lx_mapper.c:2112 (m->root)");
  EXPECT_EQ(out.find("/usr/src/gm"), std::string::npos);
  EXPECT_NE(out.find("/lx_mapper.c:2112"), std::string::npos);
}

TEST(AnonymizerTest, TaggingSurvivesAnonymization) {
  // The whole point: anonymized logs must still be analyzable.
  sim::SimOptions opts;
  opts.category_cap = 300;
  opts.chatter_events = 1500;
  opts.inject_corruption = false;
  const sim::Simulator simulator(SystemId::kSpirit, opts);
  const tag::TagEngine engine(tag::build_ruleset(SystemId::kSpirit));
  const Anonymizer anon(7);

  for (std::size_t i = 0; i < simulator.events().size(); ++i) {
    const auto& e = simulator.events()[i];
    const std::string line = simulator.renderer().render_clean(e, i);
    const auto before = engine.tag_line(line);
    const auto after = engine.tag_line(anon.anonymize(line));
    ASSERT_EQ(before.has_value(), after.has_value()) << line;
    if (before) {
      EXPECT_EQ(before->category, after->category) << line;
    }
  }
}

}  // namespace
}  // namespace wss::logio
