// Negative-path CLI sweep: every malformed invocation must exit
// non-zero with a single-line diagnostic on stderr -- never a silent
// default, never a crash, never a page of usage for a typo.
//
// Exit-code convention: 2 for usage errors (bad flags/values), 1 for
// runtime I/O failures (missing input, unwritable output).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "cli/commands.hpp"
#include "util/file.hpp"

namespace wss::cli {
namespace {

namespace fs = std::filesystem;

Args make_args(std::vector<std::string> tokens) {
  std::vector<const char*> argv = {"wss"};
  for (const auto& t : tokens) argv.push_back(t.c_str());
  return Args::parse(static_cast<int>(argv.size()), argv.data());
}

class CliNegativeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("wss_neg_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  int run_tokens(std::vector<std::string> tokens) {
    out_.str("");
    err_.str("");
    return run(make_args(std::move(tokens)), out_, err_);
  }

  /// The error contract: exactly one line, newline-terminated,
  /// containing `needle`.
  void expect_one_line_error(const std::string& needle) {
    const std::string msg = err_.str();
    ASSERT_FALSE(msg.empty());
    EXPECT_EQ(msg.back(), '\n');
    EXPECT_EQ(std::count(msg.begin(), msg.end(), '\n'), 1)
        << "expected a one-line diagnostic, got:\n" << msg;
    EXPECT_NE(msg.find(needle), std::string::npos)
        << "diagnostic missing '" << needle << "':\n" << msg;
  }

  fs::path dir_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliNegativeTest, UnknownFlagRejectedByEveryCommand) {
  const std::string x = (dir_ / "x").string();
  const std::vector<std::vector<std::string>> cases = {
      {"generate", "--system", "liberty", "--out", x, "--bogus", "1"},
      {"stream", "--system", "liberty", "--in", x, "--bogus", "1"},
      {"anonymize", "--in", x, "--out", x + "2", "--bogus", "1"},
      {"mine", "--in", x, "--bogus", "1"},
      {"tables", "--which", "1", "--bogus", "1"},
      {"study", "--system", "liberty", "--bogus", "1"},
      {"stream", "--system", "liberty", "--bogus", "1"},
  };
  for (const auto& tokens : cases) {
    SCOPED_TRACE(tokens.front());
    EXPECT_EQ(run_tokens(tokens), 2);
    expect_one_line_error("unknown flag --bogus");
  }
}

TEST_F(CliNegativeTest, ThreadsZeroRejected) {
  // 0 used to mean "all cores"; that spelling is now 'auto', and 0 is
  // a loud error (a zero-thread pipeline is always a mistake).
  EXPECT_EQ(run_tokens({"study", "--system", "liberty", "--threads", "0"}),
            2);
  expect_one_line_error("--threads must be >= 1");
  EXPECT_EQ(run_tokens({"tables", "--which", "1", "--threads", "0"}), 2);
  expect_one_line_error("--threads must be >= 1");
}

TEST_F(CliNegativeTest, ThreadsNegativeRejected) {
  EXPECT_EQ(run_tokens({"study", "--system", "liberty", "--threads", "-4"}),
            2);
  expect_one_line_error("--threads");
}

TEST_F(CliNegativeTest, ThreadsNonNumericRejected) {
  EXPECT_EQ(run_tokens({"study", "--system", "liberty", "--threads", "two"}),
            2);
  expect_one_line_error("'two' is not a thread count");
}

TEST_F(CliNegativeTest, ThreadsAutoAccepted) {
  // Positive control: the documented spelling for "all cores" works.
  EXPECT_EQ(run_tokens({"study", "--system", "liberty", "--threads", "auto",
                        "--cap", "200", "--chatter", "1000"}),
            0);
  EXPECT_TRUE(err_.str().empty()) << err_.str();
}

TEST_F(CliNegativeTest, EmptyMetricsPathRejected) {
  EXPECT_EQ(run_tokens({"study", "--system", "liberty", "--metrics="}), 2);
  expect_one_line_error("--metrics requires a file path");
}

TEST_F(CliNegativeTest, UnwritableMetricsPathFails) {
  const std::string path = (dir_ / "no-such-dir" / "m.json").string();
  EXPECT_EQ(run_tokens({"study", "--system", "liberty", "--cap", "200",
                        "--chatter", "1000", "--metrics", path}),
            1);
  expect_one_line_error("metrics: cannot open");
}

TEST_F(CliNegativeTest, CheckpointRestoreSamePathRejected) {
  const std::string ckpt = (dir_ / "state.ckpt").string();
  EXPECT_EQ(run_tokens({"stream", "--system", "liberty", "--checkpoint",
                        ckpt, "--restore", ckpt}),
            2);
  expect_one_line_error("--checkpoint and --restore");
}

TEST_F(CliNegativeTest, StreamRejectsRingFlags) {
  // `wss stream` has no ring to size or to drop from.
  EXPECT_EQ(run_tokens({"stream", "--system", "liberty", "--policy",
                        "drop-oldest"}),
            2);
  expect_one_line_error("unknown flag --policy");
  EXPECT_EQ(run_tokens({"stream", "--system", "liberty", "--queue", "256"}),
            2);
  expect_one_line_error("unknown flag --queue");
}

TEST_F(CliNegativeTest, StreamRestoreFromMissingFileFails) {
  EXPECT_EQ(run_tokens({"stream", "--system", "liberty", "--restore",
                        (dir_ / "nope.ckpt").string()}),
            1);
  expect_one_line_error("cannot open");
}

TEST_F(CliNegativeTest, StreamRestoreOfFlippedByteNamesChecksum) {
  const std::string ckpt = (dir_ / "flip.ckpt").string();
  ASSERT_EQ(run_tokens({"stream", "--system", "liberty", "--cap", "200",
                        "--chatter", "1000", "--checkpoint", ckpt}),
            0)
      << err_.str();
  std::string bytes = util::read_file(ckpt);
  // Past the 8-byte header, inside the payload the trailer covers.
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] ^= 0x01;
  util::publish_file(ckpt, bytes);
  EXPECT_EQ(run_tokens({"stream", "--system", "liberty", "--restore", ckpt}),
            1);
  expect_one_line_error("checksum");
}

TEST_F(CliNegativeTest, StudyRejectsUnknownSystemAndBadThreshold) {
  EXPECT_EQ(run_tokens({"study", "--system", "nope"}), 2);
  expect_one_line_error("unknown system 'nope'");
  EXPECT_EQ(run_tokens({"study", "--system", "liberty", "--threshold", "0"}),
            2);
  expect_one_line_error("--threshold must be positive");
}

TEST_F(CliNegativeTest, TablesRejectsWhichOutOfRange) {
  EXPECT_EQ(run_tokens({"tables", "--which", "7"}), 2);
  expect_one_line_error("--which must be 1..6");
}

TEST_F(CliNegativeTest, NonNumericValueBecomesOneLineCommandError) {
  // A stray throw inside a command must surface as "<cmd>: <what>",
  // one line, exit 2 -- the run() catch-all contract.
  EXPECT_EQ(run_tokens({"study", "--system", "liberty", "--seed", "abc"}), 2);
  const std::string msg = err_.str();
  EXPECT_EQ(msg.rfind("study: ", 0), 0u) << msg;
  EXPECT_EQ(std::count(msg.begin(), msg.end(), '\n'), 1) << msg;
}

TEST_F(CliNegativeTest, MissingInputFileIsOneLineError) {
  EXPECT_EQ(run_tokens({"stream", "--system", "liberty", "--in",
                        (dir_ / "nope.log").string()}),
            1);
  const std::string msg = err_.str();
  EXPECT_EQ(msg.rfind("stream: ", 0), 0u) << msg;
  EXPECT_EQ(std::count(msg.begin(), msg.end(), '\n'), 1) << msg;
}

TEST_F(CliNegativeTest, StreamRefusesTheOtherSourcesFlags) {
  const std::string x = (dir_ / "x").string();
  for (const std::string flag : {"seed", "cap", "chatter", "speed"}) {
    SCOPED_TRACE(flag);
    EXPECT_EQ(run_tokens({"stream", "--system", "liberty", "--in", x,
                          "--" + flag, "3"}),
              2);
    expect_one_line_error("--" + flag + " applies to the simulated source");
  }
  EXPECT_EQ(run_tokens({"stream", "--system", "liberty", "--year", "1999"}),
            2);
  expect_one_line_error("--year applies to --in only");
}

// ---- Online prediction flags (stream/serve --predict family) ----

TEST_F(CliNegativeTest, PredictSatelliteFlagsRequirePredict) {
  for (const auto& cmd : {std::string("stream"), std::string("serve")}) {
    SCOPED_TRACE(cmd);
    EXPECT_EQ(run_tokens({cmd, "--system", "liberty", "--predict-train",
                          "100"}),
              2);
    expect_one_line_error("require --predict");
    EXPECT_EQ(run_tokens({cmd, "--system", "liberty", "--predict-horizon",
                          "600"}),
              2);
    expect_one_line_error("require --predict");
  }
}

TEST_F(CliNegativeTest, PredictTrainRejectsNonNumericAndZero) {
  EXPECT_EQ(run_tokens({"stream", "--system", "liberty", "--predict",
                        "--predict-train", "many"}),
            2);
  expect_one_line_error("--predict-train wants a training alert count >= 1");
  EXPECT_EQ(run_tokens({"stream", "--system", "liberty", "--predict",
                        "--predict-train", "0"}),
            2);
  expect_one_line_error("--predict-train wants a training alert count >= 1");
}

TEST_F(CliNegativeTest, PredictHorizonRejectsNonPositive) {
  EXPECT_EQ(run_tokens({"stream", "--system", "liberty", "--predict",
                        "--predict-horizon", "0"}),
            2);
  expect_one_line_error("--predict-horizon wants a window in seconds > 0");
  EXPECT_EQ(run_tokens({"stream", "--system", "liberty", "--predict",
                        "--predict-horizon", "-5"}),
            2);
  expect_one_line_error("--predict-horizon wants a window in seconds > 0");
  EXPECT_EQ(run_tokens({"serve", "--predict", "--predict-horizon", "soon"}),
            2);
  expect_one_line_error("--predict-horizon wants a window in seconds > 0");
}

TEST_F(CliNegativeTest, PredictRestoreFromNonPredictCheckpointStillWorks) {
  // Compatibility direction that must NOT error: a checkpoint written
  // WITHOUT --predict restores into a --predict invocation (the
  // checkpoint's own options win; v3 carries them explicitly).
  const std::string ckpt = (dir_ / "plain.ckpt").string();
  ASSERT_EQ(run_tokens({"stream", "--system", "liberty", "--cap", "200",
                        "--chatter", "1000", "--checkpoint", ckpt}),
            0)
      << err_.str();
  EXPECT_EQ(run_tokens({"stream", "--system", "liberty", "--cap", "200",
                        "--chatter", "1000", "--predict", "--restore", ckpt}),
            0)
      << err_.str();
}

// ---- serve integer flags ----

TEST_F(CliNegativeTest, ServeLoopShardsRejectsTrailingJunk) {
  EXPECT_EQ(run_tokens({"serve", "--tcp", "0", "--loop-shards", "4x"}), 2);
  expect_one_line_error("--loop-shards wants 1..64 or auto, got '4x'");
}

TEST_F(CliNegativeTest, ServeTenantRejectsMalformedYear) {
  EXPECT_EQ(run_tokens({"serve", "--tcp", "0", "--tenant", "a:bgl:20x5"}), 2);
  expect_one_line_error("bad year in --tenant 'a:bgl:20x5'");
}

// ---- Distributed study commands (study --split-by, worker, merge) ----

TEST_F(CliNegativeTest, StudySplitRejectsZeroSplits) {
  EXPECT_EQ(run_tokens({"study", "--split-by", "time", "--num-splits", "0",
                        "--manifest-dir", (dir_ / "m").string()}),
            2);
  expect_one_line_error("--num-splits must be >= 1");
}

TEST_F(CliNegativeTest, StudySplitRejectsUnknownAxis) {
  EXPECT_EQ(run_tokens({"study", "--split-by", "hostname", "--manifest-dir",
                        (dir_ / "m").string()}),
            2);
  expect_one_line_error("--split-by must be system, category, or time");
}

TEST_F(CliNegativeTest, StudySplitRequiresManifestDir) {
  EXPECT_EQ(run_tokens({"study", "--split-by", "time", "--num-splits", "2"}),
            2);
  expect_one_line_error("--split-by requires --manifest-dir");
}

TEST_F(CliNegativeTest, StudySplitFlagsWithoutSplitByRejected) {
  EXPECT_EQ(run_tokens({"study", "--num-splits", "2"}), 2);
  expect_one_line_error("require --split-by");
  EXPECT_EQ(run_tokens({"study", "--manifest-dir", (dir_ / "m").string()}),
            2);
  expect_one_line_error("require --split-by");
}

TEST_F(CliNegativeTest, WorkerRequiresAssignmentIdAndManifestDir) {
  EXPECT_EQ(run_tokens({"worker", "--manifest-dir", (dir_ / "m").string()}),
            2);
  expect_one_line_error("worker requires an assignment id");
  EXPECT_EQ(run_tokens({"worker", "0"}), 2);
  expect_one_line_error("worker requires --manifest-dir");
}

TEST_F(CliNegativeTest, WorkerRejectsNonNumericId) {
  EXPECT_EQ(run_tokens({"worker", "zero", "--manifest-dir",
                        (dir_ / "m").string()}),
            2);
  expect_one_line_error("not an assignment id");
}

TEST_F(CliNegativeTest, WorkerIdOutOfRangeIsUsageError) {
  // A real (tiny) manifest with 2 assignments; id 5 must be a loud
  // usage error, not an I/O failure.
  const std::string mdir = (dir_ / "m").string();
  ASSERT_EQ(run_tokens({"study", "--split-by", "time", "--num-splits", "2",
                        "--manifest-dir", mdir, "--system", "bgl", "--cap",
                        "200", "--chatter", "500"}),
            0)
      << err_.str();
  EXPECT_EQ(run_tokens({"worker", "5", "--manifest-dir", mdir}), 2);
  expect_one_line_error("id 5 out of range [0, 2)");
}

TEST_F(CliNegativeTest, WorkerMissingManifestDirectoryIsIoError) {
  EXPECT_EQ(run_tokens({"worker", "0", "--manifest-dir",
                        (dir_ / "nope").string()}),
            1);
  expect_one_line_error("cannot open");
}

TEST_F(CliNegativeTest, MergeRequiresManifestDir) {
  EXPECT_EQ(run_tokens({"merge"}), 2);
  expect_one_line_error("merge requires --manifest-dir");
}

TEST_F(CliNegativeTest, MergeMissingManifestDirectoryIsIoError) {
  EXPECT_EQ(run_tokens({"merge", "--manifest-dir", (dir_ / "nope").string()}),
            1);
  expect_one_line_error("cannot open");
}

TEST_F(CliNegativeTest, DistCommandsRejectUnknownFlags) {
  const std::string mdir = (dir_ / "m").string();
  EXPECT_EQ(run_tokens({"worker", "0", "--manifest-dir", mdir, "--bogus",
                        "1"}),
            2);
  expect_one_line_error("unknown flag --bogus");
  EXPECT_EQ(run_tokens({"merge", "--manifest-dir", mdir, "--bogus", "1"}), 2);
  expect_one_line_error("unknown flag --bogus");
  EXPECT_EQ(run_tokens({"study", "--split-by", "time", "--manifest-dir",
                        mdir, "--bogus", "1"}),
            2);
  expect_one_line_error("unknown flag --bogus");
}

}  // namespace
}  // namespace wss::cli
