// CLI tests: flag parsing and the generate/stream --in/anonymize/tables
// round-trip through temp files.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "cli/commands.hpp"

namespace wss::cli {
namespace {

namespace fs = std::filesystem;

Args make_args(std::vector<std::string> tokens) {
  std::vector<const char*> argv = {"wss"};
  for (const auto& t : tokens) argv.push_back(t.c_str());
  return Args::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgsParse, CommandAndFlags) {
  // Note: a space-separated value binds to the preceding flag, so
  // positionals go before flags (or use --flag=value).
  const auto args =
      make_args({"generate", "extra.txt", "--system", "liberty", "--seed=7",
                 "--verbose"});
  EXPECT_EQ(args.command(), "generate");
  EXPECT_EQ(args.get_or("system", ""), "liberty");
  EXPECT_EQ(args.get_int("seed", 0), 7);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("quiet"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "extra.txt");
}

TEST(ArgsParse, Defaults) {
  const auto args = make_args({"stream"});
  EXPECT_EQ(args.get_or("system", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("seed", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("threshold", 5.0), 5.0);
  EXPECT_FALSE(args.get("missing").has_value());
}

TEST(ArgsParse, Errors) {
  EXPECT_THROW(make_args({"x", "--"}), std::invalid_argument);
  EXPECT_THROW(make_args({"x", "--a", "1", "--a", "2"}),
               std::invalid_argument);
  const auto args = make_args({"x", "--n", "abc"});
  EXPECT_THROW(args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double("n", 0), std::invalid_argument);
}

TEST(ArgsParse, UnusedFlagsDetected) {
  const auto args = make_args({"x", "--known", "1", "--typo", "2"});
  (void)args.get("known");
  const auto stray = args.unused();
  ASSERT_EQ(stray.size(), 1u);
  EXPECT_EQ(stray[0], "typo");
}

class CliCommandTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("wss_cli_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  int run_tokens(std::vector<std::string> tokens) {
    out_.str("");
    err_.str("");
    return run(make_args(std::move(tokens)), out_, err_);
  }

  fs::path dir_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliCommandTest, HelpAndUnknownCommand) {
  EXPECT_EQ(run_tokens({"help"}), 0);
  EXPECT_NE(out_.str().find("usage: wss"), std::string::npos);
  EXPECT_EQ(run_tokens({"frobnicate"}), 2);
  EXPECT_NE(err_.str().find("usage: wss"), std::string::npos);
}

TEST_F(CliCommandTest, GenerateRequiresFlags) {
  EXPECT_EQ(run_tokens({"generate"}), 2);
  EXPECT_NE(err_.str().find("--system"), std::string::npos);
  EXPECT_EQ(run_tokens({"generate", "--system", "nope", "--out", "x"}), 2);
}

TEST_F(CliCommandTest, GenerateStreamFileRoundTrip) {
  const auto log = (dir_ / "log.txt").string();
  ASSERT_EQ(run_tokens({"generate", "--system", "liberty", "--out", log,
                        "--cap", "500", "--chatter", "3000", "--seed",
                        "11"}),
            0);
  EXPECT_NE(out_.str().find("Liberty"), std::string::npos);
  ASSERT_EQ(run_tokens({"stream", "--system", "liberty", "--in", log}), 0);
  EXPECT_NE(out_.str().find("PBS_CHK"), std::string::npos);
  EXPECT_NE(out_.str().find("after filtering"), std::string::npos);
}

TEST_F(CliCommandTest, GenerateCompressedStreamFile) {
  const auto log = (dir_ / "log.wsc").string();
  ASSERT_EQ(run_tokens({"generate", "--system", "spirit", "--out", log,
                        "--cap", "500", "--chatter", "2000",
                        "--compressed"}),
            0);
  ASSERT_EQ(run_tokens({"stream", "--system", "spirit", "--in", log}), 0);
  EXPECT_NE(out_.str().find("EXT_CCISS"), std::string::npos);
}

TEST_F(CliCommandTest, GenerateRejectsTypoFlag) {
  EXPECT_EQ(run_tokens({"generate", "--system", "liberty", "--out",
                        (dir_ / "x").string(), "--sed", "7"}),
            2);
  EXPECT_NE(err_.str().find("unknown flag --sed"), std::string::npos);
}

TEST_F(CliCommandTest, StreamFileMissingFails) {
  EXPECT_EQ(run_tokens({"stream", "--system", "liberty", "--in",
                        (dir_ / "nope").string()}),
            1);
}

TEST_F(CliCommandTest, StreamFileRejectsBadThreshold) {
  EXPECT_EQ(run_tokens({"stream", "--system", "liberty", "--in", "x",
                        "--threshold", "-1"}),
            2);
}

TEST_F(CliCommandTest, AnalyzeIsNoCommand) {
  EXPECT_EQ(run_tokens({"analyze", "--system", "liberty", "--in", "x"}), 2);
  EXPECT_NE(err_.str().find("usage: wss"), std::string::npos);
  ASSERT_EQ(run_tokens({"help"}), 0);
  EXPECT_EQ(out_.str().find("analyze"), std::string::npos);
}

TEST_F(CliCommandTest, AnonymizeRoundTrip) {
  const auto log = (dir_ / "log.txt").string();
  const auto anon = (dir_ / "anon.txt").string();
  ASSERT_EQ(run_tokens({"generate", "--system", "tbird", "--out", log,
                        "--cap", "300", "--chatter", "2000"}),
            0);
  ASSERT_EQ(run_tokens({"anonymize", "--in", log, "--out", anon}), 0);
  // Anonymized log still analyzes to the same report. Only the volume
  // line may differ: pseudonyms change the bytes and how they compress.
  const auto report_without_volume = [this] {
    std::istringstream is(out_.str());
    std::string kept;
    for (std::string line; std::getline(is, line);) {
      if (line.rfind("  volume:", 0) != 0) kept += line + "\n";
    }
    return kept;
  };
  ASSERT_EQ(run_tokens({"stream", "--system", "tbird", "--in", log}), 0);
  const std::string before = report_without_volume();
  ASSERT_EQ(run_tokens({"stream", "--system", "tbird", "--in", anon}), 0);
  EXPECT_EQ(report_without_volume(), before);
  EXPECT_NE(before.find("after filtering"), std::string::npos);
}

TEST_F(CliCommandTest, MineFindsTemplates) {
  const auto log = (dir_ / "log.txt").string();
  ASSERT_EQ(run_tokens({"generate", "--system", "liberty", "--out", log,
                        "--cap", "400", "--chatter", "3000"}),
            0);
  ASSERT_EQ(run_tokens({"mine", "--in", log, "--support", "20", "--top",
                        "50"}),
            0);
  EXPECT_NE(out_.str().find("templates"), std::string::npos);
  EXPECT_NE(out_.str().find("task_check, cannot tm_reply"),
            std::string::npos);
  EXPECT_EQ(run_tokens({"mine"}), 2);
}

TEST_F(CliCommandTest, TablesSelectsOne) {
  ASSERT_EQ(run_tokens({"tables", "--which", "1"}), 0);
  EXPECT_NE(out_.str().find("Table 1"), std::string::npos);
  EXPECT_EQ(out_.str().find("Table 5"), std::string::npos);
}

TEST_F(CliCommandTest, TablesRejectsNegativeThreads) {
  EXPECT_EQ(run_tokens({"tables", "--which", "1", "--threads", "-1"}), 2);
  EXPECT_NE(err_.str().find("--threads"), std::string::npos);
}

}  // namespace
}  // namespace wss::cli
