// CLI surface of the streaming engine: `wss stream` and the replay
// mode of `wss generate`.
#include <gtest/gtest.h>
#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "cli/commands.hpp"
#include "core/experiments.hpp"
#include "core/study.hpp"
#include "hang_guard.hpp"
#include "logio/input.hpp"
#include "simd/split.hpp"
#include "stream/pipeline.hpp"
#include "stream/report.hpp"
#include "util/file.hpp"

namespace wss::cli {
namespace {

namespace fs = std::filesystem;

Args make_args(std::vector<std::string> tokens) {
  std::vector<const char*> argv = {"wss"};
  for (const auto& t : tokens) argv.push_back(t.c_str());
  return Args::parse(static_cast<int>(argv.size()), argv.data());
}

class StreamCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("wss_stream_cli_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  int run_tokens(std::vector<std::string> tokens) {
    out_.str("");
    err_.str("");
    return run(make_args(std::move(tokens)), out_, err_);
  }

  static std::vector<std::string> file_lines(const fs::path& p) {
    std::ifstream is(p);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(is, line)) lines.push_back(line);
    return lines;
  }

  fs::path dir_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(StreamCliTest, RequiresSystemAndValidatesFlags) {
  EXPECT_EQ(run_tokens({"stream"}), 2);
  EXPECT_NE(err_.str().find("--system"), std::string::npos);
  EXPECT_EQ(run_tokens({"stream", "--system", "liberty", "--policy",
                        "drop-oldest"}),
            2);
  EXPECT_NE(err_.str().find("unknown flag --policy"), std::string::npos);
  EXPECT_EQ(run_tokens({"stream", "--system", "liberty", "--queue", "1"}), 2);
  EXPECT_NE(err_.str().find("unknown flag --queue"), std::string::npos);
  EXPECT_EQ(
      run_tokens({"stream", "--system", "liberty", "--threshold", "0"}), 2);
  EXPECT_EQ(run_tokens({"stream", "--system", "liberty", "--sed", "7"}), 2);
  EXPECT_NE(err_.str().find("unknown flag --sed"), std::string::npos);
}

TEST_F(StreamCliTest, SimulatedStreamReportIsDeterministic) {
  const std::vector<std::string> tokens = {
      "stream", "--system", "liberty", "--cap", "500", "--chatter", "3000"};
  ASSERT_EQ(run_tokens(tokens), 0);
  const std::string first = out_.str();
  EXPECT_NE(first.find("Liberty"), std::string::npos);
  EXPECT_NE(first.find("final"), std::string::npos);
  ASSERT_EQ(run_tokens(tokens), 0);
  EXPECT_EQ(out_.str(), first);
}

TEST_F(StreamCliTest, CheckpointResumeReportEqualsUninterrupted) {
  const std::vector<std::string> base = {
      "stream", "--system", "spirit", "--cap", "400", "--chatter", "2000"};
  ASSERT_EQ(run_tokens(base), 0);
  const std::string uninterrupted = out_.str();

  const auto ck = (dir_ / "ck.wssc").string();
  auto first_half = base;
  first_half.insert(first_half.end(),
                    {"--max-events", "1000", "--checkpoint", ck});
  ASSERT_EQ(run_tokens(first_half), 0);
  EXPECT_NE(out_.str().find("paused after"), std::string::npos);
  EXPECT_NE(out_.str().find("resume with --restore"), std::string::npos);
  ASSERT_TRUE(fs::exists(ck));

  auto resumed = base;
  resumed.insert(resumed.end(), {"--restore", ck});
  ASSERT_EQ(run_tokens(resumed), 0);
  EXPECT_EQ(out_.str(), uninterrupted);
}

TEST_F(StreamCliTest, SigtermDuringPacedGapPausesAndResumes) {
  // At --speed 0.0001 the replay delivers its first event and then
  // sleeps through a simulated gap of hours, so the SIGTERM lands while
  // the run is short of the simulation's end: it must report a pause,
  // not a finished run, and its checkpoint must resume exactly.
  using namespace std::chrono_literals;
  const testing_util::HangGuard guard(
      60s, "the paced replay never saw its SIGTERM");
  const std::vector<std::string> base = {
      "stream", "--system", "liberty", "--cap", "200", "--chatter", "2000"};
  ASSERT_EQ(run_tokens(base), 0);
  const std::string uninterrupted = out_.str();

  struct sigaction before {};
  ASSERT_EQ(::sigaction(SIGTERM, nullptr, &before), 0);
  const pthread_t runner = ::pthread_self();
  std::thread signaller([runner, before] {
    // Signal only once cmd_stream's drain handler is installed, and
    // aim it at the thread running the replay.
    for (;;) {
      struct sigaction now {};
      ::sigaction(SIGTERM, nullptr, &now);
      if (now.sa_handler != before.sa_handler) break;
      std::this_thread::sleep_for(5ms);
    }
    std::this_thread::sleep_for(500ms);
    ::pthread_kill(runner, SIGTERM);
  });
  const auto ck = (dir_ / "ck.wssc").string();
  auto paced = base;
  paced.insert(paced.end(), {"--speed", "0.0001", "--checkpoint", ck});
  const int rc = run_tokens(paced);
  signaller.join();
  ASSERT_EQ(rc, 0) << err_.str();
  EXPECT_NE(out_.str().find("paused after"), std::string::npos)
      << out_.str();
  EXPECT_EQ(out_.str().find("(final)"), std::string::npos) << out_.str();
  ASSERT_TRUE(fs::exists(ck));

  auto resumed = base;
  resumed.insert(resumed.end(), {"--restore", ck});
  ASSERT_EQ(run_tokens(resumed), 0) << err_.str();
  EXPECT_EQ(out_.str(), uninterrupted);
}

TEST_F(StreamCliTest, EmitMatchesBatchFilteredAlerts) {
  const auto emit = (dir_ / "alerts.txt").string();
  ASSERT_EQ(run_tokens({"stream", "--system", "liberty", "--cap", "400",
                        "--chatter", "2000", "--emit", emit}),
            0);
  const auto lines = file_lines(emit);

  core::StudyOptions sopts;
  sopts.sim.category_cap = 400;
  sopts.sim.chatter_events = 2000;
  core::Study study(sopts);
  const auto batch =
      core::filtered_alerts(study, parse::SystemId::kLiberty);
  ASSERT_EQ(lines.size(), batch.size());
  // Spot-check line shape: "<iso time> <category> <H|S|I> <source>".
  ASSERT_FALSE(lines.empty());
  std::istringstream first(lines.front());
  std::string date, clock, cat, type, source;
  first >> date >> clock >> cat >> type >> source;
  EXPECT_EQ(date.size(), 10u);
  EXPECT_TRUE(type == "H" || type == "S" || type == "I");
  EXPECT_FALSE(source.empty());
}

TEST_F(StreamCliTest, FileModeStreamsGeneratedLog) {
  const auto log = (dir_ / "log.txt").string();
  ASSERT_EQ(run_tokens({"generate", "--system", "liberty", "--out", log,
                        "--cap", "400", "--chatter", "2000"}),
            0);
  const std::vector<std::string> tokens = {"stream", "--system", "liberty",
                                           "--in", log};
  ASSERT_EQ(run_tokens(tokens), 0);
  const std::string first = out_.str();
  EXPECT_NE(first.find("Liberty"), std::string::npos);
  EXPECT_NE(first.find("events"), std::string::npos);
  // Deterministic in file mode too.
  ASSERT_EQ(run_tokens(tokens), 0);
  EXPECT_EQ(out_.str(), first);
}

TEST_F(StreamCliTest, FileModeRejectsRingFlagsAndMeetsAnExactLimit) {
  const auto log = (dir_ / "log.txt").string();
  ASSERT_EQ(run_tokens({"generate", "--system", "liberty", "--out", log,
                        "--cap", "400", "--chatter", "1000"}),
            0);
  const std::vector<std::string> base = {"stream", "--system", "liberty",
                                         "--in", log};
  ASSERT_EQ(run_tokens(base), 0);
  const std::string full = out_.str();

  // A limit the input exactly meets stops nothing: no pause line, and
  // finish() still runs.
  auto limited = base;
  limited.insert(limited.end(),
                 {"--max-events", std::to_string(file_lines(log).size())});
  ASSERT_EQ(run_tokens(limited), 0);
  EXPECT_EQ(out_.str(), full);

  // No source has a ring, so the ring flags are refused, not ignored.
  auto lossy = base;
  lossy.insert(lossy.end(), {"--policy", "drop-oldest", "--queue", "1"});
  EXPECT_EQ(run_tokens(lossy), 2);
  EXPECT_NE(err_.str().find("unknown flag --"), std::string::npos);
}

TEST_F(StreamCliTest, FileModeCheckpointResumeEqualsUninterrupted) {
  const auto log = (dir_ / "log.txt").string();
  ASSERT_EQ(run_tokens({"generate", "--system", "spirit", "--out", log,
                        "--cap", "400", "--chatter", "2000"}),
            0);
  const std::vector<std::string> base = {"stream", "--system", "spirit",
                                         "--in", log};
  ASSERT_EQ(run_tokens(base), 0);
  const std::string uninterrupted = out_.str();

  const auto ck = (dir_ / "ck.wssc").string();
  auto first_half = base;
  first_half.insert(first_half.end(),
                    {"--max-events", "1000", "--checkpoint", ck});
  ASSERT_EQ(run_tokens(first_half), 0);
  EXPECT_NE(out_.str().find("paused after 1,000 events"), std::string::npos);
  ASSERT_TRUE(fs::exists(ck));

  auto resumed = base;
  resumed.insert(resumed.end(), {"--restore", ck});
  ASSERT_EQ(run_tokens(resumed), 0);
  EXPECT_EQ(out_.str(), uninterrupted);
}

TEST_F(StreamCliTest, FileModeCountsSpiritsOneYearRolloverAcrossRestore) {
  // Spirit's log starts 2005-01-01 and spans 558 days: one New Year.
  const auto log = (dir_ / "log.txt").string();
  ASSERT_EQ(run_tokens({"generate", "--system", "spirit", "--out", log,
                        "--cap", "300", "--chatter", "2000"}),
            0);
  const std::vector<std::string> base = {"stream", "--system", "spirit",
                                         "--in", log};
  ASSERT_EQ(run_tokens(base), 0);
  const std::string uninterrupted = out_.str();
  EXPECT_NE(uninterrupted.find(" invalid timestamps, 1 year rollover(s)\n"),
            std::string::npos)
      << uninterrupted;

  // Pause just before and just after the first January line after a
  // December: the checkpoint must carry the tracker's month and its
  // rollover count.
  const auto lines = file_lines(log);
  std::size_t january = 0;
  while (january < lines.size() && lines[january].rfind("Dec", 0) != 0) {
    ++january;
  }
  while (january < lines.size() && lines[january].rfind("Jan", 0) != 0) {
    ++january;
  }
  ASSERT_GT(january, 1u);
  ASSERT_LT(january + 1, lines.size());
  for (const std::size_t split : {january - 1, january + 1}) {
    SCOPED_TRACE(split);
    const auto ck = (dir_ / "ck.wssc").string();
    auto first = base;
    first.insert(first.end(), {"--max-events", std::to_string(split),
                               "--checkpoint", ck});
    ASSERT_EQ(run_tokens(first), 0);
    EXPECT_NE(out_.str().find(split < january ? ", 0 year rollover(s)"
                                              : ", 1 year rollover(s)"),
              std::string::npos)
        << out_.str();
    auto resumed = base;
    resumed.insert(resumed.end(), {"--restore", ck});
    ASSERT_EQ(run_tokens(resumed), 0);
    EXPECT_EQ(out_.str(), uninterrupted);
  }
}

TEST_F(StreamCliTest, FileModeMatchesPipelineOnEdgeCaseLines) {
  const auto log = (dir_ / "log.txt").string();
  ASSERT_EQ(run_tokens({"generate", "--system", "liberty", "--out", log,
                        "--cap", "400", "--chatter", "1000"}),
            0);
  const auto lines = file_lines(log);
  ASSERT_GE(lines.size(), 2u);
  {
    // An empty line, a CRLF line, and a final line with no newline.
    std::ofstream os(log, std::ios::binary | std::ios::app);
    os << '\n' << lines.front() << "\r\n" << lines.back();
  }
  ASSERT_EQ(run_tokens({"stream", "--system", "liberty", "--in", log,
                        "--predict"}),
            0);

  stream::StreamPipelineOptions popts;
  popts.strict_order = false;
  popts.predict.enabled = true;
  stream::StreamPipeline ref(parse::SystemId::kLiberty, popts);
  const logio::InputBuffer input = logio::InputBuffer::open(log);
  simd::for_each_line(input.view(),
                      [&ref](std::string_view line) { ref.ingest_line(line); });
  ref.finish();
  EXPECT_EQ(ref.events(), lines.size() + 3);
  EXPECT_EQ(out_.str(), stream::render_snapshot(ref.snapshot()));
}

// A file over several read chunks, with a long line across the first
// two chunk edges: the chunked reader must hand the engine exactly the
// lines InputBuffer + for_each_line do.
TEST_F(StreamCliTest, FileModeMatchesPipelineAcrossReadChunks) {
  const auto part = (dir_ / "part.txt").string();
  ASSERT_EQ(run_tokens({"generate", "--system", "liberty", "--out", part,
                        "--cap", "300", "--chatter", "20000"}),
            0);
  const std::string lines = util::read_file(part);
  const std::size_t chunk = logio::ChunkReader::kReadChunk;
  std::string text;
  // Whole lines up to ~100 kB before the edge, then one line longer
  // than two chunks.
  while (text.size() + lines.size() < chunk - 100000) text += lines;
  const std::size_t cut = chunk - 100000 - text.size();
  text.append(lines, 0, lines.rfind('\n', cut) + 1);
  const std::size_t long_line = text.size();
  text += lines.substr(0, lines.find('\n')) + " " +
          std::string(2 * chunk, 'x') + "\n";
  ASSERT_LT(long_line, chunk);
  ASSERT_GT(text.size(), 2 * chunk);
  while (text.size() < 4 * chunk) text += lines;
  text += "\n" + lines.substr(0, lines.find('\n')) + "\r\nunterminated";
  const auto log = (dir_ / "log.txt").string();
  util::publish_file(log, text);

  ASSERT_EQ(run_tokens({"stream", "--system", "liberty", "--in", log,
                        "--predict"}),
            0);
  stream::StreamPipelineOptions popts;
  popts.strict_order = false;
  popts.predict.enabled = true;
  stream::StreamPipeline ref(parse::SystemId::kLiberty, popts);
  const logio::InputBuffer input = logio::InputBuffer::open(log);
  simd::for_each_line(input.view(),
                      [&ref](std::string_view line) { ref.ingest_line(line); });
  ref.finish();
  EXPECT_EQ(ref.events(),
            static_cast<std::uint64_t>(std::count(text.begin(), text.end(),
                                                  '\n')) + 1);
  EXPECT_EQ(out_.str(), stream::render_snapshot(ref.snapshot()));
}

TEST_F(StreamCliTest, GenerateReplayUnpacedMatchesBulkWrite) {
  const auto bulk = (dir_ / "bulk.txt").string();
  const auto replayed = (dir_ / "replay.txt").string();
  ASSERT_EQ(run_tokens({"generate", "--system", "spirit", "--out", bulk,
                        "--cap", "300", "--chatter", "1500"}),
            0);
  ASSERT_EQ(run_tokens({"generate", "--system", "spirit", "--out", replayed,
                        "--cap", "300", "--chatter", "1500", "--speed",
                        "0"}),
            0);
  EXPECT_NE(out_.str().find("replayed"), std::string::npos);
  EXPECT_EQ(file_lines(replayed), file_lines(bulk));
}

TEST_F(StreamCliTest, GenerateReplayToStdout) {
  ASSERT_EQ(run_tokens({"generate", "--system", "liberty", "--out", "-",
                        "--cap", "200", "--chatter", "500", "--speed",
                        "0"}),
            0);
  const auto lines_begin = out_.str().find('\n');
  ASSERT_NE(lines_begin, std::string::npos);
  EXPECT_GT(out_.str().size(), 1000u);  // actual log lines, not a summary
  EXPECT_EQ(out_.str().find("replayed"), std::string::npos);
}

TEST_F(StreamCliTest, GenerateRejectsNegativeSpeed) {
  EXPECT_EQ(run_tokens({"generate", "--system", "liberty", "--out", "-",
                        "--speed", "-1"}),
            2);
  EXPECT_NE(err_.str().find("--speed"), std::string::npos);
}

}  // namespace
}  // namespace wss::cli
