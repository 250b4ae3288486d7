// `--metrics FILE` end-to-end: every command can snapshot the
// observability registry on exit, as JSON (schema wss.obs.v1) or
// Prometheus text (.prom), and the snapshot carries the pipeline /
// stream / filter / tag counters the run actually produced.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cli/commands.hpp"
#include "obs/metrics.hpp"

namespace wss::cli {
namespace {

namespace fs = std::filesystem;

Args make_args(std::vector<std::string> tokens) {
  std::vector<const char*> argv = {"wss"};
  for (const auto& t : tokens) argv.push_back(t.c_str());
  return Args::parse(static_cast<int>(argv.size()), argv.data());
}

class ObsCliMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("wss_obs_cli_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  int run_tokens(std::vector<std::string> tokens) {
    out_.str("");
    err_.str("");
    return run(make_args(std::move(tokens)), out_, err_);
  }

  static std::string slurp(const fs::path& p) {
    std::ifstream is(p, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
  }

  /// First "name value" sample for `name` in Prometheus text; -1 when
  /// the metric is absent.
  static long long prom_value(const std::string& text,
                              const std::string& name) {
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
      if (line.rfind(name + " ", 0) == 0) {
        return std::stoll(line.substr(name.size() + 1));
      }
    }
    return -1;
  }

  fs::path dir_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(ObsCliMetricsTest, StudyWritesJsonSnapshot) {
  const auto path = (dir_ / "study.json").string();
  ASSERT_EQ(run_tokens({"study", "--system", "liberty", "--threads", "2",
                        "--cap", "300", "--chatter", "2000", "--metrics",
                        path}),
            0);
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"schema\": \"wss.obs.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"wss_pipeline_events_total\""), std::string::npos);
  EXPECT_NE(json.find("\"wss_filter_offered_total\""), std::string::npos);
  EXPECT_NE(json.find("\"wss_tag_lines_total\""), std::string::npos);
  // The cmd_study span closed before the snapshot, so it appears with
  // a real count (an open span would read 0).
  EXPECT_NE(json.find("\"path\": \"cmd_study\", \"count\": 1"),
            std::string::npos);
}

TEST_F(ObsCliMetricsTest, StreamWritesPrometheusSnapshot) {
  obs::registry().reset();  // isolate from earlier in-process commands
  const auto path = (dir_ / "stream.prom").string();
  ASSERT_EQ(run_tokens({"stream", "--system", "liberty", "--cap", "300",
                        "--chatter", "2000", "--metrics", path}),
            0);
  const std::string prom = slurp(path);
  EXPECT_NE(prom.find("# TYPE wss_stream_events_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE wss_stream_ingest_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("wss_stream_ingest_latency_seconds_bucket"),
            std::string::npos);
  // One event stream, counted once by each layer: the stream engine
  // and the shared pipeline reducer must agree exactly.
  const long long stream_events = prom_value(prom, "wss_stream_events_total");
  const long long pipeline_events =
      prom_value(prom, "wss_pipeline_events_total");
  EXPECT_GT(stream_events, 0);
  EXPECT_EQ(stream_events, pipeline_events);
  EXPECT_EQ(prom_value(prom, "wss_filter_offered_total"),
            prom_value(prom, "wss_filter_admitted_total") +
                prom_value(prom, "wss_filter_suppressed_total"));
}

TEST_F(ObsCliMetricsTest, StreamWritesMetricsAfterFileRun) {
  const auto log = (dir_ / "log.txt").string();
  const auto path = (dir_ / "stream.json").string();
  ASSERT_EQ(run_tokens({"generate", "--system", "liberty", "--out", log,
                        "--cap", "300", "--chatter", "2000"}),
            0);
  obs::registry().reset();
  ASSERT_EQ(run_tokens({"stream", "--system", "liberty", "--in", log,
                        "--metrics", path}),
            0);
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"wss_tag_lines_total\""), std::string::npos);
  EXPECT_NE(json.find("\"wss_filter_offered_total\""), std::string::npos);
  EXPECT_NE(json.find("\"path\": \"stream_pass\", \"count\": 1"),
            std::string::npos);
}

TEST_F(ObsCliMetricsTest, TablesWritesMetrics) {
  const auto path = (dir_ / "tables.prom").string();
  ASSERT_EQ(run_tokens({"tables", "--which", "1", "--metrics", path}), 0);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_NE(slurp(path).find("wss_span_hits_total{path=\"cmd_tables\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace wss::cli
