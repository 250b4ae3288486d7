// The block route of `wss stream --in` (stream::FileIngest) against the
// per-line route: one StreamPipeline fed every line with ingest_line.
// The pool size is forced to 0, 1 and 3 threads through the
// constructor, so a 1-core machine still runs the threaded path.
//
//  - On all five systems the report, the --emit stream (admitted alerts
//    and predictions, in order) and the counter table equal the
//    per-line route's.
//  - A run stopped by the line limit one line before, at and one line
//    after a block boundary, and one stopped mid-block by the drain
//    flag, checkpoints; restoring the checkpoint and finishing the log
//    equals the uninterrupted run, counters included.
//  - A line longer than logio::kMaxLine, placed where a block is cut,
//    is skipped and counted once, whether a pause lands before or
//    after it; `wss stream` publishes the count as
//    wss_stream_oversized_total.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "filter/alert.hpp"
#include "logio/input.hpp"
#include "obs/metrics.hpp"
#include "sim/generator.hpp"
#include "simd/split.hpp"
#include "stream/file_ingest.hpp"
#include "stream/report.hpp"
#include "util/file.hpp"
#include "util/time.hpp"

namespace wss::stream {
namespace {

namespace fs = std::filesystem;
using parse::SystemId;
using CounterTable = std::vector<std::pair<std::string, std::uint64_t>>;

StreamPipelineOptions options() {
  StreamPipelineOptions opts;
  opts.strict_order = false;  // what `wss stream --in` runs
  opts.study.chunk_events = 512;
  opts.predict.enabled = true;
  return opts;
}

/// What a run leaves: its report, its --emit text and its counters.
struct Outcome {
  bool ended = false;
  std::uint64_t events = 0;
  std::uint64_t oversized = 0;
  std::string report;
  std::string emit;
  CounterTable counters;
  std::string checkpoint;
};

/// `wss stream --emit`'s format for alerts and predictions.
void attach_emit(StreamPipeline& p, std::ostringstream& os) {
  p.set_alert_sink([&os](const filter::Alert& a) {
    os << util::format_iso(a.time) << ' ' << a.category << ' '
       << filter::alert_type_letter(a.type) << ' ' << a.source << '\n';
  });
  p.set_prediction_sink([&os](const predict::Prediction& p) {
    os << "P " << util::format_iso(p.issued_at) << ' ' << p.category << ' '
       << util::format_iso(p.window_begin) << ' '
       << util::format_iso(p.window_end) << '\n';
  });
}

/// Ends a run as `wss stream` does: finish when the input ended, save a
/// checkpoint, render, publish.
void conclude(StreamPipeline& p, bool ended, Outcome& o) {
  o.ended = ended;
  if (ended) p.finish();
  std::ostringstream ck;
  p.save(ck);
  o.checkpoint = ck.str();
  o.events = p.events();
  o.report = render_snapshot(p.snapshot());
  p.publish_metrics();
  o.counters = obs::registry().counter_values();
}

/// The per-line route over the whole log.
Outcome per_line(SystemId system, const fs::path& log) {
  obs::registry().reset();
  StreamPipeline p(system, options());
  std::ostringstream emit;
  attach_emit(p, emit);
  const logio::InputBuffer input = logio::InputBuffer::open(log);
  simd::for_each_line(input.view(),
                      [&p](std::string_view line) { p.ingest_line(line); });
  Outcome o;
  conclude(p, true, o);
  o.emit = emit.str();
  return o;
}

/// The block route, from the start or from `restore`'s checkpoint. The
/// registry is zeroed first, as in a new process.
Outcome blocks(SystemId system, const fs::path& log, int workers,
               FileIngestOptions fopts = {}, const Outcome* restore = nullptr) {
  obs::registry().reset();
  StreamPipeline p(system, options());
  if (restore != nullptr) {
    std::istringstream is(restore->checkpoint);
    p.restore(is);
    fopts.skip = p.events();
  }
  std::ostringstream emit;
  attach_emit(p, emit);
  logio::ChunkReader reader = logio::ChunkReader::open(log);
  FileIngest ingest(p, workers);
  const bool ended = ingest.run(reader, fopts);
  Outcome o;
  conclude(p, ended, o);
  o.oversized = ingest.oversized();
  o.emit = emit.str();
  return o;
}

void expect_same(const Outcome& got, const Outcome& want) {
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.report, want.report);
  EXPECT_EQ(got.emit, want.emit);
  ASSERT_EQ(got.counters.size(), want.counters.size());
  for (std::size_t i = 0; i < want.counters.size(); ++i) {
    EXPECT_EQ(got.counters[i], want.counters[i]);
  }
}

class FileIngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("wss_file_ingest_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// A generated log of `system`: ~4,300 lines, ten blocks or more, so
  /// the largest ring (8 blocks) wraps.
  fs::path write_log(SystemId system, std::uint64_t seed = 1) {
    sim::SimOptions opts;
    opts.seed = seed;
    opts.category_cap = 300;
    opts.chatter_events = 4000;
    opts.inject_corruption = true;
    const sim::Simulator simulator(system, opts);
    std::string text;
    simulator.for_each_line([&text](std::string_view line) {
      text.append(line);
      text.push_back('\n');
    });
    const fs::path path =
        dir_ / (std::string(parse::system_short_name(system)) + ".log");
    util::publish_file(path.string(), text);
    return path;
  }

  fs::path dir_;
};

/// The number of lines in each of the first blocks FileIngest cuts from
/// `text`: lines join a block while their bytes fit kBlockBytes and they
/// number at most kBlockLines.
std::vector<std::uint64_t> block_ends(const std::string& text) {
  std::vector<std::uint64_t> ends;
  std::uint64_t lines = 0;
  std::size_t bytes = 0;
  std::size_t count = 0;
  simd::for_each_line(text, [&](std::string_view line) {
    if (count > 0 && (count == FileIngest::kBlockLines ||
                      bytes + line.size() > FileIngest::kBlockBytes)) {
      ends.push_back(lines);
      bytes = 0;
      count = 0;
    }
    bytes += line.size();
    ++count;
    ++lines;
  });
  return ends;
}

class FileIngestEquivalence
    : public FileIngestTest,
      public ::testing::WithParamInterface<std::tuple<SystemId, int>> {};

TEST_P(FileIngestEquivalence, EqualsThePerLineRoute) {
  const auto [system, workers] = GetParam();
  const fs::path log = write_log(system);
  const Outcome want = per_line(system, log);
  ASSERT_GT(block_ends(util::read_file(log.string())).size(), 8u);
  const Outcome got = blocks(system, log, workers);
  EXPECT_TRUE(got.ended);
  EXPECT_FALSE(want.emit.empty());
  expect_same(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    FiveSystemsThreePools, FileIngestEquivalence,
    ::testing::Combine(::testing::ValuesIn(parse::kAllSystems),
                       ::testing::Values(0, 1, 3)),
    [](const auto& info) {
      return std::string(parse::system_short_name(std::get<0>(info.param))) +
             "_workers" + std::to_string(std::get<1>(info.param));
    });

std::atomic<bool> g_drain{false};
bool drain_requested() { return g_drain.load(); }

// Pauses at a block boundary -1, 0 and +1 and mid-block by a drain;
// each checkpoint resumes to the uninterrupted run.
TEST_F(FileIngestTest, PauseAndResumeEqualTheUninterruptedRun) {
  for (const SystemId system : {SystemId::kLiberty, SystemId::kBlueGeneL}) {
    const fs::path log = write_log(system, 7);
    const std::vector<std::uint64_t> ends =
        block_ends(util::read_file(log.string()));
    ASSERT_GT(ends.size(), 4u);
    const std::uint64_t boundary = ends[2];
    for (const int workers : {0, 1, 3}) {
      SCOPED_TRACE(std::string(parse::system_short_name(system)) +
                   " workers " + std::to_string(workers));
      const Outcome whole = blocks(system, log, workers);
      ASSERT_TRUE(whole.ended);

      std::vector<FileIngestOptions> pauses;
      for (const std::uint64_t at : {boundary - 1, boundary, boundary + 1}) {
        FileIngestOptions by_limit;
        by_limit.max_lines = at;
        pauses.push_back(by_limit);
      }
      const std::uint64_t mid = (ends[3] + ends[4]) / 2;
      FileIngestOptions by_drain;
      by_drain.stop = &drain_requested;
      by_drain.after_line = [mid](std::uint64_t reduced) {
        if (reduced == mid) g_drain.store(true);
      };
      pauses.push_back(by_drain);

      for (const FileIngestOptions& pause : pauses) {
        g_drain.store(false);
        const Outcome paused = blocks(system, log, workers, pause);
        g_drain.store(false);
        EXPECT_FALSE(paused.ended);
        EXPECT_EQ(paused.events, pause.max_lines > 0 ? pause.max_lines : mid);
        Outcome resumed = blocks(system, log, workers, {}, &paused);
        EXPECT_TRUE(resumed.ended);
        resumed.emit = paused.emit + resumed.emit;
        expect_same(resumed, whole);
      }
    }
  }
}

// A line past logio::kMaxLine where the third block ends: skipped,
// counted once, and the lines around it reported as if it were absent,
// whether a pause lands just before it or just after it.
TEST_F(FileIngestTest, OversizedLineAtABlockCutIsCountedOnce) {
  const SystemId system = SystemId::kLiberty;
  const fs::path plain = write_log(system);
  const std::string text = util::read_file(plain.string());
  const std::uint64_t before = block_ends(text)[2];
  std::size_t cut = 0;
  for (std::uint64_t i = 0; i < before; ++i) cut = text.find('\n', cut) + 1;
  const fs::path log = dir_ / "long.log";
  {
    std::ofstream os(log, std::ios::binary);
    os << text.substr(0, cut) << std::string(logio::kMaxLine + 1, 'x') << '\n'
       << text.substr(cut);
  }
  const Outcome want = per_line(system, plain);

  for (const int workers : {0, 1, 3}) {
    SCOPED_TRACE(workers);
    const Outcome whole = blocks(system, log, workers);
    EXPECT_EQ(whole.oversized, 1u);
    EXPECT_EQ(whole.report, want.report);
    EXPECT_EQ(whole.emit, want.emit);
    for (const std::uint64_t at : {before, before + 1}) {
      FileIngestOptions pause;
      pause.max_lines = at;
      const Outcome paused = blocks(system, log, workers, pause);
      const Outcome resumed = blocks(system, log, workers, {}, &paused);
      EXPECT_EQ(paused.oversized, at == before ? 0u : 1u);
      EXPECT_EQ(paused.oversized + resumed.oversized, 1u);
      EXPECT_EQ(resumed.report, want.report);
    }
  }

  // The command publishes the count.
  const fs::path prom = dir_ / "long.prom";
  const std::vector<std::string> tokens = {
      "wss",      "stream",       "--system",    "liberty",
      "--in",     log.string(),   "--metrics",   prom.string()};
  std::vector<const char*> argv;
  for (const std::string& t : tokens) argv.push_back(t.c_str());
  std::ostringstream out;
  std::ostringstream err;
  obs::registry().reset();
  ASSERT_EQ(cli::run(cli::Args::parse(static_cast<int>(argv.size()),
                                      argv.data()),
                     out, err),
            0);
  EXPECT_NE(err.str().find("skipped 1 line(s)"), std::string::npos);
  const std::string metrics = util::read_file(prom.string());
  EXPECT_NE(metrics.find("\nwss_stream_oversized_total 1\n"),
            std::string::npos);
}

}  // namespace
}  // namespace wss::stream
