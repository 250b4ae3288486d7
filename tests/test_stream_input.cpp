// `wss stream --in` reads its input one read() at a time. These tests
// run cmd_stream in a forked child, which can own its stdin and whose
// status lines can be read while the writer still holds the input open:
//  - a live FIFO is ingested as it is written, and its report equals
//    the file route's once the writer closes;
//  - a drain signal stops a child blocked on an idle FIFO, and one
//    sent while the child ingests what it was just written;
//  - input several times a fixed bound, on stdin or in a file, raises
//    the child's peak RSS (VmHWM) by less than that bound.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/commands.hpp"
#include "util/file.hpp"

namespace wss::cli {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// The bound on peak RSS growth, and the input size: several times it.
constexpr long kBoundKb = 24 * 1024;
constexpr std::size_t kInputBytes = std::size_t{4} * kBoundKb * 1024;

Args make_args(const std::vector<std::string>& tokens) {
  std::vector<const char*> argv = {"wss"};
  for (const auto& t : tokens) argv.push_back(t.c_str());
  return Args::parse(static_cast<int>(argv.size()), argv.data());
}

/// A /proc/self/status field in kB (VmRSS, VmHWM), or -1.
long status_kb(const char* key) {
  std::ifstream is("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(is, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stol(line.substr(prefix.size()));
    }
  }
  return -1;
}

bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// The largest event count among the `--refresh` status lines in
/// `text` ("[time] 1,234 events, ..."), or 0.
std::uint64_t max_status_events(const std::string& text) {
  std::uint64_t best = 0;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const auto open = line.find("] ");
    const auto end = line.find(" events");
    if (line.empty() || line[0] != '[' || open == std::string::npos ||
        end == std::string::npos || end < open) {
      continue;
    }
    std::uint64_t n = 0;
    for (std::size_t i = open + 2; i < end; ++i) {
      if (line[i] >= '0' && line[i] <= '9') n = n * 10 + (line[i] - '0');
    }
    best = std::max(best, n);
  }
  return best;
}

class StreamInputTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("wss_stream_input_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Runs a command in this process; returns its stdout.
  std::string run_here(const std::vector<std::string>& tokens) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(run(make_args(tokens), out, err), 0) << err.str();
    return out.str();
  }

  std::string generate(const std::string& name, const std::string& chatter) {
    const std::string path = (dir_ / name).string();
    run_here({"generate", "--system", "liberty", "--out", path, "--cap",
              "300", "--chatter", chatter});
    return path;
  }

  /// Forks a child that runs `tokens` with stdout to out.txt and
  /// stderr (unbuffered, so each status line lands as it is written)
  /// to err.txt. With `stdin_fd` >= 0 the child reads that descriptor
  /// as stdin; `close_fd` is closed in the child (a pipe's write end).
  /// The child writes its VmRSS at start and VmHWM at exit, in kB, to
  /// rss.txt.
  pid_t spawn(const std::vector<std::string>& tokens, int stdin_fd = -1,
              int close_fd = -1) {
    const Args args = make_args(tokens);
    const std::string out_path = (dir_ / "out.txt").string();
    const std::string err_path = (dir_ / "err.txt").string();
    const std::string rss_path = (dir_ / "rss.txt").string();
    const pid_t pid = ::fork();
    if (pid != 0) return pid;
    const long rss_start = status_kb("VmRSS");
    if (close_fd >= 0) ::close(close_fd);
    if (stdin_fd >= 0) ::dup2(stdin_fd, 0);
    const int err_fd =
        ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
    ::dup2(err_fd, 2);
    std::ofstream out(out_path, std::ios::binary);
    const int rc = run(args, out, std::cerr);
    out.close();
    std::ofstream(rss_path) << rss_start << ' ' << status_kb("VmHWM") << '\n';
    ::_exit(rc);
  }

  /// Waits up to `limit` for `pid`; kills it when it overruns. Returns
  /// its exit code, or -1 when it did not exit cleanly in time.
  static int reap(pid_t pid, std::chrono::seconds limit) {
    const auto deadline = Clock::now() + limit;
    int status = 0;
    while (::waitpid(pid, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// Polls the child's stderr until a status line counts at least
  /// `want` events; false after `limit`.
  bool await_status(std::uint64_t want, std::chrono::seconds limit) {
    const auto deadline = Clock::now() + limit;
    while (Clock::now() < deadline) {
      std::ifstream is(dir_ / "err.txt", std::ios::binary);
      std::ostringstream text;
      text << is.rdbuf();
      if (max_status_events(text.str()) >= want) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  /// Checks the child's rss.txt: peak RSS rose by less than kBoundKb
  /// over `input_bytes` of input, and the run printed its report.
  void expect_rise_under_bound(std::size_t input_bytes);

  std::string child_out() const {
    return util::read_file((dir_ / "out.txt").string());
  }

  fs::path dir_;
};

void StreamInputTest::expect_rise_under_bound(std::size_t input_bytes) {
  long rss_start = -1;
  long hwm_end = -1;
  std::ifstream(dir_ / "rss.txt") >> rss_start >> hwm_end;
  ASSERT_GT(rss_start, 0);
  ASSERT_GT(hwm_end, 0);
  EXPECT_LT(hwm_end - rss_start, kBoundKb)
      << "peak RSS rose by " << (hwm_end - rss_start) << " kB on "
      << input_bytes / 1024 << " kB of input";
  EXPECT_NE(child_out().find(" (final): "), std::string::npos);
}

/// The status line interval: a snapshot per line would make the child
/// spend its time on status lines.
constexpr std::uint64_t kRefresh = 250;

/// The first half of `text`, cut mid-line so the reader also carries
/// a partial line while it waits; and the number of whole lines in it.
std::string_view first_half(std::string_view text, std::uint64_t& lines) {
  std::string_view half = text.substr(0, text.size() / 2);
  if (half.back() == '\n') half.remove_suffix(1);
  lines = static_cast<std::uint64_t>(
      std::count(half.begin(), half.end(), '\n'));
  return half;
}

// A FIFO's lines are ingested while its writer is still open: a
// status line counts the whole lines written so far (to the last
// multiple of the refresh interval) before the rest arrives. Once the
// writer closes, the report equals the file route's.
TEST_F(StreamInputTest, LiveFifoReportsBeforeTheWriterCloses) {
  const std::string log = generate("live.log", "3000");
  const std::string text = util::read_file(log);
  const std::string expected =
      run_here({"stream", "--system", "liberty", "--in", log});

  const std::string fifo = (dir_ / "live.fifo").string();
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const pid_t pid = spawn({"stream", "--system", "liberty", "--in", fifo,
                           "--refresh", std::to_string(kRefresh)});
  ASSERT_GT(pid, 0);
  const int fd = ::open(fifo.c_str(), O_WRONLY | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  std::uint64_t lines = 0;
  const std::string_view half = first_half(text, lines);
  const std::uint64_t want = lines / kRefresh * kRefresh;
  ASSERT_GT(want, 0u);
  ASSERT_TRUE(write_all(fd, half));
  const bool live = await_status(want, std::chrono::seconds(60));
  EXPECT_TRUE(live) << "no status line counted " << want
                    << " events while the writer was open";
  ASSERT_TRUE(write_all(fd, std::string_view(text).substr(half.size())));
  ::close(fd);
  ASSERT_EQ(reap(pid, std::chrono::seconds(60)), 0);
  EXPECT_EQ(child_out(), expected);
}

// SIGINT reaches a child blocked on an idle FIFO: the read is
// interrupted, the run pauses, and its checkpoint resumes on the file
// to the uninterrupted report.
TEST_F(StreamInputTest, DrainSignalStopsAnIdleFifo) {
  const std::string log = generate("idle.log", "3000");
  const std::string text = util::read_file(log);
  const std::string expected =
      run_here({"stream", "--system", "liberty", "--in", log});

  const std::string fifo = (dir_ / "idle.fifo").string();
  const std::string ck = (dir_ / "idle.ck").string();
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const pid_t pid =
      spawn({"stream", "--system", "liberty", "--in", fifo, "--refresh",
             std::to_string(kRefresh), "--checkpoint", ck});
  ASSERT_GT(pid, 0);
  const int fd = ::open(fifo.c_str(), O_WRONLY | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  std::uint64_t lines = 0;
  ASSERT_TRUE(write_all(fd, first_half(text, lines)));
  ASSERT_TRUE(await_status(lines / kRefresh * kRefresh,
                           std::chrono::seconds(60)));
  // Give the child time to ingest the rest and block in read().
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ::kill(pid, SIGINT);
  const int rc = reap(pid, std::chrono::seconds(30));
  ::close(fd);
  ASSERT_EQ(rc, 0);
  EXPECT_NE(child_out().find("paused after"), std::string::npos)
      << child_out();
  EXPECT_EQ(run_here({"stream", "--system", "liberty", "--in", log,
                      "--restore", ck}),
            expected);
}

// SIGINT sent while the child ingests the last line it was written,
// not only once it is idle: the line is a few MB long, so the child
// spends tens of ms on it after the writer's last write() returns. The
// child must still stop with the writer open and idle, and its
// checkpoint must resume on the file to the uninterrupted report. The
// delay before the signal doubles each round, so on a fast or a slow
// (sanitizer) build some round lands before, some during and some
// after that line's ingest; a loop that tests the drain flag only
// before each line hangs in read() on the rounds that land during it.
TEST_F(StreamInputTest, DrainSignalDuringIngestStopsTheRun) {
  const std::string part = util::read_file(generate("part.log", "3000"));
  std::size_t cut = 0;
  for (int i = 0; i < 8; ++i) cut = part.find('\n', cut) + 1;
  const std::string head = part.substr(0, cut) +
                           part.substr(0, part.find('\n')) + " " +
                           std::string(std::size_t{4} << 20, 'x') + "\n";
  const fs::path log = dir_ / "busy.log";
  util::publish_file(log.string(), head + part);
  const std::string expected =
      run_here({"stream", "--system", "liberty", "--in", log.string()});

  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE(round);
    const std::string fifo =
        (dir_ / ("busy" + std::to_string(round) + ".fifo")).string();
    const std::string ck =
        (dir_ / ("busy" + std::to_string(round) + ".ck")).string();
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    const pid_t pid = spawn({"stream", "--system", "liberty", "--in", fifo,
                             "--refresh", "1", "--checkpoint", ck});
    ASSERT_GT(pid, 0);
    const int fd = ::open(fifo.c_str(), O_WRONLY | O_CLOEXEC);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(write_all(fd, head));
    if (round > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5 << round));
    }
    ::kill(pid, SIGINT);
    const int rc = reap(pid, std::chrono::seconds(30));
    ::close(fd);
    ASSERT_EQ(rc, 0) << "the child did not stop on SIGINT";
    EXPECT_NE(child_out().find("paused after"), std::string::npos)
        << child_out();
    EXPECT_EQ(run_here({"stream", "--system", "liberty", "--in",
                        log.string(), "--restore", ck}),
              expected);
  }
}

// Stdin input of several times the bound raises peak RSS by less than
// the bound: the reader holds one read() buffer, not the input.
TEST_F(StreamInputTest, StdinPeakRssStaysUnderABound) {
  const std::string text = util::read_file(generate("bound.log", "20000"));
  ASSERT_FALSE(text.empty());

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t pid = spawn({"stream", "--system", "liberty", "--in", "-"},
                          fds[0], fds[1]);
  ASSERT_GT(pid, 0);
  ::close(fds[0]);
  std::size_t written = 0;
  while (written < kInputBytes && write_all(fds[1], text)) {
    written += text.size();
  }
  ::close(fds[1]);
  ASSERT_EQ(reap(pid, std::chrono::seconds(300)), 0);
  ASSERT_GE(written, kInputBytes);
  expect_rise_under_bound(written);
}

// The same bound on a regular file, which is read, not mapped: no page
// of it stays resident in the child.
TEST_F(StreamInputTest, FilePeakRssStaysUnderABound) {
  const std::string text = util::read_file(generate("part.log", "20000"));
  ASSERT_FALSE(text.empty());
  const fs::path log = dir_ / "bound.log";
  std::size_t written = 0;
  {
    std::ofstream os(log, std::ios::binary);
    while (written < kInputBytes && os.write(text.data(), text.size())) {
      written += text.size();
    }
  }
  ASSERT_GE(fs::file_size(log), kInputBytes);
  const pid_t pid =
      spawn({"stream", "--system", "liberty", "--in", log.string()});
  ASSERT_GT(pid, 0);
  ASSERT_EQ(reap(pid, std::chrono::seconds(300)), 0);
  expect_rise_under_bound(written);
}

}  // namespace
}  // namespace wss::cli
