// Input fallback-path contract: whatever route the bytes take --
// mmap'd pages, read() into an owned buffer or ChunkReader's chunks, a
// pipe, a .wsc decompression -- InputBuffer's view and ChunkReader's
// concatenated chunks are byte-identical, and everything built on them
// (the read loop of tests/read_records.hpp) behaves identically.
// InputBuffer::open maps every non-empty regular file, so these tests
// reach its read() route through a FIFO, which is never mapped. The
// mmap path snapshots the size at open; the read() path is the one a
// concurrent truncation can race, so that case is tested
// deterministically there.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "compress/codec.hpp"
#include "logio/input.hpp"
#include "read_records.hpp"

namespace wss::logio {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("wss_input_test_" + std::to_string(::getpid()));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  fs::path file(const std::string& name) const { return path_ / name; }

 private:
  fs::path path_;
};

void write_file(const fs::path& p, std::string_view content) {
  std::ofstream os(p, std::ios::binary);
  os.write(content.data(), static_cast<std::streamsize>(content.size()));
}

void write_all(int fd, std::string_view payload) {
  std::size_t off = 0;
  while (off < payload.size()) {
    const ssize_t n = ::write(fd, payload.data() + off, payload.size() - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
}

/// Makes a FIFO at `p` and starts a thread that opens it for writing,
/// writes `payload` and closes it. The caller opens the read end (which
/// unblocks the writer's open) and joins the thread.
std::thread feed_fifo(const fs::path& p, std::string payload) {
  EXPECT_EQ(::mkfifo(p.c_str(), 0600), 0);
  return std::thread([p, payload = std::move(payload)] {
    const int fd = ::open(p.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd < 0) return;
    write_all(fd, payload);
    ::close(fd);
  });
}

std::string sample_log() {
  std::string text;
  for (int i = 0; i < 500; ++i) {
    text += "Jun  3 15:42:" + std::string(i % 60 < 10 ? "0" : "") +
            std::to_string(i % 60) + " sn" + std::to_string(i) +
            " kernel: event " + std::to_string(i) + "\n";
  }
  return text;
}

/// Every chunk a reader yields, concatenated; `chunks` counts them.
std::string drain(ChunkReader& reader, std::size_t* chunks = nullptr) {
  std::string out;
  std::string_view chunk;
  std::size_t n = 0;
  while (reader.next(chunk)) {
    out.append(chunk);
    ++n;
  }
  if (chunks != nullptr) *chunks = n;
  return out;
}

using testing_util::ReadCounts;
using testing_util::read_records;

/// Digest of a full read pass: every record field folded in, so two
/// passes are equal iff the record streams are byte-identical.
std::string read_digest(const fs::path& p, ReadCounts* stats_out = nullptr) {
  std::string digest;
  const ReadCounts stats =
      read_records(p, parse::SystemId::kThunderbird, 2005,
                   [&](const parse::LogRecord& rec) {
                     digest += rec.source;
                     digest += '|';
                     digest += rec.program;
                     digest += '|';
                     digest += rec.body;
                     digest += '|';
                     digest += std::to_string(rec.time);
                     digest += '\n';
                   });
  if (stats_out != nullptr) *stats_out = stats;
  return digest;
}

TEST(LogioInput, MmapAndReadPathsAreByteIdentical) {
  const TempDir dir;
  const std::string text = sample_log();
  write_file(dir.file("log.txt"), text);

  const InputBuffer mapped = InputBuffer::open(dir.file("log.txt"));
  EXPECT_EQ(mapped.source(), InputBuffer::Source::kMmap);
  EXPECT_EQ(mapped.view(), text);

  std::thread writer = feed_fifo(dir.file("log.fifo"), text);
  const InputBuffer readback = InputBuffer::open(dir.file("log.fifo"));
  writer.join();
  EXPECT_EQ(readback.source(), InputBuffer::Source::kRead);
  EXPECT_EQ(readback.view(), text);
}

TEST(LogioInput, RecordsIdenticalUnderBothPaths) {
  const TempDir dir;
  const std::string text = sample_log();
  write_file(dir.file("log.txt"), text);

  ReadCounts mmap_stats;
  const std::string mmap_digest = read_digest(dir.file("log.txt"), &mmap_stats);
  std::thread writer = feed_fifo(dir.file("log.fifo"), text);
  ReadCounts read_stats;
  const std::string read_digest_s =
      read_digest(dir.file("log.fifo"), &read_stats);
  writer.join();

  EXPECT_EQ(mmap_digest, read_digest_s);
  EXPECT_EQ(mmap_stats.lines, read_stats.lines);
  EXPECT_EQ(mmap_stats.lines, 500u);
}

TEST(LogioInput, EmptyFileTakesReadPathAndYieldsNothing) {
  const TempDir dir;
  write_file(dir.file("empty.log"), "");
  const InputBuffer b = InputBuffer::open(dir.file("empty.log"));
  // mmap(len=0) is invalid; the empty file must take the read() path.
  EXPECT_EQ(b.source(), InputBuffer::Source::kRead);
  EXPECT_TRUE(b.view().empty());

  const ReadCounts stats = read_records(
      dir.file("empty.log"), parse::SystemId::kSpirit, 2005,
      [](const parse::LogRecord&) { FAIL(); });
  EXPECT_EQ(stats.lines, 0u);
}

TEST(LogioInput, MissingTrailingNewlineDeliversTail) {
  const TempDir dir;
  write_file(dir.file("tail.log"), "Jun  3 15:42:50 sn1 kernel: a\nrest");
  std::size_t lines = 0;
  std::string last;
  read_records(dir.file("tail.log"), parse::SystemId::kSpirit, 2005,
               [&](const parse::LogRecord& rec) {
                 ++lines;
                 last = rec.raw;
               });
  EXPECT_EQ(lines, 2u);
  EXPECT_EQ(last, "rest");
}

TEST(LogioInput, PipeTakesReadPath) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload = sample_log();
  std::thread writer([&] {
    write_all(fds[1], payload);
    ::close(fds[1]);
  });
  ChunkReader reader = ChunkReader::from_fd(fds[0]);
  const std::string read = drain(reader);
  writer.join();
  ::close(fds[0]);
  EXPECT_EQ(reader.source(), InputBuffer::Source::kRead);
  EXPECT_EQ(read, payload);
}

// A concurrent writer truncating the file mid-read: the read() path
// simply sees EOF early and yields the bytes that remain -- no error,
// no stale size. (The mmap path snapshots the size at open and never
// re-reads, so only the read() path can observe the race; this pins
// the deterministic equivalent: shrink between open and drain.)
TEST(LogioInput, TruncatedWhileReadingYieldsRemainingBytes) {
  const TempDir dir;
  const std::string text(1 << 20, 'z');
  write_file(dir.file("big.log"), text);

  const int fd = ::open(dir.file("big.log").c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  // "Concurrent writer" truncates after the reader opened the file.
  fs::resize_file(dir.file("big.log"), 1000);
  ChunkReader reader = ChunkReader::from_fd(fd);
  const std::string read = drain(reader);
  ::close(fd);
  EXPECT_EQ(read.size(), 1000u);
  EXPECT_EQ(read, std::string_view(text).substr(0, 1000));
}

// A regular file is read, not mapped: handed out in chunks of at most
// kReadChunk bytes, which put back together are the file.
TEST(LogioInput, ChunkReaderReadsAFileInChunks) {
  const TempDir dir;
  std::string text;
  while (text.size() < 2 * ChunkReader::kReadChunk + 12345) {
    text += sample_log();
  }
  write_file(dir.file("big.log"), text);
  ChunkReader reader = ChunkReader::open(dir.file("big.log"));
  EXPECT_EQ(reader.source(), InputBuffer::Source::kRead);
  std::string_view chunk;
  std::string read;
  std::size_t chunks = 0;
  while (reader.next(chunk)) {
    EXPECT_LE(chunk.size(), ChunkReader::kReadChunk);
    read.append(chunk);
    ++chunks;
  }
  EXPECT_EQ(read, text);
  EXPECT_GE(chunks, 3u);
  EXPECT_FALSE(reader.next(chunk));  // the end stays the end
}

// A FIFO named by path takes the read() route; an empty file yields
// no chunk; a .wsc log is one decompressed chunk. Every route's bytes
// equal InputBuffer's view of the same input.
TEST(LogioInput, ChunkReaderRoutesMatchInputBuffer) {
  const TempDir dir;
  const std::string text = sample_log();

  std::thread writer = feed_fifo(dir.file("log.fifo"), text);
  ChunkReader fifo = ChunkReader::open(dir.file("log.fifo"));
  const std::string from_fifo = drain(fifo);
  writer.join();
  EXPECT_EQ(fifo.source(), InputBuffer::Source::kRead);
  EXPECT_EQ(from_fifo, text);

  write_file(dir.file("empty.log"), "");
  ChunkReader empty = ChunkReader::open(dir.file("empty.log"));
  std::size_t chunks = 1;
  EXPECT_TRUE(drain(empty, &chunks).empty());
  EXPECT_EQ(chunks, 0u);
  EXPECT_EQ(empty.source(), InputBuffer::Source::kRead);

  write_file(dir.file("log.wsc"), compress::compress(text));
  ChunkReader wsc = ChunkReader::open(dir.file("log.wsc"));
  EXPECT_EQ(drain(wsc, &chunks), InputBuffer::open(dir.file("log.wsc")).view());
  EXPECT_EQ(chunks, 1u);
  EXPECT_EQ(wsc.source(), InputBuffer::Source::kDecompressed);

  EXPECT_THROW(ChunkReader::open("/nonexistent/definitely/missing.log"),
               std::runtime_error);
}

TEST(LogioInput, WscFilesDecompressToIdenticalBytes) {
  const TempDir dir;
  const std::string text = sample_log();
  write_file(dir.file("log.wsc"), compress::compress(text));
  const InputBuffer b = InputBuffer::open(dir.file("log.wsc"));
  EXPECT_EQ(b.source(), InputBuffer::Source::kDecompressed);
  EXPECT_EQ(b.view(), text);

  // And the records read from the .wsc match the plain file's.
  write_file(dir.file("log.txt"), text);
  EXPECT_EQ(read_digest(dir.file("log.wsc")), read_digest(dir.file("log.txt")));
}

TEST(LogioInput, MissingFileThrows) {
  EXPECT_THROW(InputBuffer::open("/nonexistent/definitely/missing.log"),
               std::runtime_error);
}

TEST(LogioInput, MoveTransfersOwnership) {
  const TempDir dir;
  const std::string text = sample_log();
  write_file(dir.file("log.txt"), text);
  InputBuffer a = InputBuffer::open(dir.file("log.txt"));
  const InputBuffer b = std::move(a);
  EXPECT_EQ(b.view(), text);
  EXPECT_TRUE(a.view().empty());  // NOLINT(bugprone-use-after-move)

  InputBuffer c = InputBuffer::from_string(text);
  const InputBuffer d = std::move(c);
  EXPECT_EQ(d.view(), text);
}

}  // namespace
}  // namespace wss::logio
