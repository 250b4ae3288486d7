// `wss stream --in`'s ingest loop: a log read once, in file order, with
// its lines' reads running ahead on a small pool.
//
// A line's work has two halves (StreamPipeline::read_line and
// ingest_read). The read -- parse and tag -- depends on nothing but the
// line, so any thread may run it. The reduce -- year, accumulate,
// intern, study, filter, predict -- must see the lines in file order.
// FileIngest runs them so:
//
//   * The calling thread reads the input through one net::FrameDecoder
//     and copies its lines into a fixed ring of blocks, each up to
//     kBlockBytes of line bytes and kBlockLines lines, with one 24-byte
//     core::detail::LineRead slot per line. Each block is allocated
//     once, when it is first cut into; it grows only to hold a single
//     line longer than kBlockBytes.
//   * Pool threads claim cut blocks by sequence number and read them.
//     The pool has min(hardware_concurrency(), 3) - 1 threads, and it
//     starts only when a second block is cut, so a one-block input
//     starts no thread.
//   * The calling thread reduces the blocks strictly in order. A block
//     no pool thread has claimed it reads itself (that is the whole
//     route when the pool is empty); it waits only on a block a pool
//     thread is reading.
//
// The calling thread alone acts on what is reduced: the stop flag and
// the line limit are tested before each line is reduced, and the resume
// skip and the oversized-line count follow the reduced lines. When it
// stops it drops the blocks read ahead and joins the pool, so a
// checkpoint taken afterwards holds no line that was read but not
// reduced. Before a read() that could block (a pipe with no byte
// ready) it reduces every cut line, so a live FIFO is reported as it is
// written. No thread spins: a sleeping pool thread is woken when a
// block is cut, and the calling thread sleeps on a block only while a
// pool thread reads it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "logio/input.hpp"
#include "stream/pipeline.hpp"

namespace wss::stream {

/// What the caller of FileIngest::run decides about the run.
struct FileIngestOptions {
  /// Lines passed over unreduced first: the --restore resume skip.
  std::uint64_t skip = 0;
  /// Stop before reducing more lines than this; 0 = no limit
  /// (--max-events).
  std::uint64_t max_lines = 0;
  /// Drain flag, tested before each line is reduced and before each
  /// read; null = never.
  bool (*stop)() = nullptr;
  /// Called after each reduced line with the number reduced so far
  /// (--refresh); may be empty.
  std::function<void(std::uint64_t)> after_line;
};

/// One file-mode pass of a StreamPipeline; see the file comment.
class FileIngest {
 public:
  /// Line bytes per block, and lines per block.
  static constexpr std::size_t kBlockBytes = std::size_t{32} << 10;
  static constexpr std::size_t kBlockLines = kBlockBytes / 64;

  /// `workers` < 0 sizes the pool min(hardware_concurrency(), 3) - 1;
  /// tests pass 0, 1 or 3 to force the size.
  explicit FileIngest(StreamPipeline& pipeline, int workers = -1);
  ~FileIngest();
  FileIngest(const FileIngest&) = delete;
  FileIngest& operator=(const FileIngest&) = delete;

  /// Reads `reader` to its end, or until `opts` stop it, and hands
  /// every line after the skip to the pipeline in file order. Returns
  /// true when the input ended and every line was reduced, false when
  /// `opts.stop` or `opts.max_lines` stopped the run first. The pool is
  /// joined before it returns; the first failure of a pool thread is
  /// rethrown then. Call once per FileIngest.
  bool run(logio::ChunkReader& reader, const FileIngestOptions& opts);

  /// Lines reduced so far.
  std::uint64_t reduced() const { return reduced_; }

  /// Lines longer than logio::kMaxLine (skipped by the decoder) that
  /// this run reached: those after the resume skip's last line and
  /// before the last reduced line, or before the input's end when it
  /// ended.
  std::uint64_t oversized() const {
    return over_reached_ > over_skipped_ ? over_reached_ - over_skipped_ : 0;
  }

 private:
  struct Block;

  bool cut_and_reduce(logio::ChunkReader& reader);
  bool cut(std::string_view line, std::uint64_t oversized);
  void seal();
  bool reduce_next();
  bool reduce_cut();
  bool reduce_block(Block& b);
  void read_block(Block& b, core::detail::LineScratch& ls,
                  match::MatchScratch& scratch);
  bool drained() const;
  bool stopped() const;
  Block& slot(std::uint64_t seq);
  Block& cutting();  ///< slot(cut_seq_), allocated on first use

  void start_pool();
  void stop_pool();
  void work();
  bool claim(std::uint64_t& seq);
  void wait_read(Block& b);

  StreamPipeline& pipeline_;
  const int workers_;
  const FileIngestOptions* opts_ = nullptr;
  std::vector<std::unique_ptr<Block>> ring_;

  // Calling thread only.
  std::uint64_t cut_seq_ = 0;     ///< the block being filled
  std::uint64_t reduce_seq_ = 0;  ///< the next block to reduce
  std::uint64_t skip_ = 0;
  std::uint64_t reduced_ = 0;
  std::uint64_t over_skipped_ = 0;
  std::uint64_t over_reached_ = 0;
  core::detail::LineScratch ls_;  ///< reads the blocks nobody claimed
  match::MatchScratch scratch_;

  // Shared with the pool. Blocks [0, published_) are cut; the next one
  // to claim is claim_.
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> claim_{0};
  std::atomic<int> sleepers_{0};       ///< pool threads waiting for a cut
  std::atomic<bool> waiting_{false};   ///< the caller waits on a read
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable read_cv_;
  std::exception_ptr error_;  ///< a pool thread's first failure (mu_)
  std::vector<std::thread> pool_;
};

}  // namespace wss::stream
