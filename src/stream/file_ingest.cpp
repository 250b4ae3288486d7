#include "stream/file_ingest.hpp"

#include <pthread.h>
#include <signal.h>

#include <algorithm>
#include <cstring>

#include "net/framing.hpp"

namespace wss::stream {

/// A run of lines cut from the input, and the reads of its lines.
struct FileIngest::Block {
  Block()
      : bytes(std::make_unique_for_overwrite<char[]>(kBlockBytes)),
        ends(std::make_unique_for_overwrite<std::uint32_t[]>(kBlockLines)),
        reads(std::make_unique_for_overwrite<core::detail::LineRead[]>(
            kBlockLines)) {}

  std::string_view line(std::size_t i) const {
    const std::uint32_t begin = i == 0 ? 0 : ends[i - 1];
    return {bytes.get() + begin, ends[i] - begin};
  }

  /// Line bytes back to back; line i ends at ends[i].
  std::unique_ptr<char[]> bytes;
  std::size_t cap = kBlockBytes;
  std::size_t used = 0;
  std::size_t count = 0;
  /// The decoder's oversized-line count when these lines were cut: a
  /// change of the count ends a block, so one value holds for all.
  std::uint64_t oversized = 0;
  std::unique_ptr<std::uint32_t[]> ends;
  std::unique_ptr<core::detail::LineRead[]> reads;
  /// Set once every line is read; `failed` if the read threw.
  std::atomic<bool> read{false};
  bool failed = false;
};

namespace {

/// Two readers keep the calling thread busy on both stream workloads;
/// a third lost on a 4-vCPU box, where it leaves no core for anything
/// else (DESIGN.md section 5h).
int default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(std::max(hw, 1u), 3u)) - 1;
}

}  // namespace

FileIngest::FileIngest(StreamPipeline& pipeline, int workers)
    : pipeline_(pipeline), workers_(workers < 0 ? default_workers() : workers) {
  // Enough blocks that every pool thread can read one while the caller
  // cuts one and reduces another. Each is allocated when first cut, so
  // a short input allocates one.
  ring_.resize(static_cast<std::size_t>(workers_) + 2);
  pool_.reserve(static_cast<std::size_t>(workers_));
}

FileIngest::~FileIngest() { stop_pool(); }

FileIngest::Block& FileIngest::slot(std::uint64_t seq) {
  return *ring_[seq % ring_.size()];
}

FileIngest::Block& FileIngest::cutting() {
  std::unique_ptr<Block>& b = ring_[cut_seq_ % ring_.size()];
  if (!b) b = std::make_unique<Block>();
  return *b;
}

bool FileIngest::drained() const {
  return opts_->stop != nullptr && opts_->stop();
}

bool FileIngest::stopped() const {
  return drained() || (opts_->max_lines > 0 && reduced_ >= opts_->max_lines);
}

bool FileIngest::run(logio::ChunkReader& reader,
                     const FileIngestOptions& opts) {
  opts_ = &opts;
  skip_ = opts.skip;
  bool ended = false;
  try {
    ended = cut_and_reduce(reader);
  } catch (...) {
    stop_pool();
    throw;
  }
  stop_pool();
  if (error_) std::rethrow_exception(error_);
  return ended;
}

bool FileIngest::cut_and_reduce(logio::ChunkReader& reader) {
  net::FrameDecoder decoder(net::Framing::kNewline, logio::kMaxLine);
  const auto on_line = [&](std::string_view line) {
    return cut(line, decoder.oversized());
  };
  decoder.write_window(logio::kReadChunk);  // one read's worth up front
  for (;;) {
    // The drain flag is tested before every read, not only before
    // every line, so a signal that lands while the lines of a read are
    // reduced does not leave the run blocked on an idle pipe (a signal
    // during the read() itself interrupts it). The line limit is not:
    // a run that stops at the input's end is complete, not truncated.
    if (drained()) return false;
    // Nothing is held back from a reader that waits for more input.
    if (reader.may_block() && (!reduce_cut() || drained())) return false;
    // A quarter read is the least room asked for: a line cut by the
    // last read is compacted to the front rather than doubling the
    // buffer, and the read then fills the room there is, up to a read.
    char* dst = decoder.write_window(logio::kReadChunk / 4);
    std::size_t got = 0;
    if (!reader.read_into(dst, std::min(decoder.room(), logio::kReadChunk),
                          got)) {
      std::string_view tail;
      if (decoder.finish_view(tail) && !on_line(tail)) return false;
      if (!reduce_cut()) return false;
      over_reached_ = decoder.oversized();
      return true;
    }
    decoder.commit(got);
    if (!decoder.for_each_frame(on_line)) return false;
  }
}

bool FileIngest::cut(std::string_view line, std::uint64_t oversized) {
  if (skip_ > 0) {
    // The resume skip: these lines were reduced by the run that saved
    // the checkpoint, which counted the oversized lines among them.
    --skip_;
    over_skipped_ = over_reached_ = oversized;
    return true;
  }
  Block* b = &cutting();
  if (b->count > 0 &&
      (b->count == kBlockLines || b->used + line.size() > kBlockBytes ||
       b->oversized != oversized)) {
    seal();
    if (pool_.empty() && workers_ > 0) start_pool();
    // The ring holds the block being cut and those cut before it.
    while (cut_seq_ - reduce_seq_ >= ring_.size()) {
      if (!reduce_next()) return false;
    }
    b = &cutting();
  }
  if (b->count == 0) b->oversized = oversized;
  if (b->used + line.size() > b->cap) {  // one line longer than a block
    b->cap = line.size();
    b->bytes = std::make_unique_for_overwrite<char[]>(b->cap);
  }
  std::memcpy(b->bytes.get() + b->used, line.data(), line.size());
  b->used += line.size();
  b->ends[b->count++] = static_cast<std::uint32_t>(b->used);
  return true;
}

void FileIngest::seal() {
  published_.store(++cut_seq_);
  if (sleepers_.load() > 0) {
    const std::lock_guard<std::mutex> lock(mu_);
    work_cv_.notify_one();
  }
}

bool FileIngest::reduce_cut() {
  if (cutting().count > 0) seal();
  while (reduce_seq_ < cut_seq_) {
    if (!reduce_next()) return false;
  }
  return true;
}

bool FileIngest::reduce_next() {
  Block& b = slot(reduce_seq_);
  if (!b.read.load(std::memory_order_acquire)) {
    std::uint64_t unclaimed = reduce_seq_;
    if (claim_.compare_exchange_strong(unclaimed, reduce_seq_ + 1)) {
      read_block(b, ls_, scratch_);
    } else {
      wait_read(b);
    }
  }
  if (b.failed) return false;
  const bool more = reduce_block(b);
  b.read.store(false, std::memory_order_relaxed);
  b.used = 0;
  b.count = 0;
  if (b.cap > kBlockBytes) {  // give a long line's memory back
    b.cap = kBlockBytes;
    b.bytes = std::make_unique_for_overwrite<char[]>(b.cap);
  }
  ++reduce_seq_;
  return more;
}

bool FileIngest::reduce_block(Block& b) {
  for (std::size_t i = 0; i < b.count; ++i) {
    if (stopped()) return false;
    over_reached_ = b.oversized;
    pipeline_.ingest_read(b.line(i), b.reads[i]);
    ++reduced_;
    if (opts_->after_line) opts_->after_line(reduced_);
  }
  return true;
}

void FileIngest::read_block(Block& b, core::detail::LineScratch& ls,
                            match::MatchScratch& scratch) {
  for (std::size_t i = 0; i < b.count; ++i) {
    pipeline_.read_line(b.line(i), ls, scratch, b.reads[i]);
  }
  b.read.store(true);  // sequentially consistent: see work()
}

// ---- the pool ----

void FileIngest::start_pool() {
  // Pool threads take no signal: a drain signal must land on the
  // calling thread, to interrupt its read() of an idle pipe. They
  // inherit the mask they are created with.
  sigset_t all;
  sigset_t old;
  ::sigfillset(&all);
  ::pthread_sigmask(SIG_BLOCK, &all, &old);
  try {
    for (int w = 0; w < workers_; ++w) pool_.emplace_back([this] { work(); });
  } catch (...) {
    ::pthread_sigmask(SIG_SETMASK, &old, nullptr);
    throw;
  }
  ::pthread_sigmask(SIG_SETMASK, &old, nullptr);
}

void FileIngest::stop_pool() {
  if (pool_.empty()) return;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true);
  }
  work_cv_.notify_all();
  for (std::thread& t : pool_) t.join();
  pool_.clear();
}

void FileIngest::work() {
  core::detail::LineScratch ls;
  match::MatchScratch scratch;
  std::uint64_t seq = 0;
  while (claim(seq)) {
    Block& b = slot(seq);
    try {
      read_block(b, ls, scratch);
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(mu_);
        if (!error_) error_ = std::current_exception();
      }
      b.failed = true;
      b.read.store(true);
    }
    // Sequentially consistent with wait_read's store and load: either
    // the caller sees the block read, or this sees the caller waiting.
    if (waiting_.load()) {
      const std::lock_guard<std::mutex> lock(mu_);
      read_cv_.notify_one();
    }
  }
}

bool FileIngest::claim(std::uint64_t& seq) {
  for (;;) {
    seq = claim_.load();
    while (seq < published_.load()) {
      if (claim_.compare_exchange_weak(seq, seq + 1)) return true;
    }
    std::unique_lock<std::mutex> lock(mu_);
    sleepers_.fetch_add(1);
    work_cv_.wait(lock, [this] {
      return stop_.load() || claim_.load() < published_.load();
    });
    sleepers_.fetch_sub(1);
    if (stop_.load()) return false;
  }
}

void FileIngest::wait_read(Block& b) {
  std::unique_lock<std::mutex> lock(mu_);
  waiting_.store(true);
  read_cv_.wait(lock, [&b] { return b.read.load(); });
  waiting_.store(false);
}

}  // namespace wss::stream
