// Bump-pointer arena for the byte-level hot path.
//
// The miss path (chatter line -> parse -> tag -> no match -> discard)
// runs hundreds of millions of times per study; a single per-line heap
// allocation turns it allocator-bound. simd::ChunkSplitter, fed the
// read()s of a logio::ChunkReader (a file, a pipe, stdin), needs
// transient storage for a line straddling two chunks and for the
// partial line it carries between feeds; it takes both from an
// Arena: alloc() bumps a pointer inside a block, reset() rewinds to
// empty while KEEPING the blocks, so after the first pass over
// representative input (the warm-up) the arena never touches the heap
// again (tests/test_simd_differential.cpp pins the block count).
//
// Lifetime rule (DESIGN.md section 5h): memory returned by alloc() is
// valid until the next reset() -- an arena-backed view must be consumed
// or copied out before the owner resets. Arenas are single-threaded;
// one per splitter/reader, like match::MatchScratch.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace wss::simd {

class Arena {
 public:
  explicit Arena(std::size_t block_size = 64 * 1024)
      : block_size_(block_size) {}

  /// Returns `n` bytes (byte buffers only; no alignment promise).
  /// Valid until reset().
  char* alloc(std::size_t n) {
    if (used_ + n > cap_) refill(n);
    char* p = cur_ + used_;
    used_ += n;
    return p;
  }

  /// Grows the MOST RECENT allocation in place by `extra` bytes when
  /// `v` is that allocation and the current block has room, returning
  /// the writable tail; nullptr otherwise (caller re-allocates and
  /// copies). This is what keeps a carry assembled from thousands of
  /// tiny feeds linear instead of quadratic.
  char* try_extend(std::string_view v, std::size_t extra) {
    if (cur_ == nullptr || v.data() + v.size() != cur_ + used_) return nullptr;
    if (used_ + extra > cap_) return nullptr;
    char* tail = cur_ + used_;
    used_ += extra;
    return tail;
  }

  /// Copies `s` into the arena and returns the arena-backed view.
  std::string_view copy(std::string_view s) {
    char* p = alloc(s.size());
    std::memcpy(p, s.data(), s.size());
    return {p, s.size()};
  }

  /// Copies the concatenation `a + b` (a straddled line's two halves)
  /// into one contiguous arena region.
  std::string_view join(std::string_view a, std::string_view b) {
    char* p = alloc(a.size() + b.size());
    std::memcpy(p, a.data(), a.size());
    std::memcpy(p + a.size(), b.data(), b.size());
    return {p, a.size() + b.size()};
  }

  /// Rewinds to empty, keeping every block for reuse. Previously
  /// returned pointers become invalid.
  void reset() {
    block_ = 0;
    used_ = 0;
    if (!blocks_.empty()) {
      cur_ = blocks_[0].data.get();
      cap_ = blocks_[0].size;
    } else {
      cur_ = nullptr;
      cap_ = 0;
    }
  }

  /// Blocks ever allocated (the steady-state test: constant after
  /// warm-up).
  std::size_t blocks() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    std::size_t size = 0;
  };

  void refill(std::size_t need) {
    // Move to the next existing block if it fits, else append one.
    // New blocks grow geometrically (>= 2x the largest so far) so a
    // carry built by repeated try_extend exhausts O(log n) blocks with
    // O(n) total copying, and after reset the chain is reused forever.
    while (block_ + 1 < blocks_.size()) {
      ++block_;
      if (blocks_[block_].size >= need) {
        cur_ = blocks_[block_].data.get();
        cap_ = blocks_[block_].size;
        used_ = 0;
        return;
      }
    }
    std::size_t size = block_size_;
    if (largest_ * 2 > size) size = largest_ * 2;
    if (need > size) size = need;
    blocks_.push_back({std::make_unique<char[]>(size), size});
    if (size > largest_) largest_ = size;
    block_ = blocks_.size() - 1;
    cur_ = blocks_[block_].data.get();
    cap_ = size;
    used_ = 0;
  }

  std::size_t block_size_;
  std::size_t largest_ = 0;
  std::vector<Block> blocks_;
  std::size_t block_ = 0;  ///< index of the block being bumped
  char* cur_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t used_ = 0;
};

}  // namespace wss::simd
