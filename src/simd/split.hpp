// Vectorized line splitting -- the one newline scanner under logio,
// the stream chunker, and (via the same find_byte kernel) the net
// frame decoder.
//
// Semantics are std::getline's, byte for byte: a frame is everything
// up to (not including) '\n'; '\r' is NOT stripped (callers that want
// CRLF handling, like net::FrameDecoder, layer it on top); an
// unterminated non-empty tail is delivered last; a trailing '\n'
// produces no extra empty line. Embedded NUL bytes are data. The
// differential-fuzz suite (tests label `simd`) pins every level to the
// scalar twin on adversarial corpora, including >1 MiB lines, all-256
// byte values, and lines straddling every alignment and chunk
// boundary.
#pragma once

#include <cstring>
#include <string_view>
#include <utility>

#include "simd/arena.hpp"
#include "simd/scan.hpp"

namespace wss::simd {

/// Calls fn(std::string_view line) for each line of a contiguous
/// buffer (a whole logio::InputBuffer: views point straight into
/// `text`).
template <typename F>
void for_each_line(std::string_view text, F&& fn) {
  const Level level = active_level();
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p != end) {
    const char* nl = find_byte(level, p, end, '\n');
    if (nl == end) {
      fn(std::string_view(p, static_cast<std::size_t>(end - p)));
      return;
    }
    fn(std::string_view(p, static_cast<std::size_t>(nl - p)));
    p = nl + 1;
  }
}

/// Push-based splitter for chunked input (logio::ChunkReader's read()s
/// of a file, a pipe or stdin): feed() emits every line completed by
/// the chunk -- views point into
/// the chunk itself except for lines straddling a chunk boundary,
/// which are assembled in a per-chunk arena (valid only during the
/// fn call). finish() flushes the unterminated tail, getline-style.
/// Zero steady-state heap allocations once the arenas reach the
/// longest-line high-water mark.
class ChunkSplitter {
 public:
  template <typename F>
  void feed(std::string_view chunk, F&& fn) {
    const Level level = active_level();
    const char* p = chunk.data();
    const char* const end = p + chunk.size();
    if (!carry_.empty() && p != end) {
      const char* nl = find_byte(level, p, end, '\n');
      const auto take = static_cast<std::size_t>(nl - p);
      // Grow the carry: in place when it is still the carry arena's
      // most recent allocation (the common case -- O(take)), else by
      // staging the join in the line arena so the old carry can be
      // read before its arena is rewound.
      if (char* tail = carry_arena_.try_extend(carry_, take)) {
        std::memcpy(tail, p, take);
        carry_ = {carry_.data(), carry_.size() + take};
      } else {
        line_arena_.reset();
        const std::string_view joined = line_arena_.join(carry_, {p, take});
        carry_arena_.reset();
        carry_ = carry_arena_.copy(joined);
      }
      if (nl == end) return;  // still unterminated
      const std::string_view line = carry_;
      carry_ = {};
      fn(line);
      carry_arena_.reset();
      line_arena_.reset();
      p = nl + 1;
    }
    while (p != end) {
      const char* nl = find_byte(level, p, end, '\n');
      if (nl == end) {
        carry_arena_.reset();
        carry_ = carry_arena_.copy({p, static_cast<std::size_t>(end - p)});
        return;
      }
      fn(std::string_view(p, static_cast<std::size_t>(nl - p)));
      p = nl + 1;
    }
  }

  /// End of input: delivers the carried tail (if any) exactly like
  /// getline's final unterminated line.
  template <typename F>
  void finish(F&& fn) {
    if (carry_.empty()) return;
    const std::string_view line = carry_;
    carry_ = {};
    fn(line);
    carry_arena_.reset();
  }

  /// Bytes currently carried across a chunk boundary.
  std::size_t carry_size() const { return carry_.size(); }

  /// Arena blocks held (tests: constant after warm-up).
  std::size_t arena_blocks() const {
    return carry_arena_.blocks() + line_arena_.blocks();
  }

 private:
  Arena carry_arena_;
  Arena line_arena_;
  std::string_view carry_;
};

}  // namespace wss::simd
