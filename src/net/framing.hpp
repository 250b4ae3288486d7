// The one line splitter, and the TCP frame decoder it grew out of.
//
// Every route that cuts bytes into log lines runs this decoder: `wss
// stream --in` and `wss anonymize` over a file, a FIFO, stdin or a
// decompressed .wsc log (bound logio::kMaxLine), and `wss serve`'s TCP
// connections and UDP datagrams (bound --max-frame). A byte stream
// carries lines in one of two framings:
//
//   * kNewline (default, syslog-style): '\n' ends a line; one trailing
//     '\r' is stripped; at the end of the input a non-empty
//     unterminated tail is the last line (finish_view), so a tail of
//     exactly "\r" is an empty line, like "\r\n" mid-stream; a line
//     longer than max_frame is skipped whole and counted, never
//     truncated. On LF input this is std::getline's line for line.
//   * kLenPrefix: each frame is a 4-byte big-endian length followed by
//     that many payload bytes. Binary-safe (payloads may contain '\n').
//
// Storage is one compacting linear buffer, sized to a power of two
// until it reaches the bound, grown with realloc and left
// uninitialised, so growing it touches only the pages that bytes land
// on. A reader lands its read()/recv() straight in the writable
// tail (write_window()/room()/commit()), and for_each_frame()/
// next_view() slice each complete line out as a std::string_view -- no
// copy between the descriptor and the line. Only a line straddling a
// read boundary pays a memmove, when the carry is compacted to the
// front to make tail room. The newline search runs simd::find_byte over
// the live bytes and remembers how far it has scanned, so a line
// arriving in many small reads is scanned once, not once per read.
//
// View lifetime: a view handed out by for_each_frame()/next_view()/
// finish_view() points into the buffer and stays valid until the next
// write_window(), feed(), or take_rest() call -- consume lines (or copy
// them) before reading more bytes.
//
// Memory is bounded by max_frame: a newline line longer than it enters
// discard mode until its terminator, so the buffer holds at most
// max_frame bytes of any line plus one read. A length prefix larger
// than max_frame is a protocol error (the stream position is lost).
// Both are counted in oversized(), so every skipped frame is visible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>

#include "simd/scan.hpp"

namespace wss::net {

enum class Framing : std::uint8_t {
  kNewline = 0,
  kLenPrefix = 1,
};

class FrameDecoder {
 public:
  explicit FrameDecoder(Framing mode = Framing::kNewline,
                        std::size_t max_frame = 1 << 20)
      : mode_(mode), max_frame_(max_frame) {}

  /// Appends a received segment (copies it in). The zero-copy
  /// alternative is write_window() + commit().
  void feed(std::string_view bytes);

  /// Ensures at least `min_bytes` of contiguous writable space after
  /// the live bytes -- compacting the carry to the front or growing
  /// the buffer as needed -- and returns the write pointer for a
  /// read() to land on directly. Invalidates outstanding views.
  char* write_window(std::size_t min_bytes);

  /// Writable bytes after the live ones: how much a read at the last
  /// write_window() pointer may fill (at least that call's min_bytes).
  std::size_t room() const { return cap_ - head_ - size_; }

  /// Marks `n` bytes at the last write_window() pointer as received.
  void commit(std::size_t n) { size_ += n; }

  /// kNewline only: calls fn(std::string_view line) for each complete
  /// line buffered, in order, until fn returns false. Returns true when
  /// every complete line went out, false when fn stopped the walk (the
  /// line it stopped on is consumed). fn must not call the decoder,
  /// except oversized(), which then counts every line skipped before
  /// the one fn receives. Views as next_view()'s.
  template <typename F>
  bool for_each_frame(F&& fn);

  /// Slices the next complete frame out of the buffer without copying.
  /// Returns false when no complete frame remains buffered (and after
  /// a protocol error -- check error()). The view is valid until the
  /// next write_window()/feed()/take_rest().
  bool next_view(std::string_view& frame);

  /// Extracts the next complete frame into `frame` (overwritten).
  /// Copying twin of next_view(), same contract.
  bool next(std::string& frame);

  /// End-of-stream flush (kNewline only): yields a non-empty
  /// unterminated tail, '\r'-stripped, without copying. Returns false
  /// when there is nothing to flush or the tail is oversized (counted,
  /// not delivered). Same view lifetime as next_view().
  bool finish_view(std::string_view& frame);

  /// Copying twin of finish_view().
  bool finish(std::string& frame);

  /// Frames skipped because they exceeded max_frame.
  std::uint64_t oversized() const { return oversized_; }

  /// Set once a kLenPrefix frame announces an impossible length; the
  /// byte stream can no longer be re-synchronized.
  bool error() const { return error_; }

  /// Bytes currently buffered (tests; also a memory bound check).
  std::size_t buffered() const { return size_; }

  /// Bytes the buffer can hold; it changes only when the buffer grows.
  std::size_t capacity() const { return cap_; }

  /// Removes and returns all undecoded bytes, leaving the decoder
  /// empty. Used when a handshake switches a connection's framing: the
  /// remainder is re-fed to the replacement decoder.
  std::string take_rest();

  std::size_t max_frame() const { return max_frame_; }
  Framing mode() const { return mode_; }

 private:
  const char* head() const { return buf_.get() + head_; }

  void consume(std::size_t n) {
    head_ += n;
    size_ -= n;
  }
  void clear_bytes() {
    head_ = 0;
    size_ = 0;
    scanned_ = 0;
  }

  Framing mode_;
  std::size_t max_frame_;
  struct Free {
    void operator()(char* p) const noexcept { std::free(p); }
  };
  std::unique_ptr<char[], Free> buf_;  ///< cap_ bytes from realloc
  /// 0, a power of two below max_frame_, or once grown to the bound,
  /// the bound (or the live bytes) plus one write window.
  std::size_t cap_ = 0;
  std::size_t head_ = 0;         ///< offset of the first live byte
  std::size_t size_ = 0;         ///< live bytes at [head_, head_ + size_)
  std::size_t scanned_ = 0;      ///< newline mode: prefix known '\n'-free
  bool discarding_ = false;      ///< newline mode: inside an oversized line
  std::uint64_t oversized_ = 0;
  bool error_ = false;
};

template <typename F>
bool FrameDecoder::for_each_frame(F&& fn) {
  // Nothing arrived since the last walk: no line can have completed.
  if (scanned_ == size_) return true;
  // The walk runs on locals and writes the members back once: fn is an
  // opaque call, and members it might alias would be reloaded per line.
  const simd::Level level = simd::active_level();
  const std::size_t max = max_frame_;
  const char* const base = buf_.get();
  const char* line = base + head_;  // start of the line being cut
  const char* const end = line + size_;
  const char* scan = line + scanned_;  // [line, scan) holds no '\n'
  bool discarding = discarding_;
  std::uint64_t oversized = oversized_;
  bool all = true;
  for (;;) {
    const char* const nl = simd::find_byte(level, scan, end, '\n');
    if (nl == end) {
      scan = end;
      break;
    }
    const char* const begin = line;
    const auto len = static_cast<std::size_t>(nl - begin);
    line = scan = nl + 1;
    if (discarding) {  // the terminator of an oversized line
      discarding = false;
      continue;
    }
    if (len > max) {
      oversized_ = ++oversized;  // oversized() is current inside fn
      continue;
    }
    const bool cr = len > 0 && begin[len - 1] == '\r';
    if (!fn(std::string_view(begin, len - (cr ? 1 : 0)))) {
      all = false;
      break;
    }
  }
  head_ = static_cast<std::size_t>(line - base);
  size_ = static_cast<std::size_t>(end - line);
  scanned_ = static_cast<std::size_t>(scan - line);
  if (all) {
    // No terminator buffered. A partial line already over the bound is
    // oversized whatever follows: count it once and drop its bytes.
    if (!discarding && size_ > max) {
      discarding = true;
      ++oversized;
    }
    if (discarding) clear_bytes();
  }
  discarding_ = discarding;
  oversized_ = oversized;
  return all;
}

}  // namespace wss::net
