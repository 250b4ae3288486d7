// Zero-copy input for the byte-level hot path.
//
// Two readers, one per access pattern:
//  - InputBuffer: the whole input as one contiguous view, for readers
//    that pass over it more than once (mine) or keep it (tests, the
//    bench's reference). It maps a plain log file read-only
//    (MAP_PRIVATE) so the line splitter hands out views straight into
//    the page cache, and falls back to plain read() when mapping is
//    impossible or pointless: FIFOs and other non-regular files, empty
//    files, .wsc logs (which must be decompressed into an owned buffer
//    anyway), or when the kernel refuses the mapping. The file size is
//    snapshotted at open: a concurrent writer appending after open()
//    is not seen (same contract as the old slurp reader).
//  - ChunkReader: the input one read() at a time into the caller's
//    buffer, for one-pass readers (stream --in, anonymize). They read
//    into a net::FrameDecoder's window, which cuts the lines, so
//    resident input stays one bounded buffer on files, pipes and stdin
//    alike.
// Every route is pinned byte-identical to the mmap path by
// tests/test_logio_input.cpp.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <string_view>

namespace wss::logio {

/// An immutable, contiguous view of a whole input, however obtained.
/// Move-only; the view stays valid for the buffer's lifetime.
class InputBuffer {
 public:
  enum class Source {
    kMmap,         ///< mapped pages of a regular file
    kRead,         ///< read() into an owned buffer
    kDecompressed  ///< .wsc codec output (owned buffer)
  };

  InputBuffer() = default;
  InputBuffer(InputBuffer&& other) noexcept { *this = std::move(other); }
  InputBuffer& operator=(InputBuffer&& other) noexcept;
  InputBuffer(const InputBuffer&) = delete;
  InputBuffer& operator=(const InputBuffer&) = delete;
  ~InputBuffer();

  /// Opens `path`, choosing mmap / read() / decompression as described
  /// above. Throws std::runtime_error when the file cannot be read.
  static InputBuffer open(const std::filesystem::path& path);

  /// Wraps an owned string (tests, decompressed data).
  static InputBuffer from_string(std::string text);

  std::string_view view() const {
    return {data_, size_};
  }
  Source source() const { return source_; }

 private:
  const char* data_ = "";
  std::size_t size_ = 0;
  std::string owned_;        ///< backing store for kRead/kDecompressed
  void* map_ = nullptr;      ///< mmap base for kMmap
  std::size_t map_len_ = 0;  ///< mmap length (page-rounded source size)
  Source source_ = Source::kRead;
};

/// The read size of ChunkReader's callers: one read() fills at most
/// this many bytes of the line decoder's buffer.
inline constexpr std::size_t kReadChunk = std::size_t{256} << 10;

/// The longest line `wss stream --in` and `wss anonymize` accept. A
/// longer one is skipped whole and counted, so a line with no newline
/// holds at most this much memory. A constant, not a flag: one reader
/// holds one buffer, and no input needs a second value.
inline constexpr std::size_t kMaxLine = std::size_t{8} << 20;

/// An input read one read() at a time into the caller's buffer:
///  - a file, pipe, FIFO or stdin is read() directly, and each read
///    returns as soon as the kernel has bytes, so a live pipe is
///    consumed as it is written;
///  - a .wsc log is decompressed whole up front (compress::decompress
///    takes one container and has no block API) and copied out in
///    reads of the caller's size.
/// Neither copyable nor movable: the factories return it in place.
class ChunkReader {
 public:
  using Source = InputBuffer::Source;

  /// Opens `path`, choosing the route as described above. Throws
  /// std::runtime_error when the file cannot be opened.
  static ChunkReader open(const std::filesystem::path& path);

  /// Reads an already-open descriptor (stdin, a pipe) with read().
  /// Does not close `fd`.
  static ChunkReader from_fd(int fd) { return ChunkReader(fd, false); }

  ChunkReader(const ChunkReader&) = delete;
  ChunkReader& operator=(const ChunkReader&) = delete;
  ~ChunkReader();

  /// Reads up to `cap` (> 0) bytes into `dst`, sets `got` and returns
  /// true; returns false at the end of the input. A read() that a
  /// signal interrupts gives got == 0 and true, so a caller blocked on
  /// an idle pipe can check its stop flag. Throws std::runtime_error on
  /// a read error.
  bool read_into(char* dst, std::size_t cap, std::size_t& got);

  Source source() const { return source_; }

 private:
  ChunkReader(int fd, bool owns_fd);
  explicit ChunkReader(std::string text);

  Source source_;
  int fd_ = -1;               ///< kRead: the descriptor read from
  bool owns_fd_ = false;      ///< kRead: close fd_ when done
  std::string text_;          ///< kDecompressed: the whole text
  std::size_t text_off_ = 0;  ///< kDecompressed: bytes handed out
};

}  // namespace wss::logio
