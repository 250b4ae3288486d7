// Zero-copy batch input for the byte-level hot path.
//
// The file readers (stream --in, mine, anonymize) read a whole log and
// stream lines out of it; copying the bytes through an istringstream
// costs more than parsing them. InputBuffer maps a plain log file
// read-only (MAP_PRIVATE) so the line splitter hands out views
// straight into the page cache, and falls back to plain read() when
// mapping is impossible or pointless: pipes and other non-regular
// files, empty files, .wsc logs (which must be decompressed into an
// owned buffer anyway), or when the kernel refuses the mapping.
// The fallback paths are pinned byte-identical to the mmap path by
// tests/test_logio_input.cpp.
//
// The file size is snapshotted at open: a concurrent writer appending
// after open() is not seen (same contract as the old slurp reader).
#pragma once

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

  /// Drains an already-open descriptor (stdin, a pipe) via read().
  /// Does not close `fd`. Throws std::runtime_error on read failure.
  static InputBuffer from_fd(int fd);

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

}  // namespace wss::logio
