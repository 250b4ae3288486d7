#include "logio/input.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "logio/writer.hpp"

namespace wss::logio {

namespace {

[[noreturn]] void throw_errno(const std::filesystem::path& path,
                              const char* what) {
  throw std::runtime_error("cannot " + std::string(what) + " " +
                           path.string() + ": " + std::strerror(errno));
}

/// Reads `fd` to EOF through a ChunkReader. Does not close `fd`.
std::string drain_fd(int fd) {
  std::string out;
  ChunkReader reader = ChunkReader::from_fd(fd);
  const std::unique_ptr<char[]> buf(new char[kReadChunk]);
  std::size_t got = 0;
  while (reader.read_into(buf.get(), kReadChunk, got)) {
    out.append(buf.get(), got);
  }
  return out;
}

}  // namespace

InputBuffer& InputBuffer::operator=(InputBuffer&& other) noexcept {
  if (this == &other) return *this;
  if (map_ != nullptr) ::munmap(map_, map_len_);
  data_ = other.data_;
  size_ = other.size_;
  owned_ = std::move(other.owned_);
  map_ = other.map_;
  map_len_ = other.map_len_;
  source_ = other.source_;
  other.data_ = "";
  other.size_ = 0;
  other.map_ = nullptr;
  other.map_len_ = 0;
  // owned_ may have moved out from under other.data_; re-point at the
  // (possibly SSO-relocated) storage.
  if (source_ != Source::kMmap && !owned_.empty()) {
    data_ = owned_.data();
    size_ = owned_.size();
  }
  return *this;
}

InputBuffer::~InputBuffer() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
}

InputBuffer InputBuffer::from_string(std::string text) {
  InputBuffer b;
  b.owned_ = std::move(text);
  b.data_ = b.owned_.data();
  b.size_ = b.owned_.size();
  b.source_ = Source::kRead;
  return b;
}

InputBuffer InputBuffer::open(const std::filesystem::path& path) {
  if (path.extension() == ".wsc") {
    InputBuffer b = from_string(read_log_text(path));
    b.source_ = Source::kDecompressed;
    return b;
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw_errno(path, "open");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno(path, "stat");
  }
  if (S_ISREG(st.st_mode) && st.st_size > 0) {
    const auto len = static_cast<std::size_t>(st.st_size);
    void* map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      ::close(fd);  // the mapping keeps the pages alive
      InputBuffer b;
      b.map_ = map;
      b.map_len_ = len;
      b.data_ = static_cast<const char*>(map);
      b.size_ = len;
      b.source_ = Source::kMmap;
      return b;
    }
    // mmap refused (unusual filesystem, resource limit): fall through
    // to read().
  }
  InputBuffer b;
  try {
    b = from_string(drain_fd(fd));
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return b;
}

ChunkReader ChunkReader::open(const std::filesystem::path& path) {
  if (path.extension() == ".wsc") return ChunkReader(read_log_text(path));
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw_errno(path, "open");
  return ChunkReader(fd, true);
}

ChunkReader::ChunkReader(int fd, bool owns_fd)
    : source_(Source::kRead), fd_(fd), owns_fd_(owns_fd) {
  struct stat st{};
  pollable_ = ::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode);
}

ChunkReader::ChunkReader(std::string text)
    : source_(Source::kDecompressed), text_(std::move(text)) {}

ChunkReader::~ChunkReader() {
  if (owns_fd_) ::close(fd_);
}

bool ChunkReader::read_into(char* dst, std::size_t cap, std::size_t& got) {
  if (source_ == Source::kDecompressed) {
    got = std::min(cap, text_.size() - text_off_);
    if (got == 0) {
      std::string().swap(text_);
      text_off_ = 0;
      return false;
    }
    std::memcpy(dst, text_.data() + text_off_, got);
    text_off_ += got;
    return true;
  }
  const ssize_t n = ::read(fd_, dst, cap);
  if (n < 0) {
    if (errno != EINTR) {
      throw std::runtime_error(std::string("read failed: ") +
                               std::strerror(errno));
    }
    got = 0;
    return true;
  }
  got = static_cast<std::size_t>(n);
  return n > 0;
}

bool ChunkReader::may_block() const {
  if (source_ != Source::kRead || !pollable_) return false;
  pollfd p{fd_, POLLIN, 0};
  return ::poll(&p, 1, 0) == 0;
}

}  // namespace wss::logio
