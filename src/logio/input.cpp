#include "logio/input.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
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

std::string drain_fd(int fd) {
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return out;
    if (errno == EINTR) continue;
    throw std::runtime_error(std::string("read failed: ") +
                             std::strerror(errno));
  }
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

InputBuffer InputBuffer::from_fd(int fd) {
  return from_string(drain_fd(fd));
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

}  // namespace wss::logio
