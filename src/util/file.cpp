#include "util/file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace wss::util {

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  if (is.bad()) throw std::runtime_error("read failed: " + path);
  return std::move(ss).str();
}

namespace {

/// Writes all of `bytes` to `fd`, retrying short and interrupted writes.
bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Makes the rename of an entry in `dir` durable. Returns 0 or the
/// failure's errno; a filesystem that cannot fsync a directory
/// (EINVAL) counts as done.
int fsync_dir(const char* dir) {
  const int fd = ::open(dir, O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return errno;
  const int err = ::fsync(fd) == 0 ? 0 : errno;
  ::close(fd);
  return err == EINVAL ? 0 : err;
}

}  // namespace

void publish_file(const std::string& path, std::string_view bytes) {
  static std::atomic<unsigned long long> next{0};
  char host[256] = {};
  ::gethostname(host, sizeof host - 1);
  const std::string tmp = format("%s.%s.p%d.%llu.tmp", path.c_str(), host,
                                 static_cast<int>(::getpid()), next++);
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) throw std::runtime_error("cannot open " + tmp);
  // The bytes reach the disk before the rename makes them visible, so
  // a power cut leaves the old file or the whole new one.
  const bool written = write_all(fd, bytes) && ::fsync(fd) == 0;
  if (::close(fd) != 0 || !written) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot publish " + path + ": " +
                             std::strerror(err));
  }
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (const int err = fsync_dir(dir.empty() ? "." : dir.c_str()); err != 0) {
    throw std::runtime_error("cannot publish " + path + ": " +
                             std::strerror(err));
  }
}

}  // namespace wss::util
