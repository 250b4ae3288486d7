#include "util/file.hpp"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
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

void publish_file(const std::string& path, std::string_view bytes) {
  static std::atomic<unsigned long long> next{0};
  char host[256] = {};
  ::gethostname(host, sizeof host - 1);
  const std::string tmp = format("%s.%s.p%d.%llu.tmp", path.c_str(), host,
                                 static_cast<int>(::getpid()), next++);
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("cannot open " + tmp);
    if (!os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()))
             .flush()) {
      std::remove(tmp.c_str());
      throw std::runtime_error("write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot publish " + path + ": " +
                             std::strerror(err));
  }
}

}  // namespace wss::util
