#include "net/framing.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

namespace wss::net {

char* FrameDecoder::write_window(std::size_t min_bytes) {
  if (min_bytes == 0) min_bytes = 1;
  if (room() < min_bytes) {
    // Compact the carry (a partial frame straddling the last read) to
    // the front. This is the only copy a straddling frame ever pays.
    if (head_ > 0) {
      std::memmove(buf_.get(), buf_.get() + head_, size_);
      head_ = 0;
    }
    if (size_ + min_bytes > cap_) {
      std::size_t ncap = cap_ != 0 ? cap_ : 4096;
      while (ncap < size_ + min_bytes) ncap <<= 1;
      // Growth that reaches the frame bound goes to the bound plus this
      // window and stops there.
      if (ncap >= max_frame_) {
        ncap = std::max(size_ + min_bytes, max_frame_ + min_bytes);
      }
      // realloc, not a new buffer and a copy: a large block is remapped
      // and a block at the heap's top is extended, so a line near the
      // bound is not held twice (a copy held 8 MiB and a 16 MiB buffer
      // for a line near logio::kMaxLine). The storage stays
      // uninitialised: only the pages reads write are ever touched.
      char* nbuf = static_cast<char*>(std::realloc(buf_.get(), ncap));
      if (nbuf == nullptr) throw std::bad_alloc();
      static_cast<void>(buf_.release());
      buf_.reset(nbuf);
      cap_ = ncap;
    }
  }
  return buf_.get() + head_ + size_;
}

void FrameDecoder::feed(std::string_view bytes) {
  if (bytes.empty()) return;
  char* dst = write_window(bytes.size());
  std::memcpy(dst, bytes.data(), bytes.size());
  commit(bytes.size());
}

bool FrameDecoder::next_view(std::string_view& frame) {
  if (error_) return false;
  if (mode_ == Framing::kNewline) {
    return !for_each_frame([&frame](std::string_view line) {
      frame = line;
      return false;
    });
  }

  // kLenPrefix: 4-byte big-endian header, contiguous in the linear
  // buffer.
  if (size_ < 4) return false;
  const auto* h = reinterpret_cast<const unsigned char*>(head());
  const std::uint32_t len = (static_cast<std::uint32_t>(h[0]) << 24) |
                            (static_cast<std::uint32_t>(h[1]) << 16) |
                            (static_cast<std::uint32_t>(h[2]) << 8) |
                            static_cast<std::uint32_t>(h[3]);
  if (len > max_frame_) {
    // The announced frame cannot be honored and skipping it wholesale
    // would still mean buffering `len` bytes we refuse to hold; the
    // stream position is unrecoverable.
    ++oversized_;
    error_ = true;
    clear_bytes();
    return false;
  }
  if (size_ - 4 < len) return false;
  frame = std::string_view(head() + 4, len);
  consume(4 + len);
  return true;
}

bool FrameDecoder::next(std::string& frame) {
  std::string_view v;
  if (!next_view(v)) return false;
  frame.assign(v.data(), v.size());
  return true;
}

std::string FrameDecoder::take_rest() {
  std::string rest;
  if (size_ > 0) rest.assign(head(), size_);
  clear_bytes();
  discarding_ = false;
  return rest;
}

bool FrameDecoder::finish_view(std::string_view& frame) {
  if (mode_ != Framing::kNewline || error_) return false;
  if (discarding_) {
    discarding_ = false;
    clear_bytes();
    return false;
  }
  if (size_ == 0) return false;
  std::size_t len = size_;
  if (len > max_frame_) {
    ++oversized_;
    clear_bytes();
    return false;
  }
  if (head()[len - 1] == '\r') --len;
  frame = std::string_view(head(), len);
  // Index reset, not a memory write: the returned view stays valid
  // until the next write_window()/feed().
  clear_bytes();
  return true;
}

bool FrameDecoder::finish(std::string& frame) {
  std::string_view v;
  if (!finish_view(v)) return false;
  frame.assign(v.data(), v.size());
  return true;
}

}  // namespace wss::net
