// Vectorized line splitting over a contiguous buffer: a whole
// logio::InputBuffer (wss mine, the bench's split layer, the test
// oracles). Input read one read() at a time -- stream --in, anonymize,
// serve's sockets -- is cut by net::FrameDecoder instead, over the same
// find_byte kernel.
//
// Semantics are std::getline's, byte for byte: a line is everything
// up to (not including) '\n'; '\r' is NOT stripped (the decoder strips
// one, so on CRLF input the two differ by that byte); an unterminated
// non-empty tail is delivered last; a trailing '\n' produces no extra
// empty line. Embedded NUL bytes are data. The differential-fuzz suite
// (tests label `simd`) pins every level to the scalar twin on
// adversarial corpora, including >1 MiB lines, all-256 byte values,
// and lines straddling every alignment.
#pragma once

#include <string_view>

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

}  // namespace wss::simd
