// Order-0 canonical Huffman coding over bytes.
//
// Second stage of the wss codec (see lzss.hpp). The encoded stream is:
//   [u8 max_code_len == 0 ? raw marker : 255 entries ...]
// Concretely:
//   byte 0: format marker (0 = raw passthrough, 1 = huffman)
//   raw:     the input bytes verbatim
//   huffman: 256 bytes of code lengths (canonical), u64 LE symbol
//            count, then the MSB-first bitstream.
// Raw passthrough is used when coding would expand the input (e.g.
// already-compressed or tiny inputs).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace wss::compress {

/// Maximum canonical code length; lengths are rebalanced to fit.
inline constexpr int kMaxCodeLen = 15;

/// Encodes `input`; never expands by more than the 1-byte marker plus,
/// in huffman mode, the fixed 265-byte header.
std::string huffman_encode(std::string_view input);

/// Byte counts of an input, indexed by byte value.
using ByteFrequencies = std::array<std::uint64_t, 256>;

/// huffman_encode(s).size() for any `s` with byte frequencies `freq`,
/// computed from the code lengths alone: the huffman form's size, or
/// the raw form's when that is not smaller -- the test huffman_encode
/// makes.
std::uint64_t huffman_encoded_size(const ByteFrequencies& freq);

/// Decodes; throws std::runtime_error on malformed input.
std::string huffman_decode(std::string_view encoded);

}  // namespace wss::compress
