// LZSS dictionary compression.
//
// Table 2 of the paper reports gzip-compressed log sizes; the striking
// feature is the spread (Thunderbird ~4.8x vs Liberty ~36.7x), which
// reflects how repetitive each system's log is. We reproduce that
// column with our own dictionary coder: LZSS with a hash-chain match
// finder over a 64 KiB window, followed by an order-0 Huffman stage
// (huffman.hpp) -- the same two ideas DEFLATE combines.
//
// Token stream format (before the Huffman stage):
//   groups of 8 items, preceded by one flag byte (LSB first);
//   flag bit 0 -> literal: 1 byte
//   flag bit 1 -> match:   2-byte little-endian offset (1-based distance),
//                          1 byte (length - kMinMatch)
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace wss::compress {

inline constexpr std::size_t kWindowSize = 1u << 16;
inline constexpr std::size_t kMinMatch = 4;
inline constexpr std::size_t kMaxMatch = 258;

/// Compresses `input` into the LZSS token stream. Throws
/// std::length_error past 2 GiB (match positions are 32-bit).
std::string lzss_compress(std::string_view input);

/// The byte frequencies of lzss_compress(input), indexed by byte value:
/// the same match finder, tallying the stream instead of building it.
std::array<std::uint64_t, 256> lzss_token_histogram(std::string_view input);

/// Decompresses an LZSS token stream. Throws std::runtime_error on a
/// malformed stream (bad offset, truncation).
std::string lzss_decompress(std::string_view tokens);

}  // namespace wss::compress
