// The combined wss codec: LZSS dictionary stage + Huffman entropy
// stage, with a small container header. This is the compressor used
// to regenerate Table 2's "Compressed" column.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace wss::compress {

/// Container format: "WSC1" magic, u64 LE raw size, then
/// huffman_encode(lzss_compress(input)).
std::string compress(std::string_view input);

/// Inverse of compress(). Throws std::runtime_error on malformed data.
std::string decompress(std::string_view compressed);

/// compress(input).size(), computed without building any bytes: the
/// LZSS stage only tallies its token bytes, and the Huffman stage's
/// size follows from their code lengths.
std::uint64_t compressed_size(std::string_view input);

/// compressed_size / raw_size for `input` (1.0 for empty
/// input). The paper's Table 2 reports the inverse convention
/// (compressed GB next to raw GB); report_ratio keeps that shape.
double compression_fraction(std::string_view input);

}  // namespace wss::compress
