#include "compress/codec.hpp"

#include <cstdint>
#include <stdexcept>

#include "compress/huffman.hpp"
#include "compress/lzss.hpp"

namespace wss::compress {

namespace {
constexpr std::string_view kMagic = "WSC1";
/// Magic plus the u64 raw size.
constexpr std::size_t kHeaderSize = kMagic.size() + 8;
}  // namespace

std::string compress(std::string_view input) {
  std::string out(kMagic);
  const std::uint64_t n = input.size();
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<char>((n >> (8 * b)) & 0xff));
  }
  out.append(huffman_encode(lzss_compress(input)));
  return out;
}

std::string decompress(std::string_view compressed) {
  if (compressed.size() < kHeaderSize ||
      compressed.substr(0, kMagic.size()) != kMagic) {
    throw std::runtime_error("codec: bad magic");
  }
  std::uint64_t n = 0;
  for (int b = 0; b < 8; ++b) {
    n |= static_cast<std::uint64_t>(static_cast<unsigned char>(
             compressed[kMagic.size() + static_cast<std::size_t>(b)]))
         << (8 * b);
  }
  std::string out =
      lzss_decompress(huffman_decode(compressed.substr(kHeaderSize)));
  if (out.size() != n) {
    throw std::runtime_error("codec: size mismatch after decompression");
  }
  return out;
}

std::uint64_t compressed_size(std::string_view input) {
  return kHeaderSize + huffman_encoded_size(lzss_token_histogram(input));
}

double compression_fraction(std::string_view input) {
  if (input.empty()) return 1.0;
  return static_cast<double>(compressed_size(input)) /
         static_cast<double>(input.size());
}

}  // namespace wss::compress
