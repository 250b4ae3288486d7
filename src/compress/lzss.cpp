#include "compress/lzss.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace wss::compress {

namespace {

constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;
constexpr std::size_t kMaxChainLength = 64;

std::uint32_t hash4(const unsigned char* p) {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16) |
                          (static_cast<std::uint32_t>(p[3]) << 24);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Length of the common prefix of `a` and `b`, at most `limit`: eight
/// bytes per compare, the first differing byte found by XOR + ctz.
std::size_t match_length(const unsigned char* a, const unsigned char* b,
                         std::size_t limit) {
  std::size_t len = 0;
  for (; len + 8 <= limit; len += 8) {
    std::uint64_t x;
    std::uint64_t y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    if (const std::uint64_t diff = x ^ y; diff != 0) {
      if constexpr (std::endian::native == std::endian::little) {
        return len + static_cast<std::size_t>(std::countr_zero(diff) >> 3);
      } else {
        return len + static_cast<std::size_t>(std::countl_zero(diff) >> 3);
      }
    }
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

/// The match finder: walks `input` greedily and hands each item to
/// `sink` as literal(byte) or match(distance, length). Both the token
/// writer and the token tally run this one body, so the stream they
/// see is the same by construction.
template <class Sink>
void find_items(std::string_view input, Sink& sink) {
  const auto* data = reinterpret_cast<const unsigned char*>(input.data());
  const std::size_t n = input.size();
  // Positions are stored in 32 bits (the tables are 384 KB, not 768).
  if (n > static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
    throw std::length_error("lzss: input over 2 GiB");
  }

  // head[h]: most recent position with hash h; prev[i % window]: chain.
  std::vector<std::int32_t> head(kHashSize, -1);
  std::vector<std::int32_t> prev(kWindowSize, -1);

  const auto insert_pos = [&](std::size_t i) {
    if (i + kMinMatch > n) return;
    const std::uint32_t h = hash4(data + i);
    prev[i % kWindowSize] = head[h];
    head[h] = static_cast<std::int32_t>(i);
  };

  std::size_t i = 0;
  while (i < n) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (i + kMinMatch <= n) {
      const std::uint32_t h = hash4(data + i);
      std::int32_t cand = head[h];
      const std::size_t limit = std::min(kMaxMatch, n - i);
      std::size_t chain = 0;
      while (cand >= 0 && chain < kMaxChainLength) {
        const auto c = static_cast<std::size_t>(cand);
        // Distances are encoded in 16 bits, so the largest usable
        // distance is kWindowSize - 1 (65536 would wrap to 0).
        if (i - c >= kWindowSize) break;
        // Only a candidate that also matches at best_len can beat the
        // best so far (best_len < limit here, so both bytes exist).
        if (data[c + best_len] == data[i + best_len]) {
          const std::size_t len = match_length(data + c, data + i, limit);
          if (len > best_len) {
            best_len = len;
            best_dist = i - c;
            if (len == limit) break;
          }
        }
        const std::int32_t next = prev[c % kWindowSize];
        if (next >= cand) break;  // chain entry overwritten; stop
        cand = next;
        ++chain;
      }
    }

    if (best_len >= kMinMatch) {
      sink.match(best_dist, best_len);
      for (std::size_t k = 0; k < best_len; ++k) insert_pos(i + k);
      i += best_len;
    } else {
      sink.literal(data[i]);
      insert_pos(i);
      ++i;
    }
  }
}

/// Writes the token stream (format in lzss.hpp).
class TokenWriter {
 public:
  explicit TokenWriter(std::size_t n) { out_.reserve(n / 2 + 16); }

  void literal(unsigned char c) {
    begin_item(/*is_match=*/false);
    out_.push_back(static_cast<char>(c));
  }

  void match(std::size_t dist, std::size_t len) {
    begin_item(/*is_match=*/true);
    out_.push_back(static_cast<char>(dist & 0xff));
    out_.push_back(static_cast<char>((dist >> 8) & 0xff));
    out_.push_back(static_cast<char>(len - kMinMatch));
  }

  std::string take() { return std::move(out_); }

 private:
  void begin_item(bool is_match) {
    if (items_in_group_ == 8) {
      flag_pos_ = out_.size();
      out_.push_back('\0');
      flags_ = 0;
      items_in_group_ = 0;
    }
    if (is_match) flags_ |= static_cast<unsigned char>(1u << items_in_group_);
    out_[flag_pos_] = static_cast<char>(flags_);
    ++items_in_group_;
  }

  std::string out_;
  std::size_t flag_pos_ = 0;  // index of the current flag byte in out_
  int items_in_group_ = 8;    // forces a new flag byte on first item
  unsigned char flags_ = 0;
};

/// Tallies the bytes TokenWriter would write, by value. A flag byte is
/// counted once its value is final: when its group of 8 closes, or at
/// the end.
class TokenTally {
 public:
  void literal(unsigned char c) {
    count(c);
    end_item(/*is_match=*/false);
  }

  void match(std::size_t dist, std::size_t len) {
    count(static_cast<unsigned char>(dist & 0xff));
    count(static_cast<unsigned char>((dist >> 8) & 0xff));
    count(static_cast<unsigned char>(len - kMinMatch));
    end_item(/*is_match=*/true);
  }

  std::array<std::uint64_t, 256> finish() {
    if (items_in_group_ > 0) count(flags_);
    return freq_;
  }

 private:
  void count(unsigned char b) { ++freq_[b]; }

  void end_item(bool is_match) {
    if (is_match) flags_ |= static_cast<unsigned char>(1u << items_in_group_);
    if (++items_in_group_ == 8) {
      count(flags_);
      flags_ = 0;
      items_in_group_ = 0;
    }
  }

  std::array<std::uint64_t, 256> freq_{};
  int items_in_group_ = 0;
  unsigned char flags_ = 0;
};

}  // namespace

std::string lzss_compress(std::string_view input) {
  TokenWriter writer(input.size());
  find_items(input, writer);
  return writer.take();
}

std::array<std::uint64_t, 256> lzss_token_histogram(std::string_view input) {
  TokenTally tally;
  find_items(input, tally);
  return tally.finish();
}

std::string lzss_decompress(std::string_view tokens) {
  std::string out;
  std::size_t i = 0;
  while (i < tokens.size()) {
    const auto flags = static_cast<unsigned char>(tokens[i++]);
    for (int bit = 0; bit < 8 && i < tokens.size(); ++bit) {
      if (flags & (1u << bit)) {
        if (i + 3 > tokens.size()) {
          throw std::runtime_error("lzss: truncated match token");
        }
        const std::size_t dist =
            static_cast<unsigned char>(tokens[i]) |
            (static_cast<std::size_t>(static_cast<unsigned char>(tokens[i + 1]))
             << 8);
        const std::size_t len =
            static_cast<unsigned char>(tokens[i + 2]) + kMinMatch;
        i += 3;
        if (dist == 0 || dist > out.size()) {
          throw std::runtime_error("lzss: bad match offset");
        }
        const std::size_t start = out.size() - dist;
        for (std::size_t k = 0; k < len; ++k) {
          out.push_back(out[start + k]);  // may overlap; copy byte-wise
        }
      } else {
        out.push_back(tokens[i++]);
      }
    }
  }
  return out;
}

}  // namespace wss::compress
