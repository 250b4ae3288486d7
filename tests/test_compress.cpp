// Codec tests: LZSS, Huffman, combined round-trips, and the
// compressibility ordering that Table 2 relies on.
#include <gtest/gtest.h>

#include <algorithm>

#include "compress/codec.hpp"
#include "compress/huffman.hpp"
#include "compress/lzss.hpp"
#include "sim/generator.hpp"
#include "util/rng.hpp"

namespace wss::compress {
namespace {

std::string roundtrip_lzss(std::string_view s) {
  return lzss_decompress(lzss_compress(s));
}

TEST(Lzss, RoundTripBasics) {
  EXPECT_EQ(roundtrip_lzss(""), "");
  EXPECT_EQ(roundtrip_lzss("a"), "a");
  EXPECT_EQ(roundtrip_lzss("abcabcabcabcabc"), "abcabcabcabcabc");
  EXPECT_EQ(roundtrip_lzss(std::string(10000, 'x')), std::string(10000, 'x'));
}

TEST(Lzss, CompressesRepetition) {
  std::string log;
  for (int i = 0; i < 500; ++i) {
    log += "kernel: cciss: cmd 42 has CHECK CONDITION, sense key = 0x3\n";
  }
  const std::string packed = lzss_compress(log);
  EXPECT_LT(packed.size(), log.size() / 5);
  EXPECT_EQ(lzss_decompress(packed), log);
}

TEST(Lzss, OverlappingMatches) {
  // "aaaa..." forces overlapping copies (dist 1, long len).
  const std::string s(1000, 'a');
  EXPECT_EQ(roundtrip_lzss(s), s);
  // Period-3 overlap.
  std::string p;
  for (int i = 0; i < 999; ++i) p.push_back("xyz"[i % 3]);
  EXPECT_EQ(roundtrip_lzss(p), p);
}

TEST(Lzss, MalformedStreamThrows) {
  // A match token pointing before the start of output.
  std::string bad;
  bad.push_back('\x01');  // flags: first item is a match
  bad.push_back('\x10');  // dist lo
  bad.push_back('\x00');  // dist hi
  bad.push_back('\x00');  // len
  EXPECT_THROW(lzss_decompress(bad), std::runtime_error);
  // Truncated match token.
  std::string trunc;
  trunc.push_back('\x01');
  trunc.push_back('\x01');
  EXPECT_THROW(lzss_decompress(trunc), std::runtime_error);
}

TEST(Lzss, MatchAtExactWindowDistanceRegression) {
  // A match candidate at distance exactly 65536 must be rejected: the
  // token encodes distances in 16 bits, so 65536 would wrap to 0.
  util::Rng rng(77);
  const std::string block = "UNIQUE-MARKER-BLOCK-0123456789";
  std::string s = block;
  while (s.size() < kWindowSize) {
    s.push_back(static_cast<char>('a' + rng.uniform_u64(26)));
  }
  s.resize(kWindowSize);
  s += block;  // second copy at distance exactly kWindowSize
  EXPECT_EQ(roundtrip_lzss(s), s);
}

TEST(Lzss, MultiWindowCorpusRoundTrip) {
  // > 3 windows of semi-repetitive log-like text exercises hash-chain
  // aliasing across window wraps.
  util::Rng rng(78);
  std::string s;
  while (s.size() < 3 * kWindowSize + 12345) {
    s += "Feb 28 01:02:03 sn";
    s += std::to_string(rng.uniform_u64(520));
    s += " kernel: cciss: cmd ";
    s += std::to_string(rng());
    s += " has CHECK CONDITION, sense key = 0x3\n";
  }
  EXPECT_EQ(roundtrip_lzss(s), s);
}

/// The byte-at-a-time match finder lzss_compress started from, kept
/// as the oracle its token stream must equal byte for byte.
std::string reference_lzss_compress(std::string_view input) {
  constexpr std::size_t kHashBits = 15;
  constexpr std::size_t kMaxChainLength = 64;
  const auto hash4 = [](const unsigned char* p) {
    const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                            (static_cast<std::uint32_t>(p[1]) << 8) |
                            (static_cast<std::uint32_t>(p[2]) << 16) |
                            (static_cast<std::uint32_t>(p[3]) << 24);
    return (v * 2654435761u) >> (32 - kHashBits);
  };
  const auto* data = reinterpret_cast<const unsigned char*>(input.data());
  const std::size_t n = input.size();
  std::vector<std::int64_t> head(std::size_t{1} << kHashBits, -1);
  std::vector<std::int64_t> prev(kWindowSize, -1);
  std::string out;
  std::size_t flag_pos = 0;
  int items_in_group = 8;
  unsigned char flags = 0;
  const auto begin_item = [&](bool is_match) {
    if (items_in_group == 8) {
      flag_pos = out.size();
      out.push_back('\0');
      flags = 0;
      items_in_group = 0;
    }
    if (is_match) flags |= static_cast<unsigned char>(1u << items_in_group);
    out[flag_pos] = static_cast<char>(flags);
    ++items_in_group;
  };
  const auto insert_pos = [&](std::size_t i) {
    if (i + kMinMatch > n) return;
    const std::uint32_t h = hash4(data + i);
    prev[i % kWindowSize] = head[h];
    head[h] = static_cast<std::int64_t>(i);
  };
  std::size_t i = 0;
  while (i < n) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (i + kMinMatch <= n) {
      std::int64_t cand = head[hash4(data + i)];
      const std::size_t limit = std::min(kMaxMatch, n - i);
      std::size_t chain = 0;
      while (cand >= 0 && chain < kMaxChainLength) {
        const auto c = static_cast<std::size_t>(cand);
        if (i - c >= kWindowSize) break;
        std::size_t len = 0;
        while (len < limit && data[c + len] == data[i + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = i - c;
          if (len == limit) break;
        }
        const std::int64_t next = prev[c % kWindowSize];
        if (next >= cand) break;
        cand = next;
        ++chain;
      }
    }
    if (best_len >= kMinMatch) {
      begin_item(true);
      out.push_back(static_cast<char>(best_dist & 0xff));
      out.push_back(static_cast<char>((best_dist >> 8) & 0xff));
      out.push_back(static_cast<char>(best_len - kMinMatch));
      for (std::size_t k = 0; k < best_len; ++k) insert_pos(i + k);
      i += best_len;
    } else {
      begin_item(false);
      out.push_back(static_cast<char>(data[i]));
      insert_pos(i);
      ++i;
    }
  }
  return out;
}

TEST(Lzss, TokenStreamEqualsByteLoopOracle) {
  util::Rng rng(79);
  std::vector<std::string> inputs = {"", "a", "abcd", "abcabcabcabcabc",
                                     std::string(10000, 'x')};
  // Random bytes over small and full alphabets: short, frequent
  // matches of every length near the 8-byte compare width.
  for (const std::uint64_t alphabet : {2u, 4u, 256u}) {
    std::string s;
    for (int k = 0; k < 70000; ++k) {
      s.push_back(static_cast<char>(rng.uniform_u64(alphabet)));
    }
    inputs.push_back(s);
  }
  // Repetitive: a period of every length 1..40 and runs past kMaxMatch.
  std::string rep;
  for (std::size_t period = 1; period <= 40; ++period) {
    for (std::size_t k = 0; k < 600; ++k) {
      rep.push_back(static_cast<char>('a' + (k % period) % 26));
    }
  }
  inputs.push_back(rep);
  // Generated logs, as Table 2's compression sample sees them.
  sim::SimOptions opts;
  opts.category_cap = 100;
  opts.chatter_events = 3000;
  opts.inject_corruption = true;
  for (const parse::SystemId id :
       {parse::SystemId::kBlueGeneL, parse::SystemId::kLiberty}) {
    const sim::Simulator simulator(id, opts);
    std::string log;
    for (std::size_t k = 0; k < simulator.events().size(); ++k) {
      log += simulator.line(k);
      log += '\n';
    }
    inputs.push_back(log);
  }
  for (const std::string& in : inputs) {
    const std::string got = lzss_compress(in);
    ASSERT_EQ(got, reference_lzss_compress(in)) << in.size() << " bytes";
    EXPECT_EQ(lzss_decompress(got), in);
  }
}

TEST(Huffman, RoundTripBasics) {
  const std::string cases[] = {
      "", "a", "aaaaaaaa", "abracadabra",
      std::string("\x00\x01\x02\xff\xfe", 5),
  };
  for (const auto& s : cases) {
    EXPECT_EQ(huffman_decode(huffman_encode(s)), s) << s.size();
  }
}

TEST(Huffman, SkewedDistributionCompresses) {
  util::Rng rng(1);
  std::string s;
  for (int i = 0; i < 20000; ++i) {
    s.push_back(rng.bernoulli(0.95) ? 'e' : static_cast<char>(
                                                'a' + rng.uniform_u64(26)));
  }
  const std::string enc = huffman_encode(s);
  EXPECT_LT(enc.size(), s.size() / 2);
  EXPECT_EQ(huffman_decode(enc), s);
}

TEST(Huffman, IncompressibleFallsBackToRaw) {
  util::Rng rng(2);
  std::string s;
  for (int i = 0; i < 1000; ++i) s.push_back(static_cast<char>(rng()));
  const std::string enc = huffman_encode(s);
  EXPECT_LE(enc.size(), s.size() + 1);  // raw marker only
  EXPECT_EQ(huffman_decode(enc), s);
}

TEST(Huffman, MalformedThrows) {
  EXPECT_THROW(huffman_decode(""), std::runtime_error);
  EXPECT_THROW(huffman_decode("\x07junk"), std::runtime_error);
  std::string short_header;
  short_header.push_back('\x01');
  short_header.append(100, '\x00');
  EXPECT_THROW(huffman_decode(short_header), std::runtime_error);
}

TEST(Codec, RoundTripRandomCorpora) {
  util::Rng rng(3);
  for (int iter = 0; iter < 30; ++iter) {
    std::string s;
    const auto n = rng.uniform_u64(5000);
    for (std::uint64_t i = 0; i < n; ++i) {
      // Mixture of random and repeated content.
      if (rng.bernoulli(0.3)) {
        s.append("repeated phrase ");
      } else {
        s.push_back(static_cast<char>('a' + rng.uniform_u64(26)));
      }
    }
    EXPECT_EQ(decompress(compress(s)), s);
  }
}

TEST(Codec, MalformedContainerThrows) {
  EXPECT_THROW(decompress("nope"), std::runtime_error);
  EXPECT_THROW(decompress("WSC1\x05\x00\x00\x00\x00\x00\x00\x00"),
               std::runtime_error);
}

TEST(Codec, StormLogsCompressBetterThanDiverseLogs) {
  // The Table 2 phenomenon: Spirit/Liberty (storm-repetitive) compress
  // far better than Thunderbird (diverse).
  util::Rng rng(4);
  std::string storm;
  for (int i = 0; i < 2000; ++i) {
    storm += "Feb 28 01:02:03 sn373 kernel: cciss: cmd 77 has CHECK "
             "CONDITION, sense key = 0x3\n";
  }
  std::string diverse;
  for (int i = 0; i < 2000; ++i) {
    diverse += "Nov 10 0";
    for (int k = 0; k < 60; ++k) {
      diverse.push_back(static_cast<char>('!' + rng.uniform_u64(90)));
    }
    diverse.push_back('\n');
  }
  EXPECT_LT(compression_fraction(storm), compression_fraction(diverse) / 4);
}

/// The first `lines` lines of a generated `system` log, each ending in
/// '\n', as the Table 2 sample holds them.
std::string generated_log(parse::SystemId system, std::uint64_t seed,
                          std::size_t lines) {
  sim::SimOptions opts;
  opts.seed = seed;
  opts.category_cap = 3000;
  opts.chatter_events = 30000;
  const sim::Simulator simulator(system, opts);
  std::string log;
  for (std::size_t k = 0; k < std::min(lines, simulator.events().size());
       ++k) {
    log += simulator.line(k);
    log += '\n';
  }
  return log;
}

/// The size-only path must equal the bytes compress() builds, and the
/// fraction must be the one those bytes give.
void expect_size_matches_bytes(std::string_view in) {
  const std::string packed = compress(in);
  EXPECT_EQ(compressed_size(in), packed.size()) << in.size() << " bytes";
  if (!in.empty()) {
    EXPECT_EQ(compression_fraction(in),
              static_cast<double>(packed.size()) /
                  static_cast<double>(in.size()))
        << in.size() << " bytes";
  }
}

TEST(Codec, CompressedSizeEqualsCompressOnGeneratedLogs) {
  for (const parse::SystemId system : parse::kAllSystems) {
    for (const std::uint64_t seed : {1u, 7u, 42u}) {
      const std::string log = generated_log(system, seed, 20000);
      ASSERT_GT(std::count(log.begin(), log.end(), '\n'), 19999)
          << parse::system_name(system);
      for (const std::size_t lines : {0u, 1u, 7u, 500u, 20000u}) {
        SCOPED_TRACE(testing::Message()
                     << parse::system_name(system) << " seed " << seed
                     << ", " << lines << " lines");
        std::size_t cut = 0;
        for (std::size_t k = 0; k < lines; ++k) {
          cut = log.find('\n', cut) + 1;
        }
        expect_size_matches_bytes(std::string_view(log).substr(0, cut));
      }
    }
  }
}

TEST(Codec, CompressedSizeEqualsCompressOnEdgeInputs) {
  // Random bytes take the Huffman stage's raw fallback (a longer run
  // would not: the all-literal flag bytes are one repeated symbol).
  util::Rng rng(5);
  std::string random;
  for (int k = 0; k < 200; ++k) random.push_back(static_cast<char>(rng()));
  // Byte 12, after the container header, is the Huffman form marker.
  ASSERT_EQ(compress(random)[12], '\0') << "expected the raw form";
  // Empty; one byte; one zero byte, whose token stream (flag 0, then
  // literal 0) is a single symbol; a single-symbol input; a short
  // period; random bytes.
  for (const std::string& in :
       {std::string(), std::string("a"), std::string(1, '\0'),
        std::string(5000, 'z'), std::string("abcabcabcabcabc"), random}) {
    expect_size_matches_bytes(in);
  }
}

TEST(Codec, EmptyInput) {
  EXPECT_EQ(decompress(compress("")), "");
  EXPECT_DOUBLE_EQ(compression_fraction(""), 1.0);
}

}  // namespace
}  // namespace wss::compress
