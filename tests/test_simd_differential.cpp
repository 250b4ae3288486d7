// Differential fuzzing of the SIMD byte kernels: every vector level a
// machine supports must agree with the scalar twin BYTE FOR BYTE, on
// corpora built to break vector code specifically -- embedded NULs,
// CR/LF mixes, >1MiB lines, all 256 byte values, every alignment
// offset 0..63, and lines straddling chunk boundaries at every small
// chunk size. This suite is the correctness backstop for the goldens
// staying bit-identical under WSS_SIMD (DESIGN.md section 5h): if a
// kernel ever undermatches or misreports a position, it fails here
// before any golden can notice.
//
// Levels are forced with simd::set_level; each test restores the
// detected level on exit so ordering cannot leak between tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_counter.hpp"
#include "logio/input.hpp"
#include "match/literal_scanner.hpp"
#include "net/framing.hpp"
#include "simd/dispatch.hpp"
#include "simd/scan.hpp"
#include "simd/split.hpp"
#include "util/strings.hpp"

namespace wss::simd {
namespace {

class LevelGuard {
 public:
  ~LevelGuard() { set_level(detected_level()); }
};

/// Adversarial corpora. Each string is used both as a haystack and,
/// sliced at alignment offsets, as unaligned sub-haystacks.
std::vector<std::string> corpora() {
  std::vector<std::string> out;

  out.push_back("");
  out.push_back("\n");
  out.push_back("no newline at all");
  out.push_back("trailing\n");
  out.push_back("\n\n\n\n");
  out.push_back("a\r\nb\rc\nd\n\r\n");
  out.push_back(std::string("embedded\0nul\nand\0more\n", 22));

  // All 256 byte values, forwards and repeated past one vector block.
  std::string all256;
  for (int i = 0; i < 256; ++i) all256.push_back(static_cast<char>(i));
  out.push_back(all256);
  out.push_back(all256 + all256 + all256);

  // A >1MiB single line, newline only at the very end.
  std::string huge(1 << 21, 'x');
  huge[huge.size() / 2] = ' ';  // one field boundary deep inside
  huge.push_back('\n');
  out.push_back(huge);

  // Dense newlines around block boundaries: '\n' at every position
  // mod 15, 16, 17, 31, 32, 33 to straddle 16B and 32B lanes.
  for (const int stride : {15, 16, 17, 31, 32, 33}) {
    std::string s(4096, 'q');
    for (std::size_t i = static_cast<std::size_t>(stride); i < s.size();
         i += static_cast<std::size_t>(stride)) {
      s[i] = '\n';
    }
    out.push_back(s);
  }

  // Deterministic random soup: printable + whitespace + NUL + high
  // bytes, the mix log corruption actually produces.
  std::mt19937 rng(0x5EED);
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyz 0123456789\t\r\n\f\v:._-[]";
  std::string soup;
  for (int i = 0; i < 100000; ++i) {
    const auto roll = rng();
    if (roll % 97 == 0) {
      soup.push_back(static_cast<char>(roll >> 8));  // any byte value
    } else {
      soup.push_back(alphabet[roll % alphabet.size()]);
    }
  }
  out.push_back(soup);
  return out;
}

std::vector<Level> vector_levels() {
  std::vector<Level> out;
  for (const Level l : supported_levels()) {
    if (l != Level::kScalar) out.push_back(l);
  }
  return out;
}

TEST(SimdDispatch, DetectionAndForcing) {
  const LevelGuard guard;
  EXPECT_TRUE(level_supported(Level::kScalar));
  EXPECT_TRUE(level_supported(detected_level()));
  for (const Level l : supported_levels()) {
    EXPECT_TRUE(set_level(l));
    EXPECT_EQ(active_level(), l);
  }
  EXPECT_EQ(parse_level("AVX2"), Level::kAvx2);
  EXPECT_EQ(parse_level("scalar"), Level::kScalar);
  EXPECT_FALSE(parse_level("avx512").has_value());
}

// find_byte: every level, every corpus, every alignment offset 0..63,
// every occurrence (not just the first -- walk the haystack).
TEST(SimdDifferential, FindByteAllLevelsAllAlignments) {
  const LevelGuard guard;
  const auto levels = vector_levels();
  for (const std::string& corpus : corpora()) {
    // Large corpora test long-scan correctness; the full 0..63
    // alignment sweep rides the small ones.
    const std::size_t max_off = corpus.size() > 65536 ? 4 : 64;
    for (std::size_t off = 0; off < max_off && off <= corpus.size(); ++off) {
      const char* begin = corpus.data() + off;
      const char* const end = corpus.data() + corpus.size();
      for (const unsigned char needle :
           {static_cast<unsigned char>('\n'), static_cast<unsigned char>('\0'),
            static_cast<unsigned char>(' '),
            static_cast<unsigned char>(0xff)}) {
        const char* ps = begin;
        // Walk occurrences with the scalar twin as the reference
        // (capped: dense corpora would otherwise make this quadratic).
        for (int walked = 0; walked < 256; ++walked) {
          const char* ref = find_byte(Level::kScalar, ps, end, needle);
          for (const Level l : levels) {
            ASSERT_EQ(find_byte(l, ps, end, needle), ref)
                << level_name(l) << " off=" << off << " needle="
                << static_cast<int>(needle);
          }
          if (ref == end) break;
          ps = ref + 1;
        }
      }
    }
  }
}

// The one-byte literal nibble tables: a byte added to the set must
// always be flagged by the approximation (overmatch allowed, under-
// match never). Checked over all 256 byte values.
TEST(SimdDifferential, NibbleApproximationNeverUndermatches) {
  PairTables t;
  const std::string members = "az09 \t\xff\x80\x7f";
  for (const char c : members) {
    pair_tables_add_single(t, static_cast<unsigned char>(c));
  }
  EXPECT_FALSE(t.single.empty);
  for (int b = 0; b < 256; ++b) {
    const auto ub = static_cast<unsigned char>(b);
    const bool approx = (t.single.lo[ub & 0xf] & t.single.hi[ub >> 4]) != 0;
    if (members.find(static_cast<char>(ub)) != std::string::npos) {
      EXPECT_TRUE(approx) << "byte " << b << " undermatched";
    }
  }
}

// pair_find: the vectorized Aho-Corasick root skip must stop at
// exactly the position the scalar twin stops at -- the bucketed
// nibble approximation may overmatch internally, but the exact-bitmap
// re-check makes the returned position identical. Walked across all
// hits at every level, every corpus, several alignments.
TEST(SimdDifferential, PairFindMatchesScalarAtEveryLevel) {
  const LevelGuard guard;
  PairTables t;
  pair_tables_add_pair(t, 'e', 'c');
  pair_tables_add_pair(t, 'f', 'a');
  pair_tables_add_single(t, '!');
  // The exact bitmap, built the way LiteralScanner builds it: pair
  // prefixes get one bit, one-byte literals a full 256-wide row.
  std::vector<std::uint64_t> bitmap(1024, 0);
  const auto add_pair = [&](unsigned char a, unsigned char b) {
    const std::uint32_t idx = (static_cast<std::uint32_t>(a) << 8) | b;
    bitmap[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  };
  add_pair('e', 'c');
  add_pair('f', 'a');
  for (std::uint32_t b1 = 0; b1 < 256; ++b1) {
    add_pair('!', static_cast<unsigned char>(b1));
  }

  for (const std::string& corpus : corpora()) {
    const std::size_t max_off = corpus.size() > 65536 ? 4 : 64;
    for (std::size_t off = 0; off < max_off && off <= corpus.size(); ++off) {
      const char* ps = corpus.data() + off;
      const char* const end = corpus.data() + corpus.size();
      for (int walked = 0; walked < 256; ++walked) {
        const char* ref =
            pair_find(Level::kScalar, ps, end, t, bitmap.data());
        for (const Level l : vector_levels()) {
          ASSERT_EQ(pair_find(l, ps, end, t, bitmap.data()), ref)
              << level_name(l);
        }
        if (ref == end || ref + 1 == end) break;
        ps = ref + 1;
      }
    }
  }
}

// The 16-31 byte band (and 17-32 for pair_find, whose kernels need one
// byte of lookahead) is where the avx2 dispatcher hands off to the
// sse2 twin instead of letting the avx2 kernel fail its own 32-byte
// guard and hop. Token lengths in real log fields live exactly here,
// so this band gets its own exhaustive sweep: every length across the
// handoff boundaries, every alignment offset 0..15, needle at every
// position plus absent, at every supported level.
TEST(SimdDifferential, ShortRangeBandMatchesScalarAtEveryLevel) {
  const LevelGuard guard;
  const auto levels = vector_levels();
  PairTables t;
  pair_tables_add_pair(t, 'K', 'E');
  std::vector<std::uint64_t> bitmap(1024, 0);
  const std::uint32_t idx = (std::uint32_t{'K'} << 8) | 'E';
  bitmap[idx >> 6] |= std::uint64_t{1} << (idx & 63);

  // Backing buffer padded so every (offset, len) slice is in bounds
  // and the bytes after `end` are non-matching (kernels must not read
  // conclusions from them even if they over-read within the page).
  std::mt19937 rng(0xBAD5EED);
  for (std::size_t len = 14; len <= 36; ++len) {
    for (std::size_t off = 0; off < 16; ++off) {
      std::string buf(off + len + 64, 'q');
      for (char& ch : buf) {
        ch = static_cast<char>('a' + rng() % 26);
      }
      char* const begin = buf.data() + off;
      char* const end = begin + len;
      // `pos == len` leaves the needle absent entirely.
      for (std::size_t pos = 0; pos <= len; ++pos) {
        const std::string saved(begin, len);
        if (pos < len) begin[pos] = '\n';
        if (pos + 1 < len) begin[pos + 1] = ' ';
        const char* ref = find_byte(Level::kScalar, begin, end, '\n');
        for (const Level l : levels) {
          ASSERT_EQ(find_byte(l, begin, end, '\n'), ref)
              << level_name(l) << " len=" << len << " off=" << off
              << " pos=" << pos;
        }
        // pair_find with the 'KE' prefix planted at `pos` (needs two
        // bytes, so cap at len-1); also covers the absent case.
        if (pos + 1 < len) {
          begin[pos] = 'K';
          begin[pos + 1] = 'E';
        }
        const char* ref_pair =
            pair_find(Level::kScalar, begin, end, t, bitmap.data());
        for (const Level l : levels) {
          ASSERT_EQ(pair_find(l, begin, end, t, bitmap.data()), ref_pair)
              << level_name(l) << " len=" << len << " off=" << off
              << " pos=" << pos;
        }
        std::copy(saved.begin(), saved.end(), begin);
      }
    }
  }
}

// split_fields (the parse layer's field scan, a table loop at every
// level) against a plain awk-style oracle: the six ASCII whitespace
// bytes separate, runs of them count once, leading and trailing runs
// yield no empty field, and every other byte -- NUL and bytes >= 0x80
// (0x85 NEL and 0xA0 NBSP included) -- is field text. The bounded form
// must return exactly the oracle's first `max` fields.
TEST(SplitFields, MatchesAwkOracleWholeAndBounded) {
  const auto oracle = [](std::string_view s) {
    const auto is_space = [](char c) {
      return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
             c == '\v';
    };
    std::vector<std::string_view> out;
    std::size_t i = 0;
    while (i < s.size()) {
      while (i < s.size() && is_space(s[i])) ++i;
      const std::size_t start = i;
      while (i < s.size() && !is_space(s[i])) ++i;
      if (i > start) out.push_back(s.substr(start, i - start));
    }
    return out;
  };
  std::vector<std::string> cases = {
      "",
      " ",
      " \t\n\r\f\v",
      "a b\tc\nd\re\ff\vg",
      "  lead",
      "trail \t ",
      " \v both \f ",
      "runs  \t\t  of\n\n\r\r  space",
      std::string("nul\0inside a\0field", 18),
      "high\x80\xff bytes\x85" "are\xa0" "text \xc3\xa9t\xc3\xa9",
      "x"};
  for (std::string c : corpora()) cases.push_back(std::move(c));
  std::vector<std::string_view> got;
  for (const std::string& c : cases) {
    const auto ref = oracle(c);
    util::split_fields(c, got);
    ASSERT_EQ(got, ref) << "case of " << c.size() << " bytes";
    EXPECT_EQ(util::split_fields(c), ref);
    for (std::size_t max = 0; max <= 10; ++max) {
      util::split_fields(c, got, max);
      const std::size_t n = std::min(max, ref.size());
      ASSERT_EQ(got, std::vector<std::string_view>(ref.begin(),
                                                   ref.begin() + n))
          << "max=" << max << " case of " << c.size() << " bytes";
    }
  }
}

/// getline reference for the splitter comparisons.
std::vector<std::string> getline_reference(std::string_view text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) {
      out.emplace_back(text.substr(pos));
      break;
    }
    out.emplace_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return out;
}

TEST(SimdDifferential, ForEachLineMatchesGetlineAtEveryLevel) {
  const LevelGuard guard;
  for (const std::string& corpus : corpora()) {
    const auto ref = getline_reference(corpus);
    for (const Level l : supported_levels()) {
      ASSERT_TRUE(set_level(l));
      std::vector<std::string> got;
      for_each_line(corpus,
                    [&](std::string_view line) { got.emplace_back(line); });
      ASSERT_EQ(got, ref) << level_name(l);
    }
  }
}

/// The line decoder's contract on the same corpora: getline's lines
/// with one trailing '\r' stripped from each.
std::vector<std::string> decoder_reference(std::string_view text) {
  std::vector<std::string> out = getline_reference(text);
  for (std::string& line : out) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
  }
  return out;
}

// net::FrameDecoder, the line splitter of every chunked route:
// identical lines whatever the chunking -- 1-byte feeds, prime-sized
// feeds, feeds splitting exactly at '\n', at vector-width boundaries,
// and whole-corpus feeds -- at every level. Bounded by logio::kMaxLine
// as `wss stream --in` is, since a corpus holds a >1 MiB line.
TEST(SimdDifferential, FrameDecoderInvariantUnderChunking) {
  const LevelGuard guard;
  for (const std::string& corpus : corpora()) {
    const auto ref = decoder_reference(corpus);
    for (const Level l : supported_levels()) {
      ASSERT_TRUE(set_level(l));
      for (const std::size_t chunk :
           {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{16},
            std::size_t{17}, std::size_t{32}, std::size_t{33},
            std::size_t{4096}, corpus.size() + 1}) {
        net::FrameDecoder decoder(net::Framing::kNewline, logio::kMaxLine);
        std::vector<std::string> got;
        const auto emit = [&](std::string_view line) {
          got.emplace_back(line);
          return true;
        };
        for (std::size_t pos = 0; pos < corpus.size(); pos += chunk) {
          decoder.feed(std::string_view(corpus).substr(pos, chunk));
          ASSERT_TRUE(decoder.for_each_frame(emit));
        }
        std::string_view tail;
        if (decoder.finish_view(tail)) emit(tail);
        ASSERT_EQ(got, ref) << level_name(l) << " chunk=" << chunk;
        EXPECT_EQ(decoder.oversized(), 0u);
      }
    }
  }
}

// A warm decoder allocates nothing: once its buffer has held the
// longest line, feeding that line again in 1 KiB pieces (the worst
// case: the carry grows on every feed) never touches the heap. The
// buffer itself comes from realloc, which operator new does not see,
// so its capacity must not change either.
TEST(SimdDifferential, WarmFrameDecoderAllocatesNothing) {
  net::FrameDecoder decoder(net::Framing::kNewline, logio::kMaxLine);
  const std::string line(100000, 'y');
  std::size_t lines = 0;
  const auto count = [&lines](std::string_view) {
    ++lines;
    return true;
  };
  const auto feed_line = [&] {
    for (std::size_t p = 0; p < line.size(); p += 1024) {
      decoder.feed(std::string_view(line).substr(p, 1024));
      decoder.for_each_frame(count);
    }
    decoder.feed("\n");
    decoder.for_each_frame(count);
  };
  feed_line();  // warm-up: the buffer grows to the line
  const std::uint64_t before = testing_util::allocations();
  const std::size_t capacity = decoder.capacity();
  for (int round = 0; round < 5; ++round) feed_line();
  EXPECT_EQ(testing_util::allocations(), before);
  EXPECT_EQ(decoder.capacity(), capacity);
  EXPECT_EQ(lines, 6u);
}

// The LiteralScanner's vectorized root skip must report the same
// literal bitset at every level, including literals placed to straddle
// block boundaries.
TEST(SimdDifferential, LiteralScannerBitsetsIdenticalAcrossLevels) {
  const LevelGuard guard;
  const std::vector<std::string> literals = {
      "ecc",      "error",   "panic", "EDRAM",  "machine check",
      "!",        "\xff\xfe", "end",  "failure"};
  const match::LiteralScanner scanner{std::vector<std::string>(literals)};
  const std::size_t words = scanner.bitset_words();

  std::vector<std::string> texts = corpora();
  // Plant literals at positions around vector-width boundaries.
  for (const std::size_t at : {0u, 13u, 15u, 16u, 17u, 30u, 31u, 32u, 63u}) {
    std::string s(96, '.');
    s.replace(at, 3, "ecc");
    texts.push_back(s);
    std::string m(96, '.');
    const std::string mc = "machine check";
    m.replace(std::min(at, m.size() - mc.size()), mc.size(), mc);
    texts.push_back(m);
  }

  for (const std::string& text : texts) {
    std::vector<std::uint64_t> ref(words, 0);
    ASSERT_TRUE(set_level(Level::kScalar));
    scanner.scan(text, ref.data());
    for (const Level l : vector_levels()) {
      ASSERT_TRUE(set_level(l));
      std::vector<std::uint64_t> got(words, 0);
      scanner.scan(text, got.data());
      ASSERT_EQ(got, ref) << level_name(l);
    }
  }
}

}  // namespace
}  // namespace wss::simd
