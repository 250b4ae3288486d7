#include "simd/scan.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define WSS_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define WSS_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace wss::simd {

namespace {

/// Bucket a prefix pair hashes to. Any deterministic map works for
/// correctness (collisions overmatch); mixing both bytes spreads the
/// realistic literal sets -- whose pairs share common first letters --
/// across buckets.
inline unsigned pair_bucket(unsigned char b0, unsigned char b1) {
  return (static_cast<unsigned>(b0) * 31u + b1) & 7u;
}

}  // namespace

void pair_tables_add_pair(PairTables& t, unsigned char b0, unsigned char b1) {
  const auto bit =
      static_cast<unsigned char>(1u << pair_bucket(b0, b1));
  t.first_lo[b0 & 0x0f] |= bit;
  t.first_hi[b0 >> 4] |= bit;
  t.second_lo[b1 & 0x0f] |= bit;
  t.second_hi[b1 >> 4] |= bit;
  t.any_pair = true;
}

void pair_tables_add_single(PairTables& t, unsigned char b) {
  // One group bit per high-nibble class (mod 8). A byte is claimed by
  // the approximation when lo[] and hi[] share a group bit, so every
  // member matches; collisions (hi nibbles 8 apart with crossed lo
  // nibbles) only ever overmatch.
  const unsigned char bit = static_cast<unsigned char>(1u << ((b >> 4) & 7));
  t.single.lo[b & 0x0f] |= bit;
  t.single.hi[b >> 4] |= bit;
  t.single.empty = false;
}

namespace {

// ---- Scalar twins (the reference semantics) ------------------------

const char* find_byte_scalar(const char* p, const char* end, unsigned char c) {
  for (; p != end; ++p) {
    if (static_cast<unsigned char>(*p) == c) return p;
  }
  return end;
}

inline bool pair_hit(const char* q, const std::uint64_t* pair_start) {
  const std::uint32_t idx =
      (static_cast<std::uint32_t>(static_cast<unsigned char>(q[0])) << 8) |
      static_cast<unsigned char>(q[1]);
  return (pair_start[idx >> 6] >> (idx & 63)) & 1;
}

const char* pair_find_scalar(const char* p, const char* end,
                             const std::uint64_t* pair_start) {
  if (p == end) return end;
  // The bitmap tests are independent across positions, so the 4-wide
  // unroll runs at full ILP (unlike an automaton's dependent chain).
  while (p + 5 <= end) {
    if (pair_hit(p, pair_start) | pair_hit(p + 1, pair_start) |
        pair_hit(p + 2, pair_start) | pair_hit(p + 3, pair_start)) {
      break;
    }
    p += 4;
  }
  while (p + 1 < end && !pair_hit(p, pair_start)) ++p;
  return p;  // a hit, or end - 1 (no full pair left)
}

#ifdef WSS_SIMD_X86

// ---- 128-bit x86 (SSE2 compares, SSSE3 nibble tables) --------------

const char* find_byte_sse2(const char* p, const char* end, unsigned char c) {
  const __m128i needle = _mm_set1_epi8(static_cast<char>(c));
  for (; p + 16 <= end; p += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const unsigned m = static_cast<unsigned>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(v, needle)));
    if (m != 0) return p + __builtin_ctz(m);
  }
  return find_byte_scalar(p, end, c);
}

/// 16-bit mask of bytes the nibble approximation claims for `s`.
__attribute__((target("ssse3"))) inline unsigned nibble_mask16(
    __m128i v, const NibbleSet& s) {
  const __m128i lo_tbl =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(s.lo));
  const __m128i hi_tbl =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(s.hi));
  const __m128i low = _mm_and_si128(v, _mm_set1_epi8(0x0f));
  const __m128i high = _mm_and_si128(_mm_srli_epi16(v, 4), _mm_set1_epi8(0x0f));
  const __m128i m = _mm_and_si128(_mm_shuffle_epi8(lo_tbl, low),
                                  _mm_shuffle_epi8(hi_tbl, high));
  const __m128i zero = _mm_cmpeq_epi8(m, _mm_setzero_si128());
  return ~static_cast<unsigned>(_mm_movemask_epi8(zero)) & 0xffffu;
}

__attribute__((target("ssse3"))) const char* pair_find_sse2(
    const char* p, const char* end, const PairTables& t,
    const std::uint64_t* pair_start) {
  const __m128i f_lo =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.first_lo));
  const __m128i f_hi =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.first_hi));
  const __m128i s_lo =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.second_lo));
  const __m128i s_hi =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.second_hi));
  const __m128i nib = _mm_set1_epi8(0x0f);
  const bool singles = !t.single.empty;
  // 17 readable bytes per block: v2 is the same 16 bytes shifted by
  // one, so its load touches p[16].
  for (; p + 17 <= end; p += 16) {
    const __m128i v1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const __m128i v2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 1));
    // v2[i] == p[i+1], so the per-position AND is bucket-aligned: bit
    // i survives only when some bucket claims p[i] as first AND
    // p[i+1] as second.
    const __m128i both = _mm_and_si128(
        _mm_and_si128(_mm_shuffle_epi8(f_lo, _mm_and_si128(v1, nib)),
                      _mm_shuffle_epi8(
                          f_hi, _mm_and_si128(_mm_srli_epi16(v1, 4), nib))),
        _mm_and_si128(_mm_shuffle_epi8(s_lo, _mm_and_si128(v2, nib)),
                      _mm_shuffle_epi8(
                          s_hi, _mm_and_si128(_mm_srli_epi16(v2, 4), nib))));
    const __m128i zero = _mm_cmpeq_epi8(both, _mm_setzero_si128());
    unsigned cand = ~static_cast<unsigned>(_mm_movemask_epi8(zero)) & 0xffffu;
    if (singles) cand |= nibble_mask16(v1, t.single);
    while (cand != 0) {
      const unsigned i = static_cast<unsigned>(__builtin_ctz(cand));
      cand &= cand - 1;
      if (pair_hit(p + i, pair_start)) return p + i;  // overmatch filtered
    }
  }
  return pair_find_scalar(p, end, pair_start);
}

// ---- 256-bit x86 (AVX2) --------------------------------------------

// NB (all avx2 kernels): the ymm setup lives behind an explicit size
// guard and the residue handoff to the 128-bit twin is preceded by
// _mm256_zeroupper(). Without both, the compiler hoists the table
// loads above the loop-entry check and tail-jumps to the SSE twin
// with dirty upper ymm state -- every short-range call then eats an
// AVX->SSE transition stall, which made avx2 ~7x SLOWER than sse2 on
// line-sized ranges. (In-loop hit returns get vzeroupper from the
// compiler's normal epilogue; only the tail calls miss it.)

__attribute__((target("avx2"))) const char* find_byte_avx2(const char* p,
                                                           const char* end,
                                                           unsigned char c) {
  if (end - p >= 32) {
    const __m256i needle = _mm256_set1_epi8(static_cast<char>(c));
    for (; p + 32 <= end; p += 32) {
      const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      const unsigned m = static_cast<unsigned>(
          _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, needle)));
      if (m != 0) return p + __builtin_ctz(m);
    }
    _mm256_zeroupper();
  }
  return find_byte_sse2(p, end, c);
}

/// 32-bit mask of bytes the nibble approximation claims for `s`.
__attribute__((target("avx2"))) inline unsigned nibble_mask32(
    __m256i v, const NibbleSet& s) {
  const __m256i lo_tbl = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(s.lo)));
  const __m256i hi_tbl = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(s.hi)));
  const __m256i low = _mm256_and_si256(v, _mm256_set1_epi8(0x0f));
  const __m256i high =
      _mm256_and_si256(_mm256_srli_epi16(v, 4), _mm256_set1_epi8(0x0f));
  const __m256i m = _mm256_and_si256(_mm256_shuffle_epi8(lo_tbl, low),
                                     _mm256_shuffle_epi8(hi_tbl, high));
  const __m256i zero = _mm256_cmpeq_epi8(m, _mm256_setzero_si256());
  return ~static_cast<unsigned>(_mm256_movemask_epi8(zero));
}

__attribute__((target("avx2"))) const char* pair_find_avx2(
    const char* p, const char* end, const PairTables& t,
    const std::uint64_t* pair_start) {
  if (end - p >= 33) {
    const __m256i f_lo = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.first_lo)));
    const __m256i f_hi = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.first_hi)));
    const __m256i s_lo = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.second_lo)));
    const __m256i s_hi = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.second_hi)));
    const __m256i nib = _mm256_set1_epi8(0x0f);
    const bool singles = !t.single.empty;
    for (; p + 33 <= end; p += 32) {
      const __m256i v1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      const __m256i v2 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 1));
      const __m256i both = _mm256_and_si256(
          _mm256_and_si256(
              _mm256_shuffle_epi8(f_lo, _mm256_and_si256(v1, nib)),
              _mm256_shuffle_epi8(
                  f_hi, _mm256_and_si256(_mm256_srli_epi16(v1, 4), nib))),
          _mm256_and_si256(
              _mm256_shuffle_epi8(s_lo, _mm256_and_si256(v2, nib)),
              _mm256_shuffle_epi8(
                  s_hi, _mm256_and_si256(_mm256_srli_epi16(v2, 4), nib))));
      const __m256i zero = _mm256_cmpeq_epi8(both, _mm256_setzero_si256());
      unsigned cand = ~static_cast<unsigned>(_mm256_movemask_epi8(zero));
      if (singles) cand |= nibble_mask32(v1, t.single);
      while (cand != 0) {
        const unsigned i = static_cast<unsigned>(__builtin_ctz(cand));
        cand &= cand - 1;
        if (pair_hit(p + i, pair_start)) return p + i;
      }
    }
    _mm256_zeroupper();
  }
  return pair_find_sse2(p, end, t, pair_start);
}

#endif  // WSS_SIMD_X86

#ifdef WSS_SIMD_NEON

// ---- AArch64 AdvSIMD -----------------------------------------------

/// Narrows a per-byte 0xFF/0x00 mask to a 64-bit value with one nibble
/// (0xF or 0x0) per byte position -- the AArch64 movemask substitute.
inline std::uint64_t neon_nibble_mask(uint8x16_t bytemask) {
  const uint8x8_t narrowed =
      vshrn_n_u16(vreinterpretq_u16_u8(bytemask), 4);
  return vget_lane_u64(vreinterpret_u64_u8(narrowed), 0);
}

const char* find_byte_neon(const char* p, const char* end, unsigned char c) {
  const uint8x16_t needle = vdupq_n_u8(c);
  for (; p + 16 <= end; p += 16) {
    const uint8x16_t v = vld1q_u8(reinterpret_cast<const std::uint8_t*>(p));
    const std::uint64_t m = neon_nibble_mask(vceqq_u8(v, needle));
    if (m != 0) return p + (__builtin_ctzll(m) >> 2);
  }
  return find_byte_scalar(p, end, c);
}

/// Per-byte 0xFF/0x00 mask of the nibble approximation for `s`.
inline uint8x16_t nibble_bytes_neon(uint8x16_t v, const NibbleSet& s) {
  const uint8x16_t lo_tbl = vld1q_u8(s.lo);
  const uint8x16_t hi_tbl = vld1q_u8(s.hi);
  const uint8x16_t low = vandq_u8(v, vdupq_n_u8(0x0f));
  const uint8x16_t high = vshrq_n_u8(v, 4);
  const uint8x16_t m =
      vandq_u8(vqtbl1q_u8(lo_tbl, low), vqtbl1q_u8(hi_tbl, high));
  return vtstq_u8(m, m);
}

const char* pair_find_neon(const char* p, const char* end,
                           const PairTables& t,
                           const std::uint64_t* pair_start) {
  const uint8x16_t f_lo = vld1q_u8(t.first_lo);
  const uint8x16_t f_hi = vld1q_u8(t.first_hi);
  const uint8x16_t s_lo = vld1q_u8(t.second_lo);
  const uint8x16_t s_hi = vld1q_u8(t.second_hi);
  const uint8x16_t nib = vdupq_n_u8(0x0f);
  const bool singles = !t.single.empty;
  for (; p + 17 <= end; p += 16) {
    const uint8x16_t v1 = vld1q_u8(reinterpret_cast<const std::uint8_t*>(p));
    const uint8x16_t v2 =
        vld1q_u8(reinterpret_cast<const std::uint8_t*>(p + 1));
    const uint8x16_t both = vandq_u8(
        vandq_u8(vqtbl1q_u8(f_lo, vandq_u8(v1, nib)),
                 vqtbl1q_u8(f_hi, vshrq_n_u8(v1, 4))),
        vandq_u8(vqtbl1q_u8(s_lo, vandq_u8(v2, nib)),
                 vqtbl1q_u8(s_hi, vshrq_n_u8(v2, 4))));
    uint8x16_t candv = vtstq_u8(both, both);
    if (singles) candv = vorrq_u8(candv, nibble_bytes_neon(v1, t.single));
    std::uint64_t cand = neon_nibble_mask(candv);
    while (cand != 0) {
      const unsigned i = static_cast<unsigned>(__builtin_ctzll(cand)) >> 2;
      cand &= ~(std::uint64_t{0xf} << (i * 4));
      if (pair_hit(p + i, pair_start)) return p + i;
    }
  }
  return pair_find_scalar(p, end, pair_start);
}

#endif  // WSS_SIMD_NEON

}  // namespace

// Short-range cutoffs (both dispatchers): a range below one vector
// block never enters a vector loop anyway -- it would only pay the
// per-call table setup and the nested avx2 -> sse2 -> scalar
// fallthrough, so sub-block ranges go straight to the scalar twin.
// Results are identical by construction (the vector loops are pure
// prefilters over the same exact predicate). The same reasoning
// applies one level up: a 16-31 byte range at kAvx2 would enter the
// avx2 kernel only to fail its own 32-byte guard and hop to sse2, so
// the dispatcher routes that band straight to the sse2 twin.

const char* find_byte(Level level, const char* p, const char* end,
                      unsigned char c) {
  if (end - p < 16) return find_byte_scalar(p, end, c);
  switch (level) {
#ifdef WSS_SIMD_X86
    case Level::kAvx2:
      if (end - p < 32) return find_byte_sse2(p, end, c);
      return find_byte_avx2(p, end, c);
    case Level::kSse2:
      return find_byte_sse2(p, end, c);
#endif
#ifdef WSS_SIMD_NEON
    case Level::kNeon:
      return find_byte_neon(p, end, c);
#endif
    default:
      return find_byte_scalar(p, end, c);
  }
}

const char* pair_find(Level level, const char* p, const char* end,
                      const PairTables& t, const std::uint64_t* pair_start) {
  (void)t;  // unused on targets with no vector path compiled in
  if (end - p < 17) return pair_find_scalar(p, end, pair_start);
  switch (level) {
#ifdef WSS_SIMD_X86
    case Level::kAvx2:
      // The avx2 pair kernel needs 33 bytes (32 positions + lookahead).
      if (end - p < 33) return pair_find_sse2(p, end, t, pair_start);
      return pair_find_avx2(p, end, t, pair_start);
    case Level::kSse2:
      return pair_find_sse2(p, end, t, pair_start);
#endif
#ifdef WSS_SIMD_NEON
    case Level::kNeon:
      return pair_find_neon(p, end, t, pair_start);
#endif
    default:
      return pair_find_scalar(p, end, pair_start);
  }
}

}  // namespace wss::simd
