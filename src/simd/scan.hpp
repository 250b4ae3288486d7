// Vectorized byte-scanning primitives -- the kernels under the line
// splitter, the frame decoder and the literal scanner's root skip.
// (Field splitting is a plain table loop, util::split_fields: fields
// are mostly shorter than one vector block.)
//
// Every primitive has a scalar twin with identical semantics; the
// vector paths only ever *prune* work using approximations that can
// overmatch but never undermatch, with the exact predicate re-checked
// before anything is reported. That is the whole correctness argument
// for the goldens staying bit-identical (DESIGN.md section 5h), and
// the differential-fuzz suite (tests label `simd`) holds every level
// to it on adversarial corpora.
//
// Levels (simd/dispatch.hpp):
//   scalar -- plain byte loops, the reference.
//   sse2   -- 16 B blocks. Loads/compares are SSE2; the nibble-table
//             kernel additionally uses SSSE3 pshufb (detection treats
//             pre-SSSE3 x86 as scalar-only, which last shipped ~2005).
//   avx2   -- 32 B blocks.
//   neon   -- 16 B blocks (AArch64 AdvSIMD).
//
// All `end`-bounded scans return `end` when nothing qualifies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "simd/dispatch.hpp"

namespace wss::simd {

// ---- Single-byte search (memchr twin) ------------------------------

/// First position in [p, end) equal to `c`, at the given level.
const char* find_byte(Level level, const char* p, const char* end,
                      unsigned char c);

/// find_byte at active_level().
inline const char* find_byte(const char* p, const char* end, unsigned char c) {
  return find_byte(active_level(), p, end, c);
}

// ---- Nibble-table byte set (the root skip's one-byte literals) ----

/// The 16+16-entry nibble tables the vector kernels probe with
/// pshufb/tbl for a byte set. The approximation may claim membership
/// for bytes outside the set (collisions between nibble groups) but
/// never misses a member; pair_find re-checks its exact bitmap before
/// reporting.
struct NibbleSet {
  unsigned char lo[16] = {};
  unsigned char hi[16] = {};
  bool empty = true;
};

// ---- Two-byte candidate blocks (Aho-Corasick root skip) ------------

/// The literal-start model for LiteralScanner's root skip: a position
/// can start a literal only if (byte, next byte) is the two-byte
/// prefix of some length >= 2 literal, or byte alone is a one-byte
/// literal.
///
/// Pairs are bucketed Teddy-style: each prefix pair hashes to one of 8
/// buckets, and the nibble tables hold 8-bit bucket masks instead of
/// booleans. A position is a candidate only when its byte is claimed
/// as a FIRST byte and the next byte as a SECOND byte of the SAME
/// bucket -- without bucketing, literal sets whose first/second bytes
/// are common letters (the realistic case) would approximate to "any
/// two letters" and the filter would pass most of the line. Bucket
/// collisions and nibble collisions both only ever overmatch; the
/// scanner re-checks its exact pair bitmap on every candidate.
struct PairTables {
  unsigned char first_lo[16] = {};
  unsigned char first_hi[16] = {};
  unsigned char second_lo[16] = {};
  unsigned char second_hi[16] = {};
  NibbleSet single;  ///< one-byte literals
  bool any_pair = false;
};

/// Registers the two-byte prefix (b0, b1) of a length >= 2 literal.
void pair_tables_add_pair(PairTables& t, unsigned char b0, unsigned char b1);

/// Registers a one-byte literal.
void pair_tables_add_single(PairTables& t, unsigned char b);

/// First position q in [p, end) whose pair (q[0], q[1]) has its bit
/// set in the exact 65536-bit `pair_start` bitmap (bit index
/// (q[0] << 8) | q[1]; one-byte literals are expanded across all 256
/// second bytes by the builder). Positions are only considered while
/// a full pair fits (q + 1 < end); when none hits, returns end - 1
/// for a non-empty range (the caller decides the final byte's fate --
/// it has no pair) and end for an empty one.
///
/// The vector levels skip blocks via the bucketed PairTables
/// approximation and re-check every flagged position against
/// `pair_start`, so the result is identical to the scalar twin by
/// construction; keeping the whole loop (approximation + exact
/// re-check) inside one function keeps the shuffle tables in
/// registers across blocks.
const char* pair_find(Level level, const char* p, const char* end,
                      const PairTables& t, const std::uint64_t* pair_start);

}  // namespace wss::simd
