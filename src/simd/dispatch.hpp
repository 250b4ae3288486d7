// Runtime SIMD level selection for the byte-level hot path.
//
// Every vectorized routine in wss::simd exists at up to four levels --
// scalar (the reference twin every other level must match
// byte-for-byte), SSE2, AVX2, and NEON -- and the level actually used
// is picked once at startup: the best the CPU supports, overridable
// with WSS_SIMD=scalar|sse2|avx2|neon. Forcing a level the CPU cannot
// run (e.g. WSS_SIMD=neon on x86) falls back to auto-detection with a
// one-line stderr warning rather than crashing on an illegal
// instruction.
//
// The override exists for the differential-fuzz suite (tests label
// `simd`), which runs every kernel at every supported level and
// asserts bit-identical output against the scalar twin, and for the
// CI job that runs that suite under the sanitizers at both ends of
// the dispatch range.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace wss::simd {

enum class Level : std::uint8_t {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kNeon = 3,
};

/// Spelling used by WSS_SIMD ("scalar", "sse2", "avx2", "neon").
const char* level_name(Level level);

/// Parses a WSS_SIMD spelling (case-insensitive). nullopt = unknown.
std::optional<Level> parse_level(std::string_view name);

/// The best level this CPU can execute (never returns an unsupported
/// one; kScalar at worst).
Level detected_level();

/// True when `level` can execute on this CPU. kScalar is always true.
bool level_supported(Level level);

/// Every supported level, scalar first -- what the differential suite
/// iterates over.
std::vector<Level> supported_levels();

/// The level the dispatched entry points use right now. Resolved once
/// from WSS_SIMD (falling back to detected_level()), then mutable via
/// set_level().
Level active_level();

/// Forces the active level (tests, bench ablations). Returns false --
/// and changes nothing -- when the CPU does not support `level`.
bool set_level(Level level);

}  // namespace wss::simd
