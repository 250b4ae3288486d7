// Caller-owned scratch for the matching hot path.
//
// The tag engine runs over hundreds of millions of lines; allocating
// thread lists, bitsets, and field arrays per line would dominate the
// cost of matching itself. A MatchScratch owns every per-line buffer
// the match/tag stack needs -- Pike-VM thread lists, the literal and
// candidate bitsets, the lazy awk field split, and the candidate-set
// cache -- and is reused across lines. One scratch per thread; the
// engines themselves stay immutable and const-shareable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

namespace wss::match {

/// Thread lists and visit marks for one Pike-VM simulation. Reusable
/// across programs of any size (prepare() grows the mark array).
struct PikeScratch {
  std::vector<std::uint32_t> clist;
  std::vector<std::uint32_t> nlist;
  std::vector<std::uint32_t> stack;
  /// mark[pc] == gen means pc was already added this generation. gen
  /// only ever grows (reset to 0 with a full clear on wraparound), so
  /// stale marks from earlier lines -- or other programs -- never
  /// alias.
  std::vector<std::uint32_t> mark;
  std::uint32_t gen = 0;

  /// Ensures mark covers `prog_size` pcs; amortized no-op.
  void prepare(std::size_t prog_size) {
    if (mark.size() < prog_size) mark.resize(prog_size, 0);
  }

  /// Starts a new dedup generation and returns it.
  std::uint32_t next_gen() {
    if (gen == ~std::uint32_t{0}) {
      std::fill(mark.begin(), mark.end(), 0);
      gen = 0;
    }
    return ++gen;
  }
};

/// Memoized prefilter derivations for one TagEngine: literal-found
/// bitset -> candidate-rule bitset. Real logs repeat a handful of
/// literal combinations millions of times, so the per-line mask walk
/// (rules x literal words) collapses to a short key compare on the hot
/// combinations. Keyed by the engine's unique instance id (never an
/// address -- addresses can be reused after destruction, which would
/// resurrect a stale cache); a different engine resets
/// the cache. Capacity is a few slots with round-robin overwrite:
/// overwrite assigns into same-sized vectors, so a warmed cache never
/// allocates again even when distinct combinations exceed capacity.
struct CandidateCache {
  static constexpr std::size_t kSlots = 16;
  struct Entry {
    std::vector<std::uint64_t> key;         ///< literal-found bitset
    std::vector<std::uint64_t> candidates;  ///< derived candidate rules
    bool any = false;                       ///< candidate set non-empty
  };
  std::uint64_t owner = 0;  ///< owning engine's instance id; 0 = empty
  std::vector<Entry> entries;
  std::uint32_t next_evict = 0;
};

/// All per-line mutable state for the match/tag stack. Default
/// constructible; buffers grow to their steady-state sizes within the
/// first few lines and are never shrunk.
class MatchScratch {
 public:
  PikeScratch pike;

  // Bitsets, one std::uint64_t word per 64 ids. Sized by the engines.
  std::vector<std::uint64_t> found;       ///< literal ids present in line
  std::vector<std::uint64_t> candidates;  ///< rule ids passing the prefilter

  /// Lazy awk-style field split of the current line.
  std::vector<std::string_view> fields;

  /// Prefilter memoization for the owning TagEngine (see
  /// CandidateCache).
  CandidateCache candidate_cache;

  // ---- Diagnostics (tests and the tagging bench read these; the
  // obs layer publishes them via tag::TagMetricsFlusher) ----
  // Per-line tag-path tallies, maintained by TagEngine::tag_line as
  // plain increments (the miss path cannot afford per-line atomics;
  // these are delta-flushed to obs counters at chunk boundaries).
  // Each is a per-line function of the input and the rule set, so its
  // process total is identical at any thread count.
  std::uint64_t tag_lines = 0;          ///< lines offered to tag_line
  std::uint64_t tag_hits = 0;           ///< lines some rule tagged
  std::uint64_t prefilter_rejects = 0;  ///< lines the literal scan rejected
  /// Lines that ran at least one whole-line regex (a term the literal
  /// scan cannot decide); published as wss_tag_regex_scans_total. The
  /// name is older than the Pike-only engine: wss_bench reads this
  /// field for its tag.dfa_scan_share.
  std::uint64_t dfa_scans = 0;
  /// Always 0: nothing caches automaton states any more. Kept only
  /// because wss_bench reads it for its tag.dfa_flushes value.
  std::uint64_t dfa_flushes = 0;
};

/// Bitset helpers over the word vectors above.
inline void bitset_clear(std::vector<std::uint64_t>& bits, std::size_t words) {
  bits.assign(words, 0);
}
inline void bitset_set(std::uint64_t* bits, std::size_t i) {
  bits[i >> 6] |= std::uint64_t{1} << (i & 63);
}
inline bool bitset_test(const std::uint64_t* bits, std::size_t i) {
  return (bits[i >> 6] >> (i & 63)) & 1;
}

}  // namespace wss::match
