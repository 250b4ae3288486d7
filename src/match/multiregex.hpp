// Multi-pattern set matching: one pass over the line decides every
// pattern at once.
//
// A MultiRegex relocates the compiled Thompson programs of N Regexes
// into one combined address space (kMatch.x = pattern id) and executes
// it with a *lazy DFA*: memoized subset construction, built
// transition-by-transition as the input demands, with byte-class
// compression of the 256-byte alphabet. After warm-up the per-byte
// cost is one table lookup -- independent of N -- versus N Pike-VM
// runs for the per-pattern loop. This is the production design of
// RE2's DFA and Hyperscan's literal-first decomposition, sized for the
// tag engine's rule sets.
//
// The DFA state cache is bounded (Options::dfa_cache_bytes, default
// 64 MiB) and lives in the caller's MatchScratch, keeping the
// MultiRegex itself immutable and const-shareable across threads. If a
// pathological input blows the cache budget, the cache is flushed and
// the line is re-matched on a multi-pattern Pike VM over the same
// combined program -- so the worst case stays O(text * program) and
// results NEVER depend on which engine ran. After
// Options::max_cache_flushes blowups a scratch stays on the Pike VM
// for good (no rebuild thrash).
//
// Equivalence contract: for every pattern i, bit i of the result ==
// patterns[i]->search(text). tests/test_match_multiregex_fuzz.cpp
// enforces this differentially against the Pike VM.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "match/nfa.hpp"
#include "match/prog.hpp"
#include "match/scratch.hpp"

namespace wss::match {

/// Immutable combined matcher over N compiled patterns.
class MultiRegex {
 public:
  struct Options {
    /// Budget for the lazy-DFA state cache (per MatchScratch).
    std::size_t dfa_cache_bytes = 64ull << 20;
    /// Cache blowups tolerated per scratch before the scratch stays on
    /// the Pike VM permanently.
    int max_cache_flushes = 8;
  };

  /// `patterns` must outlive the MultiRegex (the tag engine keeps them
  /// alive through its RuleSet). Throws std::invalid_argument on more
  /// than 65535 patterns.
  explicit MultiRegex(std::vector<const Regex*> patterns);
  MultiRegex(std::vector<const Regex*> patterns, Options opts);

  std::size_t size() const { return starts_.size(); }
  std::size_t bitset_words() const { return (size() + 63) / 64; }

  /// Decides every pattern against `text` in one left-to-right scan.
  /// On return, scratch.matched holds bitset_words() words with bit i
  /// set iff patterns[i] matches anywhere in `text` -- with one
  /// refinement: if `interesting` (bitset_words() words) is non-null,
  /// the scan may stop early once every interesting pattern has
  /// matched, so bits OUTSIDE `interesting` are set-only-valid (a set
  /// bit is a real match; a clear bit is inconclusive). Bits inside
  /// `interesting` are always exact.
  void match_all(std::string_view text, MatchScratch& scratch,
                 const std::uint64_t* interesting = nullptr) const;

  /// Lazy-DFA path. Returns false -- leaving scratch.matched
  /// unspecified -- if the state cache blew its budget; callers then
  /// use match_all_pike. match_all() composes the two; these are
  /// exposed for the differential tests and the ablation bench.
  bool match_all_dfa(std::string_view text, MatchScratch& scratch,
                     const std::uint64_t* interesting = nullptr) const;

  /// Multi-pattern Pike VM over the same combined program: the
  /// always-correct O(text * program) reference and fallback.
  void match_all_pike(std::string_view text, MatchScratch& scratch,
                      const std::uint64_t* interesting = nullptr) const;

  // ---- Diagnostics ----
  std::size_t program_size() const { return prog_.size(); }
  std::size_t byte_classes() const { return num_classes_; }
  /// The class of byte `b` (classes are numbered in first-byte order).
  std::uint16_t byte_class(unsigned char b) const { return byte_class_[b]; }
  const Options& options() const { return opts_; }

 private:
  struct DfaCache;
  struct DfaState;

  DfaCache& cache_for(MatchScratch& scratch) const;
  DfaState* start_state(DfaCache& cache) const;
  /// Builds (or refuses, on budget) the transition from `from` on byte
  /// class `cls`.
  DfaState* build_transition(DfaCache& cache, DfaState* from,
                             std::uint16_t cls) const;
  /// Epsilon closure of `from`'s pending pcs under the given assertion
  /// context; fills cache.pending / cache.matches.
  void closure(DfaCache& cache, const DfaState* from, bool at_begin,
               bool at_end, bool prev_word, bool next_word) const;
  void build_byte_classes();

  std::vector<const Regex*> patterns_;
  Options opts_;
  std::uint64_t id_ = 0;  ///< process-unique instance id (cache ownership)
  Prog prog_;                          ///< relocated combined program
  std::vector<std::uint32_t> starts_;  ///< entry pc of each pattern
  std::array<std::uint16_t, 256> byte_class_;
  std::vector<unsigned char> class_rep_;  ///< representative byte per class
  std::uint16_t num_classes_ = 0;
};

}  // namespace wss::match
