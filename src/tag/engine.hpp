// The tagging engine: runs a RuleSet over log records.
//
// This is the automated stand-in for the paper's "combination of
// regular expression matching and manual intervention" -- and the
// throughput wall of the whole study: the expert rules are applied to
// ~0.97 billion messages, so the engine matches *all* rules in one
// pass over the line instead of probing them one by one:
//
//   1. An Aho–Corasick scan over every rule's required literals
//      (match::LiteralScanner) yields the candidate-rule set; a rule
//      whose required literal is absent cannot match, and a chatter
//      line typically empties the whole set right here.
//   2. A whole-line term whose pattern is exactly its literal
//      (match::Regex::is_literal -- nearly every expert rule) is
//      already decided by that scan. Only when some candidate rule
//      still has another whole-line term does the line run ONE
//      lazy-DFA pass of the combined automaton of those terms
//      (match::MultiRegex), which decides them all at once.
//   3. Rules are resolved lowest-index-first (first match wins), with
//      awk-style field terms evaluated directly on the rare candidate.
//
// Decisions are bit-identical to the naive per-rule loop at every
// step -- the prefilter is a necessary-condition filter, a literal
// term's found bit is exactly its search(), and the DFA is exactly
// equivalent to the Pike VM -- which the golden suite and
// tests/test_match_multiregex_fuzz.cpp enforce; tests/test_tag_engine.cpp
// checks the engine against a naive first-match oracle.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "match/literal_scanner.hpp"
#include "match/multiregex.hpp"
#include "match/scratch.hpp"
#include "parse/record.hpp"
#include "tag/rule.hpp"

namespace wss::tag {

/// Result of tagging one record.
struct TagResult {
  std::uint16_t category = 0;  ///< rule index within the RuleSet
  filter::AlertType type = filter::AlertType::kIndeterminate;
};

/// Immutable matcher over one system's RuleSet. Owns its rules (so a
/// temporary RuleSet may be passed safely); thread-compatible: tag()
/// is const and all per-line mutable state lives in the caller's
/// match::MatchScratch (the scratch-less overloads use a thread_local
/// one).
class TagEngine {
 public:
  explicit TagEngine(RuleSet rules);

  /// Tags a raw line; nullopt when no rule matches (a non-alert).
  /// First matching rule wins, matching the paper's "two alerts are in
  /// the same category if they were tagged by the same expert rule".
  std::optional<TagResult> tag_line(std::string_view raw_line,
                                    match::MatchScratch& scratch) const;
  std::optional<TagResult> tag_line(std::string_view raw_line) const;

  /// Convenience overloads on a parsed record (match on record.raw).
  std::optional<TagResult> tag(const parse::LogRecord& rec,
                               match::MatchScratch& scratch) const;
  std::optional<TagResult> tag(const parse::LogRecord& rec) const;

  const RuleSet& rules() const { return rules_; }

  // ---- Diagnostics (tests and the bench) ----
  const match::LiteralScanner& literal_scanner() const { return *literals_; }
  const match::MultiRegex& multi() const { return *multi_; }

 private:
  /// One rule term, pre-resolved for the hot path.
  struct TermPlan {
    /// field == 0 terms: the literal id in literals_ when `literal`,
    /// else the pattern id in multi_.
    std::uint32_t id = 0;
    std::int32_t field = 0;
    bool negated = false;
    bool literal = false;  ///< decided by the literal scan's found bit
    const match::Regex* re = nullptr;
  };
  struct RulePlan {
    std::vector<std::uint16_t> lits;  ///< literal ids that must all occur
    std::vector<TermPlan> terms;
    filter::AlertType type = filter::AlertType::kIndeterminate;
    bool never = false;  ///< empty predicate: matches nothing
  };

  /// Computes (or fetches from the scratch's CandidateCache) the
  /// candidate-rule bitset for the current literal-found bitset.
  /// Returns a pointer valid until the scratch's next tag_line call;
  /// `any_candidate` reports whether the set is non-empty.
  const std::uint64_t* candidate_set(match::MatchScratch& scratch,
                                     bool& any_candidate) const;

  RuleSet rules_;
  /// Unique per-engine id guarding scratch-resident caches (the
  /// dfa_owner pattern; an address could be reused after destruction).
  std::uint64_t instance_id_ = 0;
  std::vector<RulePlan> plans_;
  /// True if some rule has no provable literal (it is always a
  /// candidate, so a literal-free line cannot be rejected early).
  bool has_ungated_rule_ = false;
  /// Rule i's required-literal bitset, flattened at
  /// lit_masks_[i * lit_words_ ..): candidate iff found ⊇ mask.
  std::vector<std::uint64_t> lit_masks_;
  std::size_t lit_words_ = 0;
  /// Per-rule mask over multi_ pattern ids (the "interesting" set fed
  /// to the DFA for early exit); all zero for a rule the literal scan
  /// decides on its own.
  std::vector<std::vector<std::uint64_t>> rule_pids_;
  std::unique_ptr<match::LiteralScanner> literals_;
  std::unique_ptr<match::MultiRegex> multi_;
};

}  // namespace wss::tag
