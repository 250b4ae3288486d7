// The tagging engine: runs a RuleSet over log records.
//
// This is the automated stand-in for the paper's "combination of
// regular expression matching and manual intervention" -- and the
// throughput wall of the whole study: the expert rules are applied to
// ~0.97 billion messages, so the engine screens *all* rules in one
// literal pass over the line instead of probing them one by one:
//
//   1. An Aho–Corasick scan over every rule's required literals
//      (match::LiteralScanner) yields the candidate-rule set; a rule
//      whose required literal is absent cannot match, and a chatter
//      line typically empties the whole set right here.
//   2. Candidate rules are resolved lowest-index-first (first match
//      wins). A whole-line term whose pattern is exactly its literal
//      (match::Regex::is_literal -- nearly every expert rule) is
//      already decided by that scan's found bit; any other term -- a
//      whole-line regex such as `gm_parity\.c:.*parity_int`, or an
//      awk-style field term -- runs its own Pike VM on the rare
//      candidate, only once the rule's earlier terms have passed.
//
// Decisions are bit-identical to the naive per-rule loop -- the
// prefilter is a necessary-condition filter and a literal term's found
// bit is exactly its search() -- which the golden suite enforces;
// tests/test_tag_engine.cpp checks the engine against a naive
// first-match oracle on every system and on random rule sets.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "match/literal_scanner.hpp"
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

 private:
  /// One rule term, pre-resolved for the hot path.
  struct TermPlan {
    /// The literal id in literals_ when `literal`; unused otherwise.
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
  /// Unique per-engine id guarding the scratch's CandidateCache (an
  /// address could be reused after destruction).
  std::uint64_t instance_id_ = 0;
  std::vector<RulePlan> plans_;
  /// True if some rule has no provable literal (it is always a
  /// candidate, so a literal-free line cannot be rejected early).
  bool has_ungated_rule_ = false;
  /// Rule i's required-literal bitset, flattened at
  /// lit_masks_[i * lit_words_ ..): candidate iff found ⊇ mask.
  std::vector<std::uint64_t> lit_masks_;
  std::size_t lit_words_ = 0;
  std::unique_ptr<match::LiteralScanner> literals_;
};

}  // namespace wss::tag
