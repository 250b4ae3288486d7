#include "tag/engine.hpp"

#include <atomic>
#include <map>
#include <utility>

#include "util/strings.hpp"

namespace wss::tag {

namespace {

match::MatchScratch& thread_local_scratch() {
  thread_local match::MatchScratch scratch;
  return scratch;
}

std::uint64_t next_engine_instance_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

TagEngine::TagEngine(RuleSet rules)
    : rules_(std::move(rules)), instance_id_(next_engine_instance_id()) {
  // Compile the rule plans: every non-negated term with a provable
  // required literal contributes to the Aho–Corasick prefilter. (A
  // negated term cannot gate candidacy: its conjunct is SATISFIED when
  // the pattern -- and hence its literal -- is absent.) A whole-line
  // term that is exactly its literal is then decided by the scan's
  // found bit; every other term runs its own regex in tag_line.
  std::vector<std::string> literals;
  std::map<std::string, std::uint16_t> literal_ids;
  const auto& rule_list = rules_.rules();
  plans_.reserve(rule_list.size());
  for (const Rule& rule : rule_list) {
    RulePlan plan;
    plan.type = rule.type;
    plan.never = rule.predicate.empty();
    for (const match::Term& t : rule.predicate.terms()) {
      TermPlan tp;
      tp.field = t.field;
      tp.negated = t.negated;
      tp.re = t.re.get();
      if (!t.negated && !t.re->prefilter_literal().empty()) {
        const std::string& lit = t.re->prefilter_literal();
        const auto [it, inserted] = literal_ids.emplace(
            lit, static_cast<std::uint16_t>(literals.size()));
        if (inserted) literals.push_back(lit);
        plan.lits.push_back(it->second);
      }
      // is_literal() implies the literal was registered just above.
      tp.literal = t.field == 0 && !t.negated && t.re->is_literal();
      if (tp.literal) tp.id = plan.lits.back();
      plan.terms.push_back(tp);
    }
    plans_.push_back(std::move(plan));
  }
  literals_ = std::make_unique<match::LiteralScanner>(std::move(literals));
  for (const RulePlan& plan : plans_) {
    if (!plan.never && plan.lits.empty()) has_ungated_rule_ = true;
  }
  // Flatten each rule's required-literal set into one contiguous mask
  // row: the candidate test becomes sequential word ANDs over a flat
  // array instead of chasing per-rule id vectors.
  lit_words_ = literals_->bitset_words();
  lit_masks_.assign(plans_.size() * lit_words_, 0);
  for (std::size_t i = 0; i < plans_.size(); ++i) {
    for (const std::uint16_t lit : plans_[i].lits) {
      match::bitset_set(lit_masks_.data() + i * lit_words_, lit);
    }
  }
}

const std::uint64_t* TagEngine::candidate_set(match::MatchScratch& scratch,
                                              bool& any_candidate) const {
  match::CandidateCache& cache = scratch.candidate_cache;
  if (cache.owner != instance_id_) {
    cache.owner = instance_id_;
    cache.entries.clear();
    cache.next_evict = 0;
  }
  // Linear probe: the cache is a handful of entries and the keys are a
  // few words, so this is cheaper than any hashing on the hit path.
  for (const match::CandidateCache::Entry& e : cache.entries) {
    if (e.key == scratch.found) {
      any_candidate = e.any;
      return e.candidates.data();
    }
  }

  const std::size_t rule_words = (plans_.size() + 63) / 64;
  match::bitset_clear(scratch.candidates, rule_words);
  any_candidate = false;
  for (std::size_t i = 0; i < plans_.size(); ++i) {
    if (plans_[i].never) continue;
    const std::uint64_t* mask = lit_masks_.data() + i * lit_words_;
    bool candidate = true;
    for (std::size_t w = 0; w < lit_words_; ++w) {
      candidate &= (scratch.found[w] & mask[w]) == mask[w];
    }
    if (candidate) {
      match::bitset_set(scratch.candidates.data(), i);
      any_candidate = true;
    }
  }

  if (cache.entries.size() < match::CandidateCache::kSlots) {
    cache.entries.push_back(
        {scratch.found, scratch.candidates, any_candidate});
    return cache.entries.back().candidates.data();
  }
  // Round-robin overwrite into same-sized vectors: no allocation once
  // the cache is warm, whatever the working set of combinations.
  match::CandidateCache::Entry& e = cache.entries[cache.next_evict];
  cache.next_evict =
      (cache.next_evict + 1) % match::CandidateCache::kSlots;
  e.key = scratch.found;
  e.candidates = scratch.candidates;
  e.any = any_candidate;
  return e.candidates.data();
}

std::optional<TagResult> TagEngine::tag_line(
    std::string_view line, match::MatchScratch& scratch) const {
  ++scratch.tag_lines;

  // 1. One Aho–Corasick pass over the line: which required literals
  //    occur? From that, which rules are still candidates? The scan
  //    sizes/zeroes the bitset and reports "found any" itself, so the
  //    chatter rejection costs no extra pass over the words.
  const std::uint64_t found_any =
      literals_->scan_fresh(line, scratch.found);
  // Typical chatter contains no required literal at all; unless some
  // rule is ungated (no provable literal), such a line is decided by
  // the scan alone.
  if (found_any == 0 && !has_ungated_rule_) {
    ++scratch.prefilter_rejects;
    return std::nullopt;
  }
  bool any_candidate = false;
  const std::uint64_t* candidates = candidate_set(scratch, any_candidate);
  if (!any_candidate) {
    ++scratch.prefilter_rejects;
    return std::nullopt;  // the chatter fast path
  }

  // 2. First match wins, by rule index -- identical to the naive loop.
  //    A term the literal scan cannot decide runs its own regex, and
  //    only here: for a candidate rule whose earlier terms passed.
  bool fields_ready = false;
  bool ran_regex = false;
  for (std::size_t i = 0; i < plans_.size(); ++i) {
    if (!match::bitset_test(candidates, i)) continue;
    const RulePlan& plan = plans_[i];
    bool ok = true;
    for (const TermPlan& t : plan.terms) {
      bool hit;
      if (t.literal) {
        hit = match::bitset_test(scratch.found.data(), t.id);
      } else if (t.field == 0) {
        if (!ran_regex) ++scratch.dfa_scans;  // counts lines, not terms
        ran_regex = true;
        hit = t.re->search(line, scratch.pike);
      } else {
        if (!fields_ready) {
          util::split_fields(line, scratch.fields);
          fields_ready = true;
        }
        const auto idx = static_cast<std::size_t>(t.field - 1);
        // awk: a reference to a field beyond NF is the empty string.
        const std::string_view f = idx < scratch.fields.size()
                                       ? scratch.fields[idx]
                                       : std::string_view{};
        hit = t.re->search(f, scratch.pike);
      }
      if (t.negated) hit = !hit;
      if (!hit) {
        ok = false;
        break;
      }
    }
    if (ok) {
      ++scratch.tag_hits;
      return TagResult{static_cast<std::uint16_t>(i), plan.type};
    }
  }
  return std::nullopt;
}

std::optional<TagResult> TagEngine::tag_line(std::string_view line) const {
  return tag_line(line, thread_local_scratch());
}

std::optional<TagResult> TagEngine::tag(const parse::LogRecord& rec,
                                        match::MatchScratch& scratch) const {
  return tag_line(rec.raw, scratch);
}

std::optional<TagResult> TagEngine::tag(const parse::LogRecord& rec) const {
  return tag_line(rec.raw, thread_local_scratch());
}

}  // namespace wss::tag
