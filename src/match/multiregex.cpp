#include "match/multiregex.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <unordered_map>

namespace wss::match {

namespace {

constexpr std::uint32_t kFlagBegin = 1;     ///< state sits at text start
constexpr std::uint32_t kFlagPrevWord = 2;  ///< last consumed byte was \w

std::size_t popcount_words(const std::uint64_t* words, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t w = words[i];
    while (w) {
      w &= w - 1;
      ++total;
    }
  }
  return total;
}

struct KeyHash {
  std::size_t operator()(const std::vector<std::uint32_t>& key) const {
    // FNV-1a over the words.
    std::uint64_t h = 14695981039346656037ull;
    for (const std::uint32_t w : key) {
      h = (h ^ w) * 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

/// One memoized DFA state. The canonical key is
///   [flags, nmatch, match ids..., pending pcs...]
/// where the match ids are the patterns whose accept was crossed on
/// the transition that *enters* this state (RE2's match-marker trick:
/// emission context is part of state identity, so transitions stay
/// pure lookups), and the pending pcs are the kClass instructions
/// waiting to consume the next byte, pre-closure.
struct MultiRegex::DfaState {
  std::vector<std::uint32_t> key;
  std::vector<DfaState*> next;  ///< per byte class; nullptr = unbuilt
  std::vector<std::uint16_t> eof_matches;
  bool eof_done = false;

  std::uint32_t flags() const { return key[0]; }
  std::uint32_t nmatch() const { return key[1]; }
  const std::uint32_t* match_ids() const { return key.data() + 2; }
  const std::uint32_t* pcs() const { return key.data() + 2 + key[1]; }
  std::size_t npcs() const { return key.size() - 2 - key[1]; }
};

/// The per-scratch state cache plus closure work areas. Owning it in
/// the scratch (not the MultiRegex) keeps the matcher const-shareable
/// across threads with zero synchronization.
struct MultiRegex::DfaCache final : DfaCacheBase {
  std::unordered_map<std::vector<std::uint32_t>, std::unique_ptr<DfaState>,
                     KeyHash>
      states;
  DfaState* start = nullptr;
  std::size_t bytes = 0;
  int flushes = 0;
  bool disabled = false;

  // Closure work areas (reused; never part of the budget).
  std::vector<std::uint32_t> stack;
  std::vector<std::uint32_t> mark;
  std::uint32_t gen = 0;
  std::vector<std::uint32_t> pending;
  std::vector<std::uint32_t> matches;
  std::vector<std::uint32_t> key;

  void flush() {
    states.clear();
    start = nullptr;
    bytes = 0;
    ++flushes;
  }
};

MultiRegex::MultiRegex(std::vector<const Regex*> patterns)
    : MultiRegex(std::move(patterns), Options()) {}

MultiRegex::MultiRegex(std::vector<const Regex*> patterns, Options opts)
    : patterns_(std::move(patterns)), opts_(opts) {
  static std::atomic<std::uint64_t> next_id{0};
  id_ = ++next_id;
  if (patterns_.size() > 0xffff) {
    throw std::invalid_argument("MultiRegex: more than 65535 patterns");
  }
  // Relocate each pattern's program; kMatch.x becomes the pattern id.
  for (std::size_t i = 0; i < patterns_.size(); ++i) {
    const Prog& src = patterns_[i]->prog();
    const auto off = static_cast<std::uint32_t>(prog_.size());
    starts_.push_back(off);
    for (Inst in : src) {
      switch (in.op) {
        case Op::kSplit:
          in.x += off;
          in.y += off;
          break;
        case Op::kJump:
          in.x += off;
          break;
        case Op::kMatch:
          in.x = static_cast<std::uint32_t>(i);
          break;
        default:
          break;  // kWordB.x is the \B flag, not a pc -- leave it alone
      }
      prog_.push_back(std::move(in));
    }
  }
  build_byte_classes();
}

void MultiRegex::build_byte_classes() {
  // Two bytes are equivalent iff no kClass in the program -- and not
  // the \b word test -- can tell them apart; collapsing them shrinks
  // every DFA state's transition array from 256 entries to one per
  // equivalence class (log text typically yields a few dozen).
  //
  // Partition refinement: start from the word/non-word split and split
  // every block by each distinct class in turn. Each round relabels
  // blocks in order of their first byte, so class ids follow the first
  // byte of each class.
  std::vector<CharClass> distinct;
  for (const Inst& in : prog_) {
    if (in.op == Op::kClass) distinct.push_back(in.cls);
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());

  byte_class_.fill(0);
  const auto refine = [this](const auto& member) {
    // Block b's bytes go to new block relabel[2b] (outside the set) or
    // relabel[2b + 1] (inside).
    std::array<std::int16_t, 512> relabel;
    relabel.fill(-1);
    std::int16_t blocks = 0;
    for (int b = 0; b < 256; ++b) {
      const auto c = static_cast<unsigned char>(b);
      std::int16_t& to = relabel[byte_class_[c] * 2u + (member(c) ? 1u : 0u)];
      if (to < 0) to = blocks++;
      byte_class_[c] = static_cast<std::uint16_t>(to);
    }
    num_classes_ = static_cast<std::uint16_t>(blocks);
  };
  refine([](unsigned char c) { return is_word_byte(c); });
  for (const CharClass& d : distinct) {
    if (num_classes_ == 256) break;  // every byte is its own class
    refine([&d](unsigned char c) { return d.contains(c); });
  }
  for (int b = 0; b < 256; ++b) {
    if (byte_class_[static_cast<std::size_t>(b)] == class_rep_.size()) {
      class_rep_.push_back(static_cast<unsigned char>(b));
    }
  }
}

MultiRegex::DfaCache& MultiRegex::cache_for(MatchScratch& scratch) const {
  if (scratch.dfa_owner != id_ || !scratch.dfa) {
    scratch.dfa = std::make_unique<DfaCache>();
    scratch.dfa_owner = id_;
  }
  auto& cache = static_cast<DfaCache&>(*scratch.dfa);
  cache.mark.resize(prog_.size(), 0);
  return cache;
}

void MultiRegex::closure(DfaCache& cache, const DfaState* from, bool at_begin,
                         bool at_end, bool prev_word, bool next_word) const {
  cache.pending.clear();
  cache.matches.clear();
  if (cache.gen == ~std::uint32_t{0}) {
    std::fill(cache.mark.begin(), cache.mark.end(), 0);
    cache.gen = 0;
  }
  const std::uint32_t gen = ++cache.gen;
  auto& stack = cache.stack;
  stack.clear();
  // Reverse order keeps the traversal identical to the Pike VM's
  // (not semantically required -- sets are canonicalized -- but it
  // makes debugging traces line up).
  for (std::size_t i = from->npcs(); i-- > 0;) stack.push_back(from->pcs()[i]);
  while (!stack.empty()) {
    const std::uint32_t pc = stack.back();
    stack.pop_back();
    if (cache.mark[pc] == gen) continue;
    cache.mark[pc] = gen;
    const Inst& in = prog_[pc];
    switch (in.op) {
      case Op::kClass:
        cache.pending.push_back(pc);
        break;
      case Op::kSplit:
        stack.push_back(in.y);
        stack.push_back(in.x);
        break;
      case Op::kJump:
        stack.push_back(in.x);
        break;
      case Op::kBegin:
        if (at_begin) stack.push_back(pc + 1);
        break;
      case Op::kEnd:
        if (at_end) stack.push_back(pc + 1);
        break;
      case Op::kWordB: {
        const bool at_boundary = prev_word != next_word;
        if (at_boundary == (in.x == 0)) stack.push_back(pc + 1);
        break;
      }
      case Op::kMatch:
        cache.matches.push_back(in.x);
        break;
    }
  }
}

MultiRegex::DfaState* MultiRegex::start_state(DfaCache& cache) const {
  if (cache.start) return cache.start;
  auto& key = cache.key;
  key.clear();
  key.push_back(kFlagBegin);
  key.push_back(0);  // no entry matches
  key.insert(key.end(), starts_.begin(), starts_.end());

  const std::size_t est = sizeof(DfaState) + key.size() * 8 +
                          num_classes_ * sizeof(DfaState*) + 96;
  if (cache.bytes + est > opts_.dfa_cache_bytes) {
    cache.flush();
    if (cache.flushes > opts_.max_cache_flushes) cache.disabled = true;
    return nullptr;
  }
  auto state = std::make_unique<DfaState>();
  state->key = key;
  state->next.assign(num_classes_, nullptr);
  DfaState* raw = state.get();
  cache.states.emplace(key, std::move(state));
  cache.bytes += est;
  cache.start = raw;
  return raw;
}

MultiRegex::DfaState* MultiRegex::build_transition(DfaCache& cache,
                                                   DfaState* from,
                                                   std::uint16_t cls) const {
  const unsigned char b = class_rep_[cls];
  closure(cache, from, from->flags() & kFlagBegin, /*at_end=*/false,
          from->flags() & kFlagPrevWord, is_word_byte(b));

  auto& key = cache.key;
  key.clear();
  key.push_back(is_word_byte(b) ? kFlagPrevWord : 0);
  std::sort(cache.matches.begin(), cache.matches.end());
  key.push_back(static_cast<std::uint32_t>(cache.matches.size()));
  key.insert(key.end(), cache.matches.begin(), cache.matches.end());

  // Step the pending threads that accept b, then re-inject every
  // pattern's start (the implicit unanchored ".*?" prefix).
  const std::size_t pcs_begin = key.size();
  for (const std::uint32_t pc : cache.pending) {
    if (prog_[pc].cls.contains(b)) key.push_back(pc + 1);
  }
  key.insert(key.end(), starts_.begin(), starts_.end());
  std::sort(key.begin() + pcs_begin, key.end());
  key.erase(std::unique(key.begin() + pcs_begin, key.end()), key.end());

  const auto it = cache.states.find(key);
  if (it != cache.states.end()) {
    from->next[cls] = it->second.get();
    return it->second.get();
  }

  const std::size_t est = sizeof(DfaState) + key.size() * 8 +
                          num_classes_ * sizeof(DfaState*) + 96;
  if (cache.bytes + est > opts_.dfa_cache_bytes) {
    // Budget blown: evict everything. The caller aborts this line (it
    // re-matches on the Pike VM) and the next line rebuilds from a
    // cold cache; after max_cache_flushes blowups the cache disables
    // itself so adversarial streams cannot thrash rebuild work.
    cache.flush();
    if (cache.flushes > opts_.max_cache_flushes) cache.disabled = true;
    return nullptr;
  }
  auto state = std::make_unique<DfaState>();
  state->key = key;
  state->next.assign(num_classes_, nullptr);
  DfaState* raw = state.get();
  cache.states.emplace(key, std::move(state));
  cache.bytes += est;
  from->next[cls] = raw;
  return raw;
}

bool MultiRegex::match_all_dfa(std::string_view text, MatchScratch& scratch,
                               const std::uint64_t* interesting) const {
  bitset_clear(scratch.matched, bitset_words());
  if (patterns_.empty()) return true;

  DfaCache& cache = cache_for(scratch);
  if (cache.disabled) {
    scratch.dfa_flushes = static_cast<std::uint64_t>(cache.flushes);
    return false;
  }

  std::uint64_t* matched = scratch.matched.data();
  std::size_t remaining = interesting
                              ? popcount_words(interesting, bitset_words())
                              : size();
  DfaState* s = start_state(cache);
  if (!s) {
    scratch.dfa_flushes = static_cast<std::uint64_t>(cache.flushes);
    return false;
  }

  const auto record = [&](std::size_t id) -> bool {
    if (!bitset_test(matched, id)) {
      bitset_set(matched, id);
      if (!interesting || bitset_test(interesting, id)) {
        if (--remaining == 0) return true;
      }
    }
    return false;
  };

  bool done = remaining == 0;
  for (std::size_t pos = 0; !done && pos < text.size(); ++pos) {
    const std::uint16_t cls =
        byte_class_[static_cast<unsigned char>(text[pos])];
    DfaState* nxt = s->next[cls];
    if (!nxt) {
      nxt = build_transition(cache, s, cls);
      if (!nxt) {
        scratch.dfa_flushes = static_cast<std::uint64_t>(cache.flushes);
        return false;  // budget blown mid-line; caller falls back
      }
    }
    for (std::uint32_t k = 0; k < nxt->nmatch(); ++k) {
      if (record(nxt->match_ids()[k])) {
        done = true;
        break;
      }
    }
    s = nxt;
  }

  if (!done) {
    // The final closure at end-of-text (kEnd anchors pass here).
    if (!s->eof_done) {
      closure(cache, s, s->flags() & kFlagBegin, /*at_end=*/true,
              s->flags() & kFlagPrevWord, /*next_word=*/false);
      s->eof_matches.assign(cache.matches.begin(), cache.matches.end());
      s->eof_done = true;
    }
    for (const std::uint16_t id : s->eof_matches) {
      if (record(id)) break;
    }
  }
  ++scratch.dfa_scans;
  scratch.dfa_flushes = static_cast<std::uint64_t>(cache.flushes);
  return true;
}

void MultiRegex::match_all_pike(std::string_view text, MatchScratch& scratch,
                                const std::uint64_t* interesting) const {
  bitset_clear(scratch.matched, bitset_words());
  if (patterns_.empty()) return;

  std::uint64_t* matched = scratch.matched.data();
  std::size_t remaining = interesting
                              ? popcount_words(interesting, bitset_words())
                              : size();
  if (remaining == 0) return;

  PikeScratch& ps = scratch.pike;
  ps.prepare(prog_.size());
  auto& clist = ps.clist;
  auto& nlist = ps.nlist;
  auto& stack = ps.stack;
  auto& mark = ps.mark;
  clist.clear();
  nlist.clear();

  std::uint32_t gen = ps.next_gen();
  bool done = false;
  const auto record = [&](std::size_t id) {
    if (!bitset_test(matched, id)) {
      bitset_set(matched, id);
      if (!interesting || bitset_test(interesting, id)) {
        if (--remaining == 0) done = true;
      }
    }
  };
  const auto add = [&](std::uint32_t pc0, std::size_t pos,
                       std::vector<std::uint32_t>& list) {
    stack.clear();
    stack.push_back(pc0);
    while (!stack.empty()) {
      const std::uint32_t pc = stack.back();
      stack.pop_back();
      if (mark[pc] == gen) continue;
      mark[pc] = gen;
      const Inst& in = prog_[pc];
      switch (in.op) {
        case Op::kClass:
          list.push_back(pc);
          break;
        case Op::kSplit:
          stack.push_back(in.y);
          stack.push_back(in.x);
          break;
        case Op::kJump:
          stack.push_back(in.x);
          break;
        case Op::kBegin:
          if (pos == 0) stack.push_back(pc + 1);
          break;
        case Op::kEnd:
          if (pos == text.size()) stack.push_back(pc + 1);
          break;
        case Op::kWordB: {
          const bool before = pos > 0 && is_word_byte(text[pos - 1]);
          const bool after = pos < text.size() && is_word_byte(text[pos]);
          const bool at_boundary = before != after;
          if (at_boundary == (in.x == 0)) stack.push_back(pc + 1);
          break;
        }
        case Op::kMatch:
          record(in.x);
          break;
      }
    }
  };

  for (std::size_t pos = 0;; ++pos) {
    // The implicit unanchored prefix: every pattern restarts here.
    for (const std::uint32_t st : starts_) add(st, pos, clist);
    if (done || pos == text.size()) break;
    const auto c = static_cast<unsigned char>(text[pos]);
    nlist.clear();
    gen = ps.next_gen();
    for (const std::uint32_t pc : clist) {
      if (prog_[pc].cls.contains(c)) add(pc + 1, pos + 1, nlist);
    }
    clist.swap(nlist);
    if (done) break;
  }
}

void MultiRegex::match_all(std::string_view text, MatchScratch& scratch,
                           const std::uint64_t* interesting) const {
  if (match_all_dfa(text, scratch, interesting)) return;
  ++scratch.pike_fallback_scans;
  match_all_pike(text, scratch, interesting);
}

}  // namespace wss::match
