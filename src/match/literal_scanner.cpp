#include "match/literal_scanner.hpp"

#include <bit>
#include <deque>
#include <stdexcept>

namespace wss::match {

LiteralScanner::LiteralScanner(std::vector<std::string> literals)
    : literals_(std::move(literals)) {
  if (literals_.size() > 0xffff) {
    throw std::invalid_argument("LiteralScanner: more than 65535 literals");
  }
  if (literals_.empty()) return;

  // Phase 1: byte classes. Any byte occurring in no literal has
  // next[s][b] == 0 for every s (its fail resolution bottoms out at
  // the root, which has no edge on it), so all such bytes share class
  // 0; every distinct literal byte gets its own class. The trie and
  // the fail links are built over these classes, not over 256-wide
  // rows. The row stride of trans_ is padded to a power of two so the
  // scan indexes with a shift, not a multiply, on the load's
  // dependency chain.
  for (const std::string& lit : literals_) {
    if (lit.empty()) {
      throw std::invalid_argument("LiteralScanner: empty literal");
    }
    for (const char ch : lit) {
      const auto c = static_cast<unsigned char>(ch);
      // If all 256 byte values occur in literals, exactly one stays
      // in class 0 -- then there are no catch-all bytes to share it
      // with, so per-byte distinctness still holds.
      if (byte_class_[c] == 0 && num_classes_ < 255) {
        byte_class_[c] = static_cast<std::uint8_t>(++num_classes_);
      }
    }
  }
  ++num_classes_;  // the catch-all class 0
  shift_ = static_cast<std::uint32_t>(
      std::countr_zero(std::bit_ceil(static_cast<std::uint32_t>(num_classes_))));
  const std::size_t ncls = num_classes_;

  // Phase 2: dense trie over the classes, as build scratch. -1 = no
  // edge yet.
  std::vector<std::int32_t> next;
  std::vector<std::vector<std::uint16_t>> out;
  const auto new_state = [&]() -> std::int32_t {
    const auto s = static_cast<std::int32_t>(next.size() / ncls);
    next.insert(next.end(), ncls, -1);
    out.emplace_back();
    return s;
  };
  new_state();  // root
  for (std::size_t i = 0; i < literals_.size(); ++i) {
    std::int32_t s = 0;
    for (const char ch : literals_[i]) {
      const std::size_t c = byte_class_[static_cast<unsigned char>(ch)];
      // NB: new_state() reallocates next, so the edge slot must be
      // re-indexed (never held by reference) across the call.
      const std::size_t slot = static_cast<std::size_t>(s) * ncls + c;
      std::int32_t edge = next[slot];
      if (edge < 0) {
        edge = new_state();
        next[slot] = edge;
      }
      s = edge;
    }
    out[static_cast<std::size_t>(s)].push_back(static_cast<std::uint16_t>(i));
  }
  const std::size_t nstates = next.size() / ncls;
  if (nstates > 0xffff) {
    throw std::invalid_argument(
        "LiteralScanner: literal set exceeds 65535 automaton states");
  }

  // Phase 3a: BFS fail links; missing edges are resolved to the fail
  // state's edge as we go, turning the trie into a complete DFA (one
  // lookup per scanned byte). Outputs are merged down fail links so a
  // state accepts every literal ending at it, including proper
  // suffixes. (A fail state is shallower, so BFS completes its row and
  // its outputs before any state that falls back to it.)
  std::vector<std::int32_t> fail(nstates, 0);
  std::deque<std::int32_t> queue;
  for (std::size_t c = 0; c < ncls; ++c) {
    std::int32_t& edge = next[c];
    if (edge < 0) {
      edge = 0;
    } else {
      fail[static_cast<std::size_t>(edge)] = 0;
      queue.push_back(edge);
    }
  }
  while (!queue.empty()) {
    const auto u = static_cast<std::size_t>(queue.front());
    queue.pop_front();
    const auto f = static_cast<std::size_t>(fail[u]);
    if (!out[f].empty()) {
      out[u].insert(out[u].end(), out[f].begin(), out[f].end());
    }
    for (std::size_t c = 0; c < ncls; ++c) {
      std::int32_t& edge = next[u * ncls + c];
      const std::int32_t via_fail = next[f * ncls + c];
      if (edge < 0) {
        edge = via_fail;
      } else {
        fail[static_cast<std::size_t>(edge)] = via_fail;
        queue.push_back(edge);
      }
    }
  }

  // Phase 3b: renumber so accepting states occupy the top of the id
  // space -- the scan's accept test becomes `state >= out_min_`. The
  // root keeps id 0 (it never accepts: empty literals are rejected),
  // and both groups stay in construction order for locality.
  std::vector<std::uint16_t> perm(nstates);
  std::uint16_t id = 0;
  for (std::size_t s = 0; s < nstates; ++s) {
    if (out[s].empty()) perm[s] = id++;
  }
  out_min_ = id;
  for (std::size_t s = 0; s < nstates; ++s) {
    if (!out[s].empty()) perm[s] = id++;
  }

  trans_.assign(nstates << shift_, 0);
  for (std::size_t s = 0; s < nstates; ++s) {
    const std::size_t row = static_cast<std::size_t>(perm[s]) << shift_;
    for (std::size_t c = 0; c < ncls; ++c) {
      trans_[row | c] = perm[static_cast<std::size_t>(next[s * ncls + c])];
    }
  }
  out_offsets_.assign(nstates - out_min_ + 1, 0);
  for (std::size_t s = 0; s < nstates; ++s) {
    if (!out[s].empty()) {
      out_offsets_[perm[s] - out_min_ + 1] =
          static_cast<std::uint32_t>(out[s].size());
    }
  }
  for (std::size_t k = 1; k < out_offsets_.size(); ++k) {
    out_offsets_[k] += out_offsets_[k - 1];
  }
  out_ids_.resize(out_offsets_.back());
  for (std::size_t s = 0; s < nstates; ++s) {
    if (!out[s].empty()) {
      std::uint32_t at = out_offsets_[perm[s] - out_min_];
      for (const std::uint16_t lit_id : out[s]) out_ids_[at++] = lit_id;
    }
  }

  // Phase 3c: the root self-loop, peeled into its own table so the
  // scan can burn through non-starting bytes without touching trans_.
  for (int c = 0; c < 256; ++c) {
    root_stay_[c] = trans_[byte_class_[c]] == 0 ? 1 : 0;
  }

  // Phase 3d: the two-byte start bitmap, built exactly from the
  // literals (not from the fail-completed DFA, whose root-adjacent
  // edges would conservatively over-approximate): a literal can start
  // at position p only if (d[p], d[p+1]) is the two-byte prefix of
  // some length >= 2 literal, or d[p] alone is a one-byte literal.
  pair_start_.assign(1024, 0);
  for (const std::string& lit : literals_) {
    const auto b0 = static_cast<unsigned char>(lit[0]);
    if (lit.size() >= 2) {
      const std::uint32_t idx =
          (static_cast<std::uint32_t>(b0) << 8) |
          static_cast<unsigned char>(lit[1]);
      pair_start_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
      simd::pair_tables_add_pair(pair_tables_, b0,
                                 static_cast<unsigned char>(lit[1]));
    } else {
      for (std::uint32_t b1 = 0; b1 < 256; ++b1) {
        const std::uint32_t idx = (static_cast<std::uint32_t>(b0) << 8) | b1;
        pair_start_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
      }
      simd::pair_tables_add_single(pair_tables_, b0);
    }
  }
}

std::uint64_t LiteralScanner::scan(std::string_view text,
                                   std::uint64_t* found) const {
  if (literals_.empty()) return 0;
  const auto* d = reinterpret_cast<const unsigned char*>(text.data());
  const std::size_t n = text.size();
  const std::uint16_t* trans = trans_.data();
  const std::uint64_t* pair_start = pair_start_.data();
  const simd::Level level = simd::active_level();
  std::uint64_t any = 0;
  std::uint32_t s = 0;
  std::size_t p = 0;
  while (p < n) {
    if (s == 0) {
      // Root fast path: no literal can start at position p unless
      // pair_start_ has the bit for (d[p], d[p+1]), so skip straight
      // to the first position whose bit is set. State 0 carries no
      // active prefix, so no occurrence can span a skipped position.
      // pair_find prunes via the bucketed nibble approximation at the
      // vector levels and re-checks this exact bitmap on every
      // candidate, so every level stops at the same position.
      p = static_cast<std::size_t>(
          simd::pair_find(level, reinterpret_cast<const char*>(d + p),
                          reinterpret_cast<const char*>(d + n), pair_tables_,
                          pair_start) -
          reinterpret_cast<const char*>(d));
      // pair_find never inspects the final byte (it has no pair);
      // consume it here when it cannot leave the root.
      if (p + 1 == n && root_stay_[d[p]]) ++p;
      if (p == n) break;
    }
    s = trans[(s << shift_) | byte_class_[d[p++]]];
    if (s >= out_min_) {
      any = 1;
      const std::uint32_t k = s - out_min_;
      for (std::uint32_t j = out_offsets_[k]; j < out_offsets_[k + 1]; ++j) {
        bitset_set(found, out_ids_[j]);
      }
    }
  }
  return any;
}

}  // namespace wss::match
