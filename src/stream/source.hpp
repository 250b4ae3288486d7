// Bounded ingestion front-end for a live network source.
//
// Each `wss serve` tenant owns one ring: its connections push
// StreamItems into it and the tenant's consumer thread pops them into
// the engine. `wss stream` uses no ring: its replay and file sources
// run the engine inline on the calling thread, so a slow engine slows
// the source down and no line is ever dropped.
//
// Backpressure is explicit and accounted. BackpressurePolicy::kBlock
// stalls the producer when the consumer falls behind (lossless).
// kDropOldest never blocks -- the ring evicts its oldest unconsumed
// items to make room and counts every eviction, so a slow consumer
// under a live source degrades to a sampled stream with an exact,
// queryable drop count. Nothing is ever dropped silently. Serve's TCP
// path admits lossless batches (try_push_batch) and pauses the
// connection when the ring is full. Its UDP path cannot push back on
// the sender, so it evicts (push_batch_evicting), as does a drain
// deadline's last flush; UDP is where the paper's syslog loss occurs.
//
// The ring is core::MpmcQueue with the lossy push_evicting() path
// enabled by policy.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/mpmc_queue.hpp"
#include "sim/process.hpp"

namespace wss::stream {

/// One unit of ingestion: the event plus its rendered line. From a
/// network connection only `line` is meaningful (the event is
/// synthesized by the engine after parsing).
struct StreamItem {
  std::uint64_t index = 0;  ///< position in the source stream
  sim::SimEvent event;
  std::string line;
  /// Wall-clock send stamp (microseconds since epoch) carried by a
  /// latency-stamping network client; 0 = unstamped. The consumer
  /// subtracts it from its own clock to observe end-to-end ingest
  /// latency (net/tenant.cpp).
  std::int64_t client_us = 0;
};

/// What to do when the ring is full and the producer has a new item.
enum class BackpressurePolicy : std::uint8_t {
  kBlock = 0,       ///< stall the producer (lossless)
  kDropOldest = 1,  ///< evict oldest unconsumed items; count each drop
};

/// Fixed-capacity ingestion ring with accounted backpressure.
class IngestRing {
 public:
  /// `capacity_hint` is rounded up to the next power of two (the
  /// queue's invariant); the effective bound is capacity().
  IngestRing(std::size_t capacity_hint, BackpressurePolicy policy);

  /// Producer side. Applies the policy; returns false only when the
  /// ring was closed (the item is discarded, not counted as dropped).
  bool push(StreamItem item);

  /// Non-evicting bulk admission: swaps items[from..to) in until the
  /// ring is full, returning how many were accepted. The check and the
  /// insert share the queue's lock, so concurrent producers can never
  /// overfill (the lossless-TCP admission path -- policy-independent
  /// because nothing is ever evicted here). A closed ring discards the
  /// rest and reports it accepted. Admitted elements receive retired
  /// ring-slot payloads back (see MpmcQueue::try_push_many), so
  /// producers that reuse their batch storage skip the per-line
  /// allocation.
  std::size_t try_push_batch(std::vector<StreamItem>& items,
                             std::size_t from, std::size_t to) {
    return queue_.try_push_many(items, from, to);
  }

  /// Evicting bulk push (kDropOldest semantics regardless of policy):
  /// every item enters; evictions are counted exactly and mirrored to
  /// the stream drop counter. Returns the eviction count (0 when the
  /// ring was closed -- nothing entered, nothing dropped).
  std::size_t push_batch_evicting(std::vector<StreamItem>& items,
                                  std::size_t from, std::size_t to);

  /// Consumer side: blocks while empty, nullopt at end-of-stream.
  std::optional<StreamItem> pop() { return queue_.pop(); }

  /// Recycling bulk consumer: swaps up to `max` items into out[0..n),
  /// parking the caller's processed elements in the vacated slots so
  /// the next batch admission hands their line buffers back to a
  /// producer (MpmcQueue::pop_many_swap). 0 = closed and drained.
  std::size_t pop_many_swap(std::vector<StreamItem>& out, std::size_t max) {
    return queue_.pop_many_swap(out, max);
  }

  /// Ends the stream; consumers drain what remains.
  void close() { queue_.close(); }

  std::size_t capacity() const { return queue_.capacity(); }
  std::size_t size() const { return queue_.size(); }
  BackpressurePolicy policy() const { return policy_; }

  /// Exact number of items evicted under kDropOldest so far. Reads the
  /// queue's own lock-protected total, so the invariant
  /// popped + dropped() + resident == pushed holds at every instant
  /// (an external tally bumped after push_evicting returned would lag
  /// the queue between the eviction and the add).
  std::uint64_t dropped() const { return queue_.evicted_total(); }

 private:
  core::MpmcQueue<StreamItem> queue_;
  BackpressurePolicy policy_;
};

}  // namespace wss::stream
