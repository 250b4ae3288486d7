#include "stream/source.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace wss::stream {

IngestRing::IngestRing(std::size_t capacity_hint, BackpressurePolicy policy)
    : queue_(core::MpmcQueue<StreamItem>::next_pow2(
          std::max<std::size_t>(1, capacity_hint))),
      policy_(policy) {}

bool IngestRing::push(StreamItem item) {
  if (policy_ == BackpressurePolicy::kBlock) {
    return queue_.push(std::move(item));
  }
  const std::size_t evicted = queue_.push_evicting(std::move(item));
  if (evicted == core::MpmcQueue<StreamItem>::kClosed) return false;
  if (evicted > 0) {
    // Exactness lives in the queue's lock-protected total (see
    // dropped()); this counter is the observability mirror.
    static obs::Counter& dropped_counter =
        obs::registry().counter("wss_stream_ring_dropped_total");
    dropped_counter.inc(evicted);
  }
  return true;
}

std::size_t IngestRing::push_batch_evicting(std::vector<StreamItem>& items,
                                            std::size_t from,
                                            std::size_t to) {
  const std::size_t evicted = queue_.push_evicting_many(items, from, to);
  if (evicted == core::MpmcQueue<StreamItem>::kClosed) return 0;
  if (evicted > 0) {
    static obs::Counter& dropped_counter =
        obs::registry().counter("wss_stream_ring_dropped_total");
    dropped_counter.inc(evicted);
  }
  return evicted;
}

}  // namespace wss::stream
