// A bounded multi-producer multi-consumer queue: the ring under
// stream::IngestRing, which `wss serve` gives each tenant.
//
// Two admission paths share one ring. push() and try_push_many()
// never evict: push() blocks while the queue is full, and
// try_push_many() admits what fits and reports the rest. The lossy
// alternative, push_evicting() / push_evicting_many(), never blocks:
// it evicts the oldest items to make room and reports exactly how many
// it evicted, so the caller can account for every drop. close() lets
// consumers drain the remaining items and then observe end-of-stream.
//
// Capacity must be a power of two: the ring index is computed with a
// mask instead of a modulo, and an accidental capacity like 1000 (that
// silently wastes the rounding) is rejected loudly at construction.
// Synchronization is one mutex + two condition variables around the
// ring; the bulk forms take the lock once per batch.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace wss::core {

template <typename T>
class MpmcQueue {
 public:
  /// Returned by push_evicting when the queue was closed.
  static constexpr std::size_t kClosed =
      std::numeric_limits<std::size_t>::max();

  /// Smallest power of two >= n (and >= 1). Use to derive a valid
  /// capacity from a size that is merely a scale hint.
  static constexpr std::size_t next_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  /// `capacity` must be a power of two >= 1; pushes beyond it block
  /// (push) or evict (push_evicting). Throws std::invalid_argument on
  /// zero or non-power-of-two capacities.
  explicit MpmcQueue(std::size_t capacity)
      : capacity_(capacity), mask_(capacity - 1) {
    if (capacity == 0 || (capacity & (capacity - 1)) != 0) {
      throw std::invalid_argument(
          "MpmcQueue: capacity must be a power of two >= 1");
    }
    ring_.resize(capacity_);
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  /// Blocks while full. Returns false (and drops the item) if the
  /// queue was closed.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return size_ < capacity_ || closed_; });
    if (closed_) return false;
    ring_[(head_ + size_) & mask_] = std::move(item);
    ++size_;
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-evicting bulk push: admits items[from..to) into the queue
  /// until it is full and returns how many were accepted (0 when
  /// full). Never blocks and never evicts -- admission happens under
  /// the queue's own lock, so concurrent producers cannot both observe
  /// "one slot left" and overfill (the race a has-room probe followed
  /// by a separate push would reintroduce). A closed queue discards
  /// the remainder and reports it accepted: the stream is over and
  /// retrying is pointless, which matches push()'s drop-on-closed.
  ///
  /// Admission SWAPS rather than moves: the caller's slot receives
  /// whatever the ring slot held -- for T with heap payloads (e.g. a
  /// StreamItem's line string) that is a retired buffer a pop_many_swap
  /// consumer parked there, so a producer that reuses its batch
  /// elements in place gets its allocations back instead of paying a
  /// malloc per item and leaving a cross-thread free to the consumer.
  std::size_t try_push_many(std::vector<T>& items, std::size_t from,
                            std::size_t to) {
    std::size_t n = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        for (std::size_t i = from; i < to; ++i) items[i] = T();
        return to - from;
      }
      n = std::min(capacity_ - size_, to - from);
      for (std::size_t i = 0; i < n; ++i) {
        using std::swap;
        swap(ring_[(head_ + size_) & mask_], items[from + i]);
        ++size_;
      }
    }
    if (n > 0) not_empty_.notify_one();
    return n;
  }

  /// Bulk push_evicting: every item in items[from..to) enters the
  /// queue; the oldest residents are evicted to make room (a batch
  /// larger than the capacity evicts its own head -- still
  /// drop-oldest). Returns the eviction count (kClosed when closed;
  /// nothing is pushed or evicted). One lock acquisition per batch.
  /// Swaps on admission, like try_push_many.
  std::size_t push_evicting_many(std::vector<T>& items, std::size_t from,
                                 std::size_t to) {
    std::size_t evicted = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return kClosed;
      for (std::size_t i = from; i < to; ++i) {
        while (size_ >= capacity_) {
          ring_[head_] = T();
          head_ = (head_ + 1) & mask_;
          --size_;
          ++evicted;
        }
        using std::swap;
        swap(ring_[(head_ + size_) & mask_], items[i]);
        ++size_;
      }
      evicted_total_ += evicted;
    }
    not_empty_.notify_one();
    return evicted;
  }

  /// Never blocks: while the queue is full, evicts the oldest item to
  /// make room (drop-oldest backpressure). Returns the number of items
  /// evicted (0 when there was room), or kClosed if the queue was
  /// closed (the item is dropped and nothing is evicted). Eviction and
  /// insertion happen under one lock, and evicted_total() is updated
  /// under that same lock -- so the running total is exact at every
  /// instant, even while other producers push and consumers pop
  /// concurrently (a caller-side atomic added after return would lag
  /// the queue's real state between the unlock and the add).
  std::size_t push_evicting(T item) {
    std::size_t evicted = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return kClosed;
      while (size_ >= capacity_) {
        ring_[head_] = T();  // release the oldest item's resources
        head_ = (head_ + 1) & mask_;
        --size_;
        ++evicted;
      }
      evicted_total_ += evicted;
      ring_[(head_ + size_) & mask_] = std::move(item);
      ++size_;
    }
    not_empty_.notify_one();
    return evicted;
  }

  /// Blocks while empty. Returns nullopt once the queue is closed AND
  /// drained -- items pushed before close() are always delivered.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return size_ > 0 || closed_; });
    if (size_ == 0) return std::nullopt;
    T item = std::move(ring_[head_]);
    head_ = (head_ + 1) & mask_;
    --size_;
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Recycling bulk pop: blocks while empty, then swaps up to `max`
  /// items into out[0..n) under one lock (out is grown to `max` first
  /// if needed; elements beyond n are untouched). Returns n; 0 means
  /// closed AND drained. The consumer's previously-processed elements
  /// land in the vacated ring slots, where the next try_push_many /
  /// push_evicting_many hands their heap buffers back to a producer --
  /// the other half of the allocation-recycling loop. A consumer that
  /// keeps one vector alive across calls therefore reaches a steady
  /// state with no per-item allocation on either side of the ring.
  std::size_t pop_many_swap(std::vector<T>& out, std::size_t max) {
    if (out.size() < max) out.resize(max);
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return size_ > 0 || closed_; });
    const std::size_t n = std::min(size_, max);
    for (std::size_t i = 0; i < n; ++i) {
      using std::swap;
      swap(out[i], ring_[head_]);
      head_ = (head_ + 1) & mask_;
      --size_;
    }
    lock.unlock();
    if (n > 0) not_full_.notify_all();
    return n;
  }

  /// Ends the stream: blocked producers give up, consumers drain what
  /// remains and then see end-of-stream.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  std::size_t capacity() const { return capacity_; }

  /// Instantaneous occupancy (a snapshot; racy by nature).
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  /// Exact number of items ever evicted by push_evicting. Maintained
  /// under the queue lock, so (items popped) + evicted_total() +
  /// (items resident) == items pushed holds at any observation point.
  std::uint64_t evicted_total() const {
    std::lock_guard<std::mutex> lock(mu_);
    return evicted_total_;
  }

 private:
  const std::size_t capacity_;
  const std::size_t mask_;
  std::vector<T> ring_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t evicted_total_ = 0;
  bool closed_ = false;
};

}  // namespace wss::core
