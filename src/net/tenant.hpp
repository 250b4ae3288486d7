// Per-tenant stream engines for the ingest server.
//
// A tenant is one customer's log stream: its own tag ruleset (via the
// tenant's SystemId), its own stream::StreamPipeline, its own bounded
// stream::IngestRing, and its own consumer thread. Tenants share
// nothing but the process -- two tenants' tables can never cross
// because no object is reachable from both (the isolation test pins
// this end to end).
//
// Threading contract:
//   * The enqueue side (try_enqueue_batch/enqueue_batch_evicting/
//     take_ring_drops) may be called from ANY event-loop shard
//     concurrently: admission happens under the ring's own lock, and
//     nothing per line is shared across shards -- that queue lock,
//     taken once per batch, is the only synchronization point.
//   * The consumer thread owns the pipeline exclusively until
//     close_and_join() returns.
//   * The consumer also writes event-loop shards' wake pipes: a shard
//     that pauses a connection on this tenant's full ring sets its bit
//     in resume_waiters_ (watch_resume), and after each pop that
//     leaves the ring at or below half the consumer clears the mask
//     and calls the server's ShardWaker once per flagged shard. That
//     wake, not the loop's timer, is what resumes a paused TCP
//     connection.
//   * The live stats (ingested/admitted/watermark) are relaxed atomics
//     maintained by the consumer, readable from any thread -- they
//     feed /status while ingest is running.
//
// Backpressure is the IngestRing's accounted drop-oldest policy: the
// event loop must never block, so a stalled tenant degrades to a
// sampled stream with an exact drop count (and TCP connections are
// paused *before* pushing once the ring is full, so TCP traffic into
// a healthy tenant is lossless -- see server.cpp). TCP batches go
// through the non-evicting try_enqueue_batch, whose room check and
// insert share the ring lock, so two shards racing for the last slots
// can never evict.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "stream/pipeline.hpp"
#include "stream/source.hpp"

namespace wss::net {

struct TenantConfig {
  std::string name;
  parse::SystemId system = parse::SystemId::kLiberty;
  int start_year = 0;            ///< 0 = the system spec's start year
  double threshold_s = 5.0;      ///< filter T
  double window_s = 3600.0;      ///< live-rate window
  std::size_t queue_capacity = 4096;

  /// Chaos/test knob: the consumer sleeps this long per ingested line,
  /// turning the tenant into a deterministic slow consumer for the
  /// backpressure suite (0 in production).
  std::uint64_t ingest_delay_us = 0;

  /// Online failure prediction for this tenant's pipeline (the serve
  /// --predict family maps onto these via tenant_defaults).
  bool predict = false;
  std::size_t predict_train = 4096;
  util::TimeUs predict_horizon_us = 10 * util::kUsPerMin;
};

/// Wakes event-loop shard `shard` (one byte on its wake pipe). Called
/// from the tenant's consumer thread.
using ShardWaker = std::function<void(std::size_t shard)>;

class Tenant {
 public:
  explicit Tenant(const TenantConfig& cfg);
  ~Tenant();

  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  /// Spawns the consumer thread, which calls `wake` for every shard
  /// registered through watch_resume once the ring has drained. Call
  /// once.
  void start(ShardWaker wake);

  // ---- Event-loop side (any shard) ----

  /// True once the ring has drained to half: the resume threshold for
  /// a paused TCP connection (hysteresis: pause at full, resume at
  /// half, so a borderline ring doesn't flap every frame). Reads the
  /// occupancy under the ring lock.
  bool resume_ready() const { return ring_.size() <= ring_.capacity() / 2; }

  /// Registers shard `shard` (< 64) for a wake once the ring is
  /// resume_ready(). Call it *before* checking resume_ready(): either
  /// that check sees the drained ring, or the ring still holds items
  /// whose later pop is ordered after this call by the ring lock, and
  /// the consumer's mask read after that pop sees the bit. No wake is
  /// lost between the two.
  void watch_resume(std::size_t shard) {
    resume_waiters_.fetch_or(std::uint64_t{1} << shard);
  }

  /// Lossless bulk hand-off (the TCP path): swaps items[from..to) into
  /// the ring until it is full and returns how many were accepted --
  /// never evicts. A short count is the pause-read signal; the caller
  /// keeps the remainder and retries after the ring drains. Admitted
  /// elements get retired line buffers swapped back (see
  /// IngestRing::try_push_batch), so callers reusing their batch
  /// storage in place allocate nothing per line at steady state.
  std::size_t try_enqueue_batch(std::vector<stream::StreamItem>& items,
                                std::size_t from, std::size_t to);

  /// Lossy bulk hand-off (UDP datagrams, drain-deadline flushes):
  /// every item in [from..to) enters, oldest residents are evicted
  /// with each eviction counted (take_ring_drops publishes them).
  void enqueue_batch_evicting(std::vector<stream::StreamItem>& items,
                              std::size_t from, std::size_t to);

  /// Ring evictions since the last publication, pushed to the
  /// tenant's dropped counter. Safe from any shard concurrently (the
  /// publication watermark is advanced by CAS, so each eviction is
  /// published exactly once).
  std::uint64_t take_ring_drops();

  // ---- Drain ----

  /// Closes the ring, joins the consumer (which finishes the
  /// pipeline), and publishes final metrics. Idempotent.
  void close_and_join();

  /// Final snapshot (valid after close_and_join); `dropped` carries
  /// the ring's total eviction count.
  stream::StreamSnapshot final_snapshot() const;

  /// The final per-tenant report table -- byte-identical to what
  /// `wss stream --in <same delivered lines>` prints.
  std::string render_final() const;

  /// Serializes the drained pipeline (valid after close_and_join).
  void save_checkpoint(std::ostream& os);

  // ---- Live stats (any thread) ----
  std::uint64_t enqueued() const {
    return enqueued_.load(std::memory_order_relaxed);
  }
  std::uint64_t ingested() const {
    return ingested_.load(std::memory_order_relaxed);
  }
  std::uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  std::int64_t watermark_us() const {
    return watermark_.load(std::memory_order_relaxed);
  }
  std::uint64_t ring_dropped() const { return ring_.dropped(); }
  std::size_t ring_size() const { return ring_.size(); }
  std::size_t ring_capacity() const { return ring_.capacity(); }

  // Prediction live stats (zero unless config().predict).
  bool predict_enabled() const { return cfg_.predict; }
  std::uint64_t predict_issued() const {
    return predict_issued_.load(std::memory_order_relaxed);
  }
  std::uint64_t predict_hits() const {
    return predict_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t predict_misses() const {
    return predict_misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t predict_false_alarms() const {
    return predict_false_alarms_.load(std::memory_order_relaxed);
  }
  std::uint64_t predict_incidents() const {
    return predict_incidents_.load(std::memory_order_relaxed);
  }

  const std::string& name() const { return cfg_.name; }
  parse::SystemId system() const { return cfg_.system; }
  const TenantConfig& config() const { return cfg_; }

 private:
  void consume();
  void wake_resume_waiters();
  void publish_predict_stats();

  TenantConfig cfg_;
  stream::IngestRing ring_;
  stream::StreamPipeline pipeline_;
  ShardWaker wake_;
  /// One bit per event-loop shard waiting for ring room (shards are
  /// capped at 64). Shards set bits, only the consumer clears them.
  std::atomic<std::uint64_t> resume_waiters_{0};
  std::thread consumer_;
  bool joined_ = false;

  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> ingested_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::int64_t> watermark_{0};

  /// Published-drop watermark; advanced by CAS so concurrent shards
  /// (or an HTTP scrape racing a tick) never double-publish.
  std::atomic<std::uint64_t> published_ring_drops_{0};

  // Cached per-tenant metric handles (registration is cold).
  obs::Counter& delivered_ctr_;
  obs::Counter& dropped_ctr_;
  obs::Counter& ingested_ctr_;
  /// Client-stamp -> engine-consume ingest latency, observed by the
  /// consumer for stamped lines (sampled 1-in-16; observe() is a
  /// bucket scan and the consumer is the throughput-critical side).
  obs::Histogram& ingest_latency_;

  // Prediction stats mirrored for /status (consumer writes, any thread
  // reads) and the per-tenant wss_predict_* counters (registered only
  // when prediction is on; delta-published by the consumer against the
  // pub_* baselines, which only the consumer touches).
  std::atomic<std::uint64_t> predict_issued_{0};
  std::atomic<std::uint64_t> predict_hits_{0};
  std::atomic<std::uint64_t> predict_misses_{0};
  std::atomic<std::uint64_t> predict_false_alarms_{0};
  std::atomic<std::uint64_t> predict_incidents_{0};
  obs::Counter* predict_issued_ctr_ = nullptr;
  obs::Counter* predict_hits_ctr_ = nullptr;
  obs::Counter* predict_misses_ctr_ = nullptr;
  obs::Counter* predict_false_alarms_ctr_ = nullptr;
  std::uint64_t pub_predict_issued_ = 0;
  std::uint64_t pub_predict_hits_ = 0;
  std::uint64_t pub_predict_misses_ = 0;
  std::uint64_t pub_predict_false_alarms_ = 0;
};

}  // namespace wss::net
