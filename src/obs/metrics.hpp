// Process-wide observability registry: counters, gauges, histograms,
// and the span trace tree (obs/span.hpp).
//
// The paper's Section 3.2 lesson -- you cannot trust a log you cannot
// measure -- applies to the pipelines themselves: an end-to-end
// throughput number alone does not explain where events and time go
// inside a run. Every stage (pipeline, stream, filter, tag) publishes
// named metrics here; `wss <cmd> --metrics FILE` snapshots them as
// JSON or Prometheus text (obs/export.hpp).
//
// Design constraints, in order:
//
//  1. *The hot path is a relaxed atomic add.* Counter::inc() touches
//     one cache-line-private stripe (16 stripes, one chosen per thread
//     at first use), so concurrent workers never contend on a line.
//     value() sums the stripes; totals are exact at quiescence, which
//     is the only time anything reads them.
//  2. *Registration is cold, handles are hot.* Looking a metric up by
//     name takes the registry mutex; callers do it once and cache the
//     Counter*/Gauge*/Histogram* (handles are stable for the process
//     lifetime -- the registry never deletes a metric, reset() only
//     zeroes values).
//  3. *Determinism-friendly.* Counters count events, not time, so the
//     pipeline counters are bit-identical at any thread count and
//     across batch/stream runs (tests/test_obs_determinism.cpp).
//     Wall-clock lives only in histograms and spans, which the
//     determinism and checkpoint contracts exclude.
//
// The checkpoint integration (stream/pipeline.cpp) serializes
// counter_values()/gauge_values() and restores them with set_counter/
// set_gauge, so a restored-and-finished stream reports the same
// counters as an uninterrupted one. Histograms and spans are NOT
// checkpointed: they measure this process's wall time.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wss::obs {

/// Stripes per counter. Enough that a machine-sized worker pool rarely
/// shares one; small enough that 100 counters cost ~100 KiB.
inline constexpr std::size_t kCounterStripes = 16;

namespace detail {
/// This thread's stripe index, assigned round-robin at first use.
std::size_t stripe_index();
}  // namespace detail

/// Monotonic event counter. inc() is wait-free (one relaxed fetch_add
/// on a thread-striped cell); value() is exact once writers quiesce.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    cells_[detail::stripe_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

  /// Overwrites the total (checkpoint restore / registry reset). Only
  /// meaningful at quiescence; concurrent inc()s may be lost.
  void set(std::uint64_t v) noexcept {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
    cells_[0].v.store(v, std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };

  std::string name_;
  std::array<Cell, kCounterStripes> cells_{};
};

/// Last-writer-wins instantaneous value (occupancy, watermark).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram (Prometheus-style cumulative-le semantics on
/// export; stored as per-bucket counts here). Bounds are upper bounds,
/// ascending; values above the last bound land in the implicit +Inf
/// bucket. observe() is a bucket scan plus relaxed adds -- cheap, but
/// meant for sampled or cold paths, not per-event hot loops.
class Histogram {
 public:
  void observe(double v) noexcept {
    std::size_t b = 0;
    while (b < bounds_.size() && v > bounds_[b]) ++b;
    counts_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
  }

  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Per-bucket (non-cumulative) counts; size() == bounds().size() + 1.
  std::vector<std::uint64_t> bucket_counts() const;

  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  Histogram(std::string name, std::vector<double> bounds);

  std::string name_;
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// One merged span-tree node in a snapshot: path is the "/"-joined
/// name chain, aggregated across every thread that ran the span.
struct SpanStats {
  std::string path;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

/// Point-in-time copy of every metric, sorted by name (map order) --
/// the unit of export and of test assertions.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    std::int64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 buckets
    std::uint64_t count = 0;
    double sum = 0.0;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
  std::vector<SpanStats> spans;  ///< pre-order over the merged trace tree

  /// Counter lookup by full name; 0 when absent (convenience for
  /// tests).
  std::uint64_t counter_or_zero(std::string_view name) const;
};

// ---- Trace tree (see obs/span.hpp for the RAII front-end) ----

/// One node of a thread's span tree. Children are appended only by the
/// owning thread *under the registry mutex* (so snapshot() can walk
/// concurrently); count/total_ns are relaxed atomics. Nodes are never
/// removed -- reset() zeroes them in place, keeping every Span's
/// cached pointer valid.
struct TraceNode {
  const char* name = nullptr;  ///< string literal supplied by Span
  TraceNode* parent = nullptr;
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
  std::vector<std::unique_ptr<TraceNode>> children;
};

/// Per-thread trace root, owned by the registry (so it outlives the
/// thread). `current` is touched only by the owning thread.
struct ThreadTrace {
  TraceNode root;
  TraceNode* current = &root;
};

/// The process-wide metric registry. All lookups are by full name,
/// label included -- e.g. `wss_filter_admitted_total{category="3"}` is
/// simply a counter whose name carries its Prometheus label.
class Registry {
 public:
  /// The one registry every instrumentation site and `--metrics` use.
  static Registry& global();

  /// Finds or creates. Handles are stable for the process lifetime;
  /// cache them on hot paths. A name resolves within its own kind only
  /// (counter/gauge/histogram namespaces are distinct -- don't reuse a
  /// name across kinds, exports would collide).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` is used on first registration only; later calls return
  /// the existing histogram regardless.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Full copy of everything, spans merged across threads.
  MetricsSnapshot snapshot() const;

  /// Counters/gauges as sorted (name, value) pairs -- the checkpoint
  /// payload.
  std::vector<std::pair<std::string, std::uint64_t>> counter_values() const;
  std::vector<std::pair<std::string, std::int64_t>> gauge_values() const;

  /// Checkpoint-restore: registers the metric if needed and overwrites
  /// its value.
  void set_counter(std::string_view name, std::uint64_t v);
  void set_gauge(std::string_view name, std::int64_t v);

  /// Distributed-merge fold: registers the counter if needed and adds a
  /// worker's delta to it, so a merged study reports the same totals as
  /// a batch run.
  void add_counter(std::string_view name, std::uint64_t delta);

  /// Zeroes every counter, gauge, histogram, and span node in place.
  /// Registrations and handles survive. Call only at quiescence (no
  /// concurrent writers, no open spans) -- tests use this to isolate
  /// runs.
  void reset();

  /// This thread's trace root, lazily created and registered. Used by
  /// Span; exposed for tests.
  ThreadTrace& thread_trace();

 private:
  friend class Span;
  Registry() = default;

  Histogram* find_histogram(std::string_view name) const;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::vector<std::unique_ptr<ThreadTrace>> traces_;
};

/// Shorthand for Registry::global().
Registry& registry();

/// Counter whose name carries a Prometheus label with a small-integer
/// value: labeled_counter("wss_filter_admitted_total", "category", 3)
/// -> `wss_filter_admitted_total{category="3"}`. Registration-cost
/// lookup; cache the handle or call it only on cold paths.
Counter& labeled_counter(std::string_view base, std::string_view key,
                         std::uint64_t value);

/// Default latency bucket bounds in seconds: 250ns..~0.5s, roughly
/// quadrupling. Shared by the stream ingest histogram and tests.
const std::vector<double>& latency_bounds_seconds();

/// Lead-time bucket bounds in seconds for prediction histograms:
/// 1s..4h. Lead times are stream-time deltas (incident time minus
/// prediction issue time), so the scale is operational, not I/O.
const std::vector<double>& lead_time_bounds_seconds();

}  // namespace wss::obs
