#include "obs/metrics.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace wss::obs {

namespace detail {

std::size_t stripe_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterStripes;
  return idx;
}

}  // namespace detail

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1, 0);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::uint64_t MetricsSnapshot::counter_or_zero(std::string_view name) const {
  for (const CounterValue& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

Registry& Registry::global() {
  static Registry* r = new Registry();  // never destroyed: handles and
  return *r;                            // thread traces outlive main()
}

Registry& registry() { return Registry::global(); }

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter(std::string(name))))
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::unique_ptr<Gauge>(new Gauge(std::string(name))))
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(
                          new Histogram(std::string(name), std::move(bounds))))
             .first;
  }
  return *it->second;
}

namespace {

/// Span aggregation across threads: same name chain -> one node.
struct SpanAgg {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::map<std::string, SpanAgg> kids;
};

void merge_trace(const TraceNode& node, SpanAgg& into) {
  for (const auto& child : node.children) {
    SpanAgg& agg = into.kids[child->name];
    agg.count += child->count.load(std::memory_order_relaxed);
    agg.total_ns += child->total_ns.load(std::memory_order_relaxed);
    merge_trace(*child, agg);
  }
}

void flatten_spans(const SpanAgg& agg, const std::string& prefix,
                   std::vector<SpanStats>& out) {
  for (const auto& [name, kid] : agg.kids) {
    const std::string path = prefix.empty() ? name : prefix + "/" + name;
    out.push_back({path, kid.count, kid.total_ns});
    flatten_spans(kid, path, out);
  }
}

void reset_trace(TraceNode& node) {
  node.count.store(0, std::memory_order_relaxed);
  node.total_ns.store(0, std::memory_order_relaxed);
  for (auto& child : node.children) reset_trace(*child);
}

}  // namespace

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    s.counters.push_back({name, c->value()});
  }
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    s.gauges.push_back({name, g->value()});
  }
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramValue v;
    v.name = name;
    v.bounds = h->bounds();
    v.counts = h->bucket_counts();
    v.count = h->count();
    v.sum = h->sum();
    s.histograms.push_back(std::move(v));
  }
  SpanAgg root;
  for (const auto& trace : traces_) merge_trace(trace->root, root);
  flatten_spans(root, "", s.spans);
  return s;
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counter_values()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, std::int64_t>> Registry::gauge_values()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::int64_t>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

void Registry::set_counter(std::string_view name, std::uint64_t v) {
  counter(name).set(v);
}

void Registry::set_gauge(std::string_view name, std::int64_t v) {
  gauge(name).set(v);
}

void Registry::add_counter(std::string_view name, std::uint64_t delta) {
  counter(name).inc(delta);
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->set(0);
  for (auto& [name, g] : gauges_) g->set(0);
  for (auto& [name, h] : histograms_) {
    for (std::size_t i = 0; i <= h->bounds_.size(); ++i) h->counts_[i] = 0;
    h->count_.store(0, std::memory_order_relaxed);
    h->sum_.store(0.0, std::memory_order_relaxed);
  }
  for (auto& trace : traces_) reset_trace(trace->root);
}

ThreadTrace& Registry::thread_trace() {
  thread_local ThreadTrace* mine = nullptr;
  if (mine == nullptr) {
    auto owned = std::make_unique<ThreadTrace>();
    mine = owned.get();
    std::lock_guard<std::mutex> lock(mu_);
    traces_.push_back(std::move(owned));
  }
  return *mine;
}

Counter& labeled_counter(std::string_view base, std::string_view key,
                         std::uint64_t value) {
  const std::string name =
      util::format("%.*s{%.*s=\"%llu\"}", static_cast<int>(base.size()),
                   base.data(), static_cast<int>(key.size()), key.data(),
                   static_cast<unsigned long long>(value));
  return registry().counter(name);
}

const std::vector<double>& latency_bounds_seconds() {
  static const std::vector<double> bounds = {
      2.5e-7, 1e-6, 4e-6, 1.6e-5, 6.4e-5, 2.56e-4,
      1.024e-3, 4.096e-3, 1.6384e-2, 6.5536e-2, 2.62144e-1};
  return bounds;
}

const std::vector<double>& lead_time_bounds_seconds() {
  static const std::vector<double> bounds = {1,   5,   15,   60,
                                             300, 900, 3600, 14400};
  return bounds;
}

}  // namespace wss::obs
