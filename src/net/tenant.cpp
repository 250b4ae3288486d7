#include "net/tenant.hpp"

#include <bit>
#include <chrono>

#include "util/strings.hpp"
#include "stream/report.hpp"

namespace wss::net {

namespace {

constexpr std::size_t kConsumeBatch = 256;

obs::Counter& tenant_counter(const char* base, const std::string& tenant) {
  return obs::registry().counter(
      util::format("%s{tenant=\"%s\"}", base, tenant.c_str()));
}

obs::Histogram& tenant_latency_histogram(const std::string& tenant) {
  return obs::registry().histogram(
      util::format("wss_net_ingest_latency_seconds{tenant=\"%s\"}",
                   tenant.c_str()),
      obs::latency_bounds_seconds());
}

std::int64_t wall_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

stream::StreamPipelineOptions pipeline_options(const TenantConfig& cfg) {
  stream::StreamPipelineOptions popts;
  popts.study.threshold_us =
      static_cast<util::TimeUs>(cfg.threshold_s * 1e6);
  popts.study.window_us = static_cast<util::TimeUs>(cfg.window_s * 1e6);
  // Network lines are parsed real logs: same semantics as
  // `wss stream --in` (that equivalence is the round-trip proof).
  popts.strict_order = false;
  popts.start_year = cfg.start_year;
  popts.predict.enabled = cfg.predict;
  popts.predict.train_alerts = cfg.predict_train;
  popts.predict.horizon_us = cfg.predict_horizon_us;
  return popts;
}

}  // namespace

Tenant::Tenant(const TenantConfig& cfg)
    : cfg_(cfg),
      ring_(cfg.queue_capacity, stream::BackpressurePolicy::kDropOldest),
      pipeline_(cfg.system, pipeline_options(cfg)),
      delivered_ctr_(tenant_counter("wss_net_delivered_total", cfg.name)),
      dropped_ctr_(tenant_counter("wss_net_dropped_total", cfg.name)),
      ingested_ctr_(tenant_counter("wss_net_ingested_total", cfg.name)),
      ingest_latency_(tenant_latency_histogram(cfg.name)) {
  pipeline_.set_alert_sink([this](const filter::Alert&) {
    admitted_.fetch_add(1, std::memory_order_relaxed);
  });
  if (cfg_.predict) {
    predict_issued_ctr_ =
        &tenant_counter("wss_predict_issued_total", cfg.name);
    predict_hits_ctr_ = &tenant_counter("wss_predict_hits_total", cfg.name);
    predict_misses_ctr_ =
        &tenant_counter("wss_predict_misses_total", cfg.name);
    predict_false_alarms_ctr_ =
        &tenant_counter("wss_predict_false_alarms_total", cfg.name);
  }
}

Tenant::~Tenant() { close_and_join(); }

void Tenant::start(ShardWaker wake) {
  wake_ = std::move(wake);
  consumer_ = std::thread([this] { consume(); });
}

std::size_t Tenant::try_enqueue_batch(std::vector<stream::StreamItem>& items,
                                      std::size_t from, std::size_t to) {
  const std::size_t accepted = ring_.try_push_batch(items, from, to);
  if (accepted > 0) {
    enqueued_.fetch_add(accepted, std::memory_order_relaxed);
    delivered_ctr_.inc(accepted);
  }
  return accepted;
}

void Tenant::enqueue_batch_evicting(std::vector<stream::StreamItem>& items,
                                    std::size_t from, std::size_t to) {
  const std::size_t n = to - from;
  if (n == 0) return;
  ring_.push_batch_evicting(items, from, to);
  enqueued_.fetch_add(n, std::memory_order_relaxed);
  delivered_ctr_.inc(n);
}

std::uint64_t Tenant::take_ring_drops() {
  const std::uint64_t total = ring_.dropped();
  std::uint64_t prev = published_ring_drops_.load(std::memory_order_relaxed);
  for (;;) {
    if (prev >= total) return 0;
    if (published_ring_drops_.compare_exchange_weak(
            prev, total, std::memory_order_relaxed)) {
      dropped_ctr_.inc(total - prev);
      return total - prev;
    }
  }
}

void Tenant::consume() {
  // One vector for the whole stream: pop_many_swap parks the previous
  // batch's processed items in the vacated ring slots, where the next
  // admission hands their line buffers back to a producer -- at steady
  // state neither side of the ring allocates per line.
  std::vector<stream::StreamItem> batch(kConsumeBatch);
  std::uint64_t n = 0;
  for (;;) {
    const std::size_t got = ring_.pop_many_swap(batch, kConsumeBatch);
    if (got == 0) break;
    // Wake paused producers before ingesting, so their refill overlaps
    // this batch's work.
    wake_resume_waiters();
    for (std::size_t i = 0; i < got; ++i) {
      stream::StreamItem& item = batch[i];
      if (cfg_.ingest_delay_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(cfg_.ingest_delay_us));
      }
      pipeline_.ingest_line(item.line);
      // Stamps arrive pre-sampled (the client stamps 1-in-16), so
      // every stamped item is observed -- a clock read per stamp, not
      // per line.
      if (item.client_us > 0) {
        const std::int64_t now = wall_now_us();
        if (now >= item.client_us) {
          ingest_latency_.observe(
              static_cast<double>(now - item.client_us) * 1e-6);
        }
      }
      // Periodic publish keeps /metrics scrapes fresh to within a few
      // chunks even on an endless stream (finish() publishes the rest).
      if (++n % 65536 == 0) pipeline_.publish_metrics();
    }
    // Batch-granular accounting: one atomic add per pop, not per line.
    ingested_.fetch_add(got, std::memory_order_relaxed);
    ingested_ctr_.inc(got);
    watermark_.store(pipeline_.watermark(), std::memory_order_relaxed);
    publish_predict_stats();
  }
  pipeline_.finish();
  publish_predict_stats();
}

void Tenant::wake_resume_waiters() {
  // The mask load comes after the pop released the ring lock; that is
  // the consumer's half of the ordering documented at watch_resume.
  if (resume_waiters_.load() == 0 || !resume_ready()) return;
  std::uint64_t mask = resume_waiters_.exchange(0);
  while (mask != 0) {
    wake_(static_cast<std::size_t>(std::countr_zero(mask)));
    mask &= mask - 1;
  }
}

void Tenant::publish_predict_stats() {
  const stream::PredictStage* stage = pipeline_.predict_stage();
  if (stage == nullptr) return;
  const stream::PredictStats s = stage->stats();
  predict_issued_.store(s.issued, std::memory_order_relaxed);
  predict_hits_.store(s.hits, std::memory_order_relaxed);
  predict_misses_.store(s.misses, std::memory_order_relaxed);
  predict_false_alarms_.store(s.false_alarms, std::memory_order_relaxed);
  predict_incidents_.store(s.incidents, std::memory_order_relaxed);
  predict_issued_ctr_->inc(s.issued - pub_predict_issued_);
  predict_hits_ctr_->inc(s.hits - pub_predict_hits_);
  predict_misses_ctr_->inc(s.misses - pub_predict_misses_);
  predict_false_alarms_ctr_->inc(s.false_alarms -
                                 pub_predict_false_alarms_);
  pub_predict_issued_ = s.issued;
  pub_predict_hits_ = s.hits;
  pub_predict_misses_ = s.misses;
  pub_predict_false_alarms_ = s.false_alarms;
}

void Tenant::close_and_join() {
  if (joined_) return;
  ring_.close();
  if (consumer_.joinable()) consumer_.join();
  joined_ = true;
  // Late evictions (none should occur after close, but the accounting
  // must balance regardless).
  take_ring_drops();
}

stream::StreamSnapshot Tenant::final_snapshot() const {
  auto snap = pipeline_.snapshot();
  snap.dropped = ring_.dropped();
  return snap;
}

std::string Tenant::render_final() const {
  return stream::render_snapshot(final_snapshot());
}

void Tenant::save_checkpoint(std::ostream& os) { pipeline_.save(os); }

}  // namespace wss::net
