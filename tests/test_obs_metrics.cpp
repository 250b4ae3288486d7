// wss::obs primitives: counter striping, gauge semantics, histogram
// bucketing, registry identity/reset, and the JSON + Prometheus
// exporters.
//
// The registry is process-global, so every test either uses names
// private to itself or calls registry().reset() first.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/export.hpp"

namespace wss::obs {
namespace {

namespace fs = std::filesystem;

TEST(ObsCounter, IncAndSet) {
  Counter& c = registry().counter("wss_test_inc_total");
  c.set(0);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.set(7);  // overwrite clears every stripe, not just this thread's
  EXPECT_EQ(c.value(), 7u);
}

TEST(ObsCounter, ConcurrentIncrementsSumExactly) {
  Counter& c = registry().counter("wss_test_concurrent_total");
  c.set(0);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&c] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
      });
    }
  }
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsGauge, SetAddRestore) {
  Gauge& g = registry().gauge("wss_test_gauge");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(ObsHistogram, BucketAssignment) {
  Histogram& h = registry().histogram("wss_test_hist", {1.0, 10.0, 100.0});
  ASSERT_EQ(h.bounds().size(), 3u);
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // bounds are upper-inclusive: still bucket 0
  h.observe(5.0);    // (1, 10]
  h.observe(50.0);   // (10, 100]
  h.observe(1000.0); // +Inf bucket
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // bounds + implicit +Inf
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 50.0 + 1000.0);
}

TEST(ObsHistogram, LatencyBoundsAreAscending) {
  const auto& bounds = latency_bounds_seconds();
  ASSERT_GT(bounds.size(), 3u);
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
  EXPECT_GT(bounds.front(), 0.0);
  EXPECT_LT(bounds.back(), 10.0);  // ingest latencies live well below 10 s
}

TEST(ObsRegistry, SameNameSameHandle) {
  Counter& a = registry().counter("wss_test_identity_total");
  Counter& b = registry().counter("wss_test_identity_total");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = registry().gauge("wss_test_identity_gauge");
  Gauge& g2 = registry().gauge("wss_test_identity_gauge");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = registry().histogram("wss_test_identity_hist", {1.0});
  // Later bounds are ignored: the first registration wins.
  Histogram& h2 = registry().histogram("wss_test_identity_hist", {2.0, 3.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds(), std::vector<double>{1.0});
}

TEST(ObsRegistry, LabeledCounterNameFormat) {
  Counter& c = labeled_counter("wss_test_labeled_total", "category", 3);
  EXPECT_EQ(c.name(), "wss_test_labeled_total{category=\"3\"}");
  // Same (base, key, value) resolves to the same counter.
  EXPECT_EQ(&c, &labeled_counter("wss_test_labeled_total", "category", 3));
  EXPECT_NE(&c, &labeled_counter("wss_test_labeled_total", "category", 4));
}

TEST(ObsRegistry, CounterValuesSortedByName) {
  registry().counter("wss_test_zzz_total");
  registry().counter("wss_test_aaa_total");
  const auto values = registry().counter_values();
  EXPECT_TRUE(std::is_sorted(
      values.begin(), values.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
}

TEST(ObsRegistry, SetCounterCreatesAndOverwrites) {
  // set_counter is the checkpoint-restore path.
  registry().set_counter("wss_test_restored_total", 123);
  EXPECT_EQ(registry().counter("wss_test_restored_total").value(), 123u);
  registry().set_counter("wss_test_restored_total", 5);
  EXPECT_EQ(registry().counter("wss_test_restored_total").value(), 5u);
  registry().set_gauge("wss_test_restored_gauge", -9);
  EXPECT_EQ(registry().gauge("wss_test_restored_gauge").value(), -9);
}

TEST(ObsRegistry, ResetZeroesButKeepsHandles) {
  Counter& c = registry().counter("wss_test_reset_total");
  c.set(99);
  registry().reset();
  EXPECT_EQ(c.value(), 0u);
  // The registration survives: the same name still yields this handle.
  EXPECT_EQ(&c, &registry().counter("wss_test_reset_total"));
}

TEST(ObsSnapshot, CounterOrZero) {
  registry().set_counter("wss_test_snap_total", 17);
  const MetricsSnapshot snap = registry().snapshot();
  EXPECT_EQ(snap.counter_or_zero("wss_test_snap_total"), 17u);
  EXPECT_EQ(snap.counter_or_zero("wss_test_never_registered"), 0u);
}

TEST(ObsExport, JsonCarriesSchemaAndValues) {
  registry().reset();
  registry().set_counter("wss_json_c_total", 3);
  registry().set_gauge("wss_json_g", -2);
  const std::string json = to_json(registry().snapshot());
  EXPECT_NE(json.find("\"schema\": \"wss.obs.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"wss_json_c_total\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"wss_json_g\": -2"), std::string::npos);
  // Labels embed quotes; the exporter must escape them.
  registry().set_counter("wss_json_l_total{category=\"7\"}", 4);
  const std::string json2 = to_json(registry().snapshot());
  EXPECT_NE(json2.find("\"wss_json_l_total{category=\\\"7\\\"}\": 4"),
            std::string::npos);
}

TEST(ObsExport, PrometheusTextFormat) {
  registry().reset();
  registry().set_counter("wss_prom_c_total", 5);
  registry().set_counter("wss_prom_l_total{category=\"1\"}", 2);
  registry().set_counter("wss_prom_l_total{category=\"2\"}", 3);
  registry().set_gauge("wss_prom_g", 11);
  Histogram& h = registry().histogram("wss_prom_h", {1.0, 10.0});
  h.observe(0.5);
  h.observe(4.0);
  h.observe(40.0);
  const std::string prom = to_prometheus(registry().snapshot());

  EXPECT_NE(prom.find("# TYPE wss_prom_c_total counter"), std::string::npos);
  EXPECT_NE(prom.find("wss_prom_c_total 5\n"), std::string::npos);
  // One TYPE line per family, base name only, both labeled series listed.
  EXPECT_EQ(prom.find("# TYPE wss_prom_l_total counter"),
            prom.rfind("# TYPE wss_prom_l_total counter"));
  EXPECT_NE(prom.find("wss_prom_l_total{category=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("wss_prom_l_total{category=\"2\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE wss_prom_g gauge"), std::string::npos);
  EXPECT_NE(prom.find("wss_prom_g 11\n"), std::string::npos);
  // Histogram: cumulative le buckets ending in +Inf, plus _sum/_count.
  EXPECT_NE(prom.find("# TYPE wss_prom_h histogram"), std::string::npos);
  EXPECT_NE(prom.find("wss_prom_h_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(prom.find("wss_prom_h_bucket{le=\"10\"} 2\n"), std::string::npos);
  EXPECT_NE(prom.find("wss_prom_h_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("wss_prom_h_count 3\n"), std::string::npos);
}

class ObsExportFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("wss_obs_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::string slurp(const fs::path& p) {
    std::ifstream is(p, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
  }

  fs::path dir_;
};

TEST_F(ObsExportFileTest, WritesJsonAndPrometheusByExtension) {
  registry().reset();
  registry().set_counter("wss_file_c_total", 8);

  write_metrics_file((dir_ / "snap.json").string());
  const std::string json = slurp(dir_ / "snap.json");
  EXPECT_NE(json.find("\"schema\": \"wss.obs.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"wss_file_c_total\": 8"), std::string::npos);

  write_metrics_file((dir_ / "snap.prom").string());
  const std::string prom = slurp(dir_ / "snap.prom");
  EXPECT_EQ(prom.find("schema"), std::string::npos);
  EXPECT_NE(prom.find("wss_file_c_total 8\n"), std::string::npos);
}

TEST_F(ObsExportFileTest, ThrowsWhenPathUnwritable) {
  EXPECT_THROW(write_metrics_file((dir_ / "missing" / "x.json").string()),
               std::runtime_error);
}

}  // namespace
}  // namespace wss::obs
