// Shard-count equivalence for the sharded event loop (--loop-shards):
// the same client traffic must produce byte-identical final tables and
// identical delivery accounting whether the server runs one epoll loop
// or many SO_REUSEPORT shards, per-shard /status counters must sum to
// the totals the clients actually delivered, and a ~1k-connection
// churn soak must survive with every connection and line accounted.
//
// One connection (or one UDP socket) per tenant keeps each tenant's
// line order shard-invariant: the kernel pins a 4-tuple to one shard,
// so per-sender order is preserved no matter how many shards exist.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "hang_guard.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "sim/generator.hpp"

namespace wss::net {
namespace {

using namespace std::chrono_literals;

TenantConfig tenant(const std::string& name, parse::SystemId system,
                    std::size_t queue = 8192) {
  TenantConfig cfg;
  cfg.name = name;
  cfg.system = system;
  cfg.queue_capacity = queue;
  return cfg;
}

const ServeTenantReport* find_tenant(const ServeReport& report,
                                     const std::string& name) {
  for (const auto& t : report.tenants) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

/// Renders a simulator's full event stream as log lines.
std::vector<std::string> render_all(const sim::Simulator& s) {
  std::vector<std::string> lines;
  const auto& events = s.events();
  lines.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    lines.push_back(s.renderer().render(events[i], i));
  }
  return lines;
}

/// First integer after `key`, itself after `anchor`, in a JSON blob.
/// Status documents are flat enough that positional scanning is exact.
std::uint64_t num_after(const std::string& json, const std::string& anchor,
                        const std::string& key) {
  std::size_t pos = json.find(anchor);
  EXPECT_NE(pos, std::string::npos) << anchor << " missing in: " << json;
  if (pos == std::string::npos) return 0;
  pos = json.find(key, pos);
  EXPECT_NE(pos, std::string::npos) << key << " missing after " << anchor;
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + key.size(), nullptr, 10);
}

class NetShardsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (runner_.joinable()) stop();
  }

  void start(ServeOptions opts) {
    server_ = std::make_unique<Server>(std::move(opts));
    server_->bind();
    runner_ = std::thread([this] {
      try {
        report_ = server_->run();
      } catch (const std::exception& e) {
        run_error_ = e.what();
      }
    });
  }

  ServeReport stop() {
    server_->request_stop();
    runner_.join();
    EXPECT_EQ(run_error_, "");
    return report_;
  }

  void wait_status_contains(const std::string& needle) {
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    while (std::chrono::steady_clock::now() < deadline) {
      if (server_->status_json().find(needle) != std::string::npos) return;
      std::this_thread::sleep_for(2ms);
    }
    FAIL() << "status never showed: " << needle << "\nlast: "
           << server_->status_json();
  }

  std::unique_ptr<Server> server_;
  std::thread runner_;
  ServeReport report_;
  std::string run_error_;
};

struct RunResult {
  ServeReport report;
  std::string status;  ///< snapshot taken after all deliveries landed
};

TEST_F(NetShardsTest, TablesAndCountersIdenticalAcrossShardCounts) {
  // Three TCP tenants over one handshake-routed listener plus one UDP
  // tenant: the full routing surface, one sender each.
  sim::SimOptions gen;
  gen.category_cap = 100;
  gen.chatter_events = 400;
  const std::vector<std::string> lib_lines =
      render_all(sim::Simulator(parse::SystemId::kLiberty, gen));
  const std::vector<std::string> spi_lines =
      render_all(sim::Simulator(parse::SystemId::kSpirit, gen));
  const std::vector<std::string> thu_lines =
      render_all(sim::Simulator(parse::SystemId::kThunderbird, gen));

  auto run_at = [&](int shards) {
    ServeOptions opts;
    opts.loop_shards = shards;
    opts.tcp.push_back({0, ""});
    opts.udp.push_back({0, "shard-u"});
    opts.tenants.push_back(tenant("shard-a", parse::SystemId::kLiberty));
    opts.tenants.push_back(tenant("shard-b", parse::SystemId::kSpirit));
    opts.tenants.push_back(tenant("shard-c", parse::SystemId::kThunderbird));
    opts.tenants.push_back(tenant("shard-u", parse::SystemId::kLiberty));
    start(std::move(opts));
    const std::uint16_t port = server_->tcp_port(0);

    auto feed = [port](const std::string& name, const char* system,
                       const std::vector<std::string>& lines) {
      SinkOptions sopts;
      sopts.endpoint = {Transport::kTcp, "127.0.0.1", port};
      sopts.tenant = name;
      sopts.system_short = system;
      SinkClient client(sopts);
      for (const auto& line : lines) client.send(0, line);
      client.close();
    };
    std::thread ta(feed, "shard-a", "liberty", std::cref(lib_lines));
    std::thread tb(feed, "shard-b", "spirit", std::cref(spi_lines));
    std::thread tc(feed, "shard-c", "tbird", std::cref(thu_lines));
    std::thread tu([this] {
      Fd tx = udp_socket();
      const Ipv4 to = resolve_ipv4("127.0.0.1", server_->udp_port(0));
      for (int i = 0; i < 100; ++i) {
        const std::string gram = "udp line " + std::to_string(i) + "\n";
        ASSERT_TRUE(send_dgram(tx.get(), to, gram.data(), gram.size()));
      }
    });
    ta.join();
    tb.join();
    tc.join();
    tu.join();
    wait_status_contains("\"name\":\"shard-a\",\"system\":\"liberty\","
                         "\"delivered\":" +
                         std::to_string(lib_lines.size()));
    wait_status_contains("\"name\":\"shard-b\",\"system\":\"spirit\","
                         "\"delivered\":" +
                         std::to_string(spi_lines.size()));
    wait_status_contains("\"name\":\"shard-c\",\"system\":\"tbird\","
                         "\"delivered\":" +
                         std::to_string(thu_lines.size()));
    wait_status_contains("\"name\":\"shard-u\",\"system\":\"liberty\","
                         "\"delivered\":100");
    RunResult r;
    r.status = server_->status_json();
    r.report = stop();
    return r;
  };

  const RunResult at1 = run_at(1);
  const RunResult at2 = run_at(2);
  const RunResult at4 = run_at(4);

  const std::uint64_t expected_delivered =
      lib_lines.size() + spi_lines.size() + thu_lines.size() + 100;
  for (const RunResult* r : {&at1, &at2, &at4}) {
    ASSERT_EQ(r->report.tenants.size(), 4u);
    std::uint64_t tenant_sum = 0;
    for (const auto& t : r->report.tenants) {
      EXPECT_EQ(t.dropped, 0u) << t.name;
      EXPECT_EQ(t.ingested, t.delivered) << t.name;
      tenant_sum += t.delivered;
    }
    EXPECT_EQ(tenant_sum, expected_delivered);
    EXPECT_EQ(r->report.connections, 3u);
    EXPECT_EQ(r->report.protocol_errors, 0u);
  }

  // The equivalence core: every per-tenant table and counter is
  // independent of the shard count.
  for (const char* name : {"shard-a", "shard-b", "shard-c", "shard-u"}) {
    const ServeTenantReport* t1 = find_tenant(at1.report, name);
    const ServeTenantReport* t2 = find_tenant(at2.report, name);
    const ServeTenantReport* t4 = find_tenant(at4.report, name);
    ASSERT_NE(t1, nullptr);
    ASSERT_NE(t2, nullptr);
    ASSERT_NE(t4, nullptr);
    EXPECT_EQ(t1->delivered, t2->delivered) << name;
    EXPECT_EQ(t1->delivered, t4->delivered) << name;
    EXPECT_EQ(t1->ingested, t4->ingested) << name;
    EXPECT_EQ(t1->admitted, t2->admitted) << name;
    EXPECT_EQ(t1->admitted, t4->admitted) << name;
    EXPECT_EQ(t1->table, t2->table) << name << ": tables diverge at 2 shards";
    EXPECT_EQ(t1->table, t4->table) << name << ": tables diverge at 4 shards";
  }

  // Per-shard /status counters must sum to what the clients delivered.
  for (const RunResult* r : {&at1, &at2, &at4}) {
    const std::uint64_t shards =
        num_after(r->status, "\"loop_shards\":", "\"loop_shards\":");
    std::uint64_t shard_delivered = 0;
    std::uint64_t shard_conns = 0;
    for (std::uint64_t k = 0; k < shards; ++k) {
      const std::string anchor = "{\"shard\":" + std::to_string(k) + ",";
      shard_conns += num_after(r->status, anchor, "\"connections\":");
      shard_delivered += num_after(r->status, anchor, "\"delivered\":");
    }
    EXPECT_EQ(shard_delivered, expected_delivered);
    EXPECT_EQ(shard_conns, 3u);
  }
  EXPECT_EQ(num_after(at4.status, "\"loop_shards\":", "\"loop_shards\":"), 4u);
}

TEST_F(NetShardsTest, ChurnSoakThousandConnectionsAllAccounted) {
  // ~1k short-lived connections against 4 shards, bounded concurrency
  // (16 writer threads x 64 sequential connections each): every
  // connection and every line must land in the accounting -- no lost
  // wakeups, no stuck accepts, no miscounted shard hand-offs.
  constexpr int kThreads = 16;
  constexpr int kConnsPerThread = 64;
  constexpr int kLinesPerConn = 5;
  constexpr std::uint64_t kConns =
      std::uint64_t{kThreads} * kConnsPerThread;
  constexpr std::uint64_t kLines = kConns * kLinesPerConn;

  ServeOptions opts;
  opts.loop_shards = 4;
  opts.tcp.push_back({0, "churn"});  // port-keyed: data from byte one
  opts.tenants.push_back(tenant("churn", parse::SystemId::kLiberty,
                                /*queue=*/1 << 15));
  start(std::move(opts));
  const std::uint16_t port = server_->tcp_port(0);

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([port, w] {
      for (int c = 0; c < kConnsPerThread; ++c) {
        Fd fd = connect_tcp(resolve_ipv4("127.0.0.1", port));
        std::string payload;
        for (int l = 0; l < kLinesPerConn; ++l) {
          payload += "churn w" + std::to_string(w) + " c" +
                     std::to_string(c) + " l" + std::to_string(l) + "\n";
        }
        write_all(fd.get(), payload.data(), payload.size());
        // Orderly FIN; the server flushes any buffered tail at EOF.
      }
    });
  }
  for (auto& t : writers) t.join();

  wait_status_contains("\"connections_total\":" + std::to_string(kConns));
  wait_status_contains("\"delivered\":" + std::to_string(kLines));
  const std::string status = server_->status_json();

  const ServeReport report = stop();
  EXPECT_EQ(report.connections, kConns);
  EXPECT_EQ(report.protocol_errors, 0u);
  const ServeTenantReport* t = find_tenant(report, "churn");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->delivered, kLines);
  EXPECT_EQ(t->dropped, 0u) << "TCP must pause, never evict, even churning";
  EXPECT_EQ(t->ingested, kLines);

  // All four shards' counters sum to the totals; with 1k 4-tuples the
  // kernel hash spreads them, so no shard should have sat idle.
  std::uint64_t shard_conns = 0;
  std::uint64_t shard_delivered = 0;
  int active_shards = 0;
  for (int k = 0; k < 4; ++k) {
    const std::string anchor = "{\"shard\":" + std::to_string(k) + ",";
    const std::uint64_t conns = num_after(status, anchor, "\"connections\":");
    shard_conns += conns;
    shard_delivered += num_after(status, anchor, "\"delivered\":");
    if (conns > 0) ++active_shards;
  }
  EXPECT_EQ(shard_conns, kConns);
  EXPECT_EQ(shard_delivered, kLines);
  EXPECT_GE(active_shards, 2) << "reuseport never spread the load";
}

TEST_F(NetShardsTest, AutoShardCountBindsAndServes) {
  ServeOptions opts;
  opts.loop_shards = 0;  // auto: hardware concurrency, capped at 8
  opts.tcp.push_back({0, "auto"});
  opts.tenants.push_back(tenant("auto", parse::SystemId::kLiberty));
  start(std::move(opts));

  SinkOptions sopts;
  sopts.endpoint = {Transport::kTcp, "127.0.0.1", server_->tcp_port(0)};
  SinkClient client(sopts);
  client.send(0, "one line through auto shards");
  client.close();
  wait_status_contains("\"name\":\"auto\",\"system\":\"liberty\","
                       "\"delivered\":1");

  const std::string status = server_->status_json();
  const std::uint64_t shards =
      num_after(status, "\"loop_shards\":", "\"loop_shards\":");
  EXPECT_GE(shards, 1u);
  EXPECT_LE(shards, 8u);

  const ServeReport report = stop();
  const ServeTenantReport* t = find_tenant(report, "auto");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->delivered, 1u);
}

TEST_F(NetShardsTest, EveryPausedShardIsWokenByTheSharedConsumer) {
  // Sixteen connections into one 64-line tenant at --loop-shards 4,
  // with a loop timer that never fires during the test: several shards
  // pause on the same ring, and each one they flag must get its own
  // consumer wake or its connection stalls for good. Sixteen 4-tuples
  // make the kernel hash landing them all on one shard (which would
  // leave one bit in the waiter mask) about a one-in-a-billion event.
  const testing_util::HangGuard guard(60s);
  constexpr int kConns = 16;
  constexpr int kLinesPerConn = 1250;
  constexpr std::uint64_t kLines = std::uint64_t{kConns} * kLinesPerConn;

  ServeOptions opts;
  opts.loop_shards = 4;
  opts.poll_ms = 600000;
  opts.tcp.push_back({0, "shared"});  // port-keyed: data from byte one
  opts.tenants.push_back(tenant("shared", parse::SystemId::kLiberty,
                                /*queue=*/64));
  start(std::move(opts));
  const std::uint16_t port = server_->tcp_port(0);

  std::vector<std::thread> writers;
  writers.reserve(kConns);
  for (int w = 0; w < kConns; ++w) {
    writers.emplace_back([port, w] {
      SinkOptions sopts;
      sopts.endpoint = {Transport::kTcp, "127.0.0.1", port};
      SinkClient client(sopts);
      for (int l = 0; l < kLinesPerConn; ++l) {
        client.send(0, "shared w" + std::to_string(w) + " l" +
                           std::to_string(l));
      }
      client.close();
    });
  }
  for (auto& t : writers) t.join();

  const std::string totals = "\"delivered\":" + std::to_string(kLines) +
                             ",\"dropped\":0,\"ingested\":" +
                             std::to_string(kLines);
  wait_status_contains(totals);
  const std::string status = server_->status_json();

  const ServeReport report = stop();
  const ServeTenantReport* t = find_tenant(report, "shared");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->delivered, kLines);
  EXPECT_EQ(t->dropped, 0u);
  EXPECT_EQ(t->ingested, kLines);

  std::uint64_t shard_conns = 0;
  std::uint64_t shard_delivered = 0;
  int active_shards = 0;
  for (int k = 0; k < 4; ++k) {
    const std::string anchor = "{\"shard\":" + std::to_string(k) + ",";
    const std::uint64_t conns = num_after(status, anchor, "\"connections\":");
    shard_conns += conns;
    shard_delivered += num_after(status, anchor, "\"delivered\":");
    if (conns > 0) ++active_shards;
  }
  EXPECT_EQ(shard_conns, std::uint64_t{kConns});
  EXPECT_EQ(shard_delivered, kLines);
  EXPECT_GE(active_shards, 2) << "one shard took every connection, so no "
                                 "wake ever had more than one bit to serve";
}

}  // namespace
}  // namespace wss::net
