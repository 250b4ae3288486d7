// Loopback integration suite for `wss serve` (the net label's
// centerpiece): real sockets against a running Server -- TCP framing
// edge cases, handshake routing, UDP ingest, per-tenant isolation,
// accounted drops under a stalled tenant, lossless TCP backpressure,
// the HTTP endpoints, and the round-trip proof that a tenant's final
// table is byte-identical to `wss stream --in` over the same
// delivered lines.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/commands.hpp"
#include "hang_guard.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "sim/generator.hpp"
#include "stream/pipeline.hpp"

namespace wss::net {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

std::string be32(std::uint32_t v) {
  std::string s;
  s.push_back(static_cast<char>((v >> 24) & 0xff));
  s.push_back(static_cast<char>((v >> 16) & 0xff));
  s.push_back(static_cast<char>((v >> 8) & 0xff));
  s.push_back(static_cast<char>(v & 0xff));
  return s;
}

TenantConfig tenant(const std::string& name, parse::SystemId system,
                    std::size_t queue = 4096,
                    std::uint64_t ingest_delay_us = 0) {
  TenantConfig cfg;
  cfg.name = name;
  cfg.system = system;
  cfg.queue_capacity = queue;
  cfg.ingest_delay_us = ingest_delay_us;
  return cfg;
}

const ServeTenantReport* find_tenant(const ServeReport& report,
                                     const std::string& name) {
  for (const auto& t : report.tenants) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

class NetServerTest : public ::testing::Test {
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

  /// Polls /status until it contains `needle` (enqueue counters are
  /// event-loop-side, so "all bytes received" is observable here
  /// before any stop is requested).
  void wait_status_contains(const std::string& needle) {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
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

/// Writes `data` to a fresh loopback connection in `chunk`-byte
/// slices with tiny pauses, then closes -- forcing the decoder through
/// partial/coalesced segment boundaries.
void blast_chunked(std::uint16_t port, const std::string& data,
                   std::size_t chunk) {
  Fd c = connect_tcp(resolve_ipv4("127.0.0.1", port));
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    const std::size_t n = std::min(chunk, data.size() - off);
    write_all(c.get(), data.data() + off, n);
    std::this_thread::sleep_for(1ms);
  }
}

TEST_F(NetServerTest, TcpHandshakeRoutedFramingEdges) {
  ServeOptions opts;
  opts.tcp.push_back({0, ""});  // handshake-routed
  opts.tenant_defaults = tenant("", parse::SystemId::kLiberty);
  start(std::move(opts));

  // Handshake split mid-token, CRLF line, coalesced lines, and an
  // unterminated tail that only the EOF flush can deliver.
  blast_chunked(server_->tcp_port(0),
                "tenant=edge system=liberty\n"
                "first line\nsecond line\r\nthird line\nunterminated tail",
                7);
  // The tail is only flushed once the server sees EOF; wait for it so
  // the stop request races nothing.
  wait_status_contains("\"name\":\"edge\",\"system\":\"liberty\",\"delivered\":4");

  const ServeReport report = stop();
  const ServeTenantReport* t = find_tenant(report, "edge");
  ASSERT_NE(t, nullptr) << "handshake did not create the tenant";
  EXPECT_EQ(t->system, "liberty");
  EXPECT_EQ(t->delivered, 4u);
  EXPECT_EQ(t->dropped, 0u);
  EXPECT_EQ(t->ingested, 4u);
  EXPECT_EQ(report.connections, 1u);
  EXPECT_EQ(report.protocol_errors, 0u);
}

TEST_F(NetServerTest, TcpPortKeyedListenerTakesDataFromByteOne) {
  ServeOptions opts;
  opts.tcp.push_back({0, "fixed"});
  opts.tenants.push_back(tenant("fixed", parse::SystemId::kLiberty));
  start(std::move(opts));

  SinkOptions sopts;
  sopts.endpoint = {Transport::kTcp, "127.0.0.1", server_->tcp_port(0)};
  SinkClient client(sopts);  // empty tenant: no handshake line
  client.send(0, "alpha");
  client.send(0, "beta");
  client.close();
  wait_status_contains(
      "\"name\":\"fixed\",\"system\":\"liberty\",\"delivered\":2");

  const ServeReport report = stop();
  const ServeTenantReport* t = find_tenant(report, "fixed");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->delivered, 2u);
  EXPECT_EQ(t->ingested, 2u);
}

TEST_F(NetServerTest, LenPrefixHandshakeSwitchesDecoder) {
  ServeOptions opts;
  opts.tcp.push_back({0, ""});
  opts.tenant_defaults = tenant("", parse::SystemId::kLiberty);
  start(std::move(opts));

  // The handshake line and the first frame's header arrive together
  // (take_rest hand-off), the second frame is split mid-payload.
  const std::string first = "tenant=lenf system=liberty framing=len\n" +
                            be32(5) + "hello" + be32(10) + "split";
  Fd c = connect_tcp(resolve_ipv4("127.0.0.1", server_->tcp_port(0)));
  write_all(c.get(), first.data(), first.size());
  std::this_thread::sleep_for(20ms);
  write_all(c.get(), "apart", 5);
  c.reset();  // orderly FIN
  wait_status_contains(
      "\"name\":\"lenf\",\"system\":\"liberty\",\"delivered\":2");

  const ServeReport report = stop();
  const ServeTenantReport* t = find_tenant(report, "lenf");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->delivered, 2u);
  EXPECT_EQ(t->ingested, 2u);
}

TEST_F(NetServerTest, UdpDatagramIngest) {
  ServeOptions opts;
  opts.udp.push_back({0, "u"});
  opts.tenants.push_back(tenant("u", parse::SystemId::kLiberty));
  opts.max_frame = 64;
  start(std::move(opts));

  Fd tx = udp_socket();
  const Ipv4 to = resolve_ipv4("127.0.0.1", server_->udp_port(0));
  // Two lines in one datagram (trailing empty segment is not a line),
  // a bare line with no terminator, and a CRLF-terminated line. Then
  // the edges: an empty datagram, a lone "\n" and a lone "\r" are one
  // empty line each, and a line over max_frame is counted, not
  // delivered.
  for (const std::string& gram :
       {std::string("a\nb\n"), std::string("c"), std::string("d\r\n"),
        std::string(), std::string("\n"), std::string("\r"),
        std::string(100, 'x')}) {
    ASSERT_TRUE(send_dgram(tx.get(), to, gram.data(), gram.size()));
  }
  wait_status_contains("\"name\":\"u\",\"system\":\"liberty\",\"delivered\":7");

  const ServeReport report = stop();
  const ServeTenantReport* t = find_tenant(report, "u");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->delivered, 7u);
  EXPECT_EQ(t->dropped, 0u);
  EXPECT_EQ(t->ingested, 7u);
  EXPECT_EQ(report.oversized, 1u);
}

TEST_F(NetServerTest, StalledTenantDropsAreAccountedNeverSilent) {
  ServeOptions opts;
  opts.udp.push_back({0, "stall"});
  // 4-slot ring + 2ms per ingested line: the consumer cannot keep up
  // with a burst, so the ring's drop-oldest path must engage.
  opts.tenants.push_back(
      tenant("stall", parse::SystemId::kLiberty, /*queue=*/4,
             /*ingest_delay_us=*/2000));
  start(std::move(opts));

  Fd tx = udp_socket();
  const Ipv4 to = resolve_ipv4("127.0.0.1", server_->udp_port(0));
  const std::string line = "burst line\n";
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(send_dgram(tx.get(), to, line.data(), line.size()));
  }
  wait_status_contains(
      "\"name\":\"stall\",\"system\":\"liberty\",\"delivered\":200");

  const ServeReport report = stop();
  const ServeTenantReport* t = find_tenant(report, "stall");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->delivered, 200u);
  EXPECT_GT(t->dropped, 0u);
  // The invariant that makes the drops "accounted, never silent":
  // every delivered frame is either ingested or counted dropped.
  EXPECT_EQ(t->ingested + t->dropped, t->delivered);
}

TEST_F(NetServerTest, TcpBackpressurePausesInsteadOfDropping) {
  ServeOptions opts;
  opts.tcp.push_back({0, "slowtcp"});
  opts.tenants.push_back(
      tenant("slowtcp", parse::SystemId::kLiberty, /*queue=*/4,
             /*ingest_delay_us=*/500));
  opts.drain_grace_ms = 30000;  // the drain must outlast the slow drain
  start(std::move(opts));

  SinkOptions sopts;
  sopts.endpoint = {Transport::kTcp, "127.0.0.1", server_->tcp_port(0)};
  SinkClient client(sopts);
  for (int i = 0; i < 500; ++i) client.send(0, "tcp line under pressure");
  client.close();
  // Pause/resume cycles deliver all 500 before the stop is requested;
  // the drain then only has the ring tail to finish.
  wait_status_contains(
      "\"name\":\"slowtcp\",\"system\":\"liberty\",\"delivered\":500");

  const ServeReport report = stop();
  const ServeTenantReport* t = find_tenant(report, "slowtcp");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->delivered, 500u);
  EXPECT_EQ(t->dropped, 0u) << "TCP into a full ring must pause, not evict";
  EXPECT_EQ(t->ingested, 500u);
}

TEST_F(NetServerTest, PausedConnectionResumesOnConsumerWake) {
  // The loop timer is ten minutes, so tick() cannot rescue a paused
  // connection: 20k lines through a 64-line ring pause it hundreds of
  // times, and every resume has to come from the tenant consumer's
  // wake.
  const testing_util::HangGuard guard(60s);
  ServeOptions opts;
  opts.poll_ms = 600000;
  opts.tcp.push_back({0, "woken"});
  opts.tenants.push_back(
      tenant("woken", parse::SystemId::kLiberty, /*queue=*/64));
  start(std::move(opts));

  SinkOptions sopts;
  sopts.endpoint = {Transport::kTcp, "127.0.0.1", server_->tcp_port(0)};
  SinkClient client(sopts);
  for (int i = 0; i < 20000; ++i) {
    client.send(0, "woken line " + std::to_string(i));
  }
  client.close();
  wait_status_contains(
      "\"name\":\"woken\",\"system\":\"liberty\",\"delivered\":20000,"
      "\"dropped\":0,\"ingested\":20000");

  const ServeReport report = stop();
  const ServeTenantReport* t = find_tenant(report, "woken");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->delivered, 20000u);
  EXPECT_EQ(t->ingested, 20000u);
  EXPECT_EQ(t->dropped, 0u);
}

TEST_F(NetServerTest, TenantsAreIsolatedAndMatchWssStreamBitForBit) {
  // Two tenants on different systems fed concurrently over one
  // handshake-routed listener; each final table must be byte-identical
  // to `wss stream --in` over the same lines.
  sim::SimOptions gen;
  gen.category_cap = 100;
  gen.chatter_events = 500;
  const sim::Simulator lib(parse::SystemId::kLiberty, gen);
  const sim::Simulator spi(parse::SystemId::kSpirit, gen);
  auto render_all = [](const sim::Simulator& s) {
    std::vector<std::string> lines;
    const auto& events = s.events();
    lines.reserve(events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      lines.push_back(s.renderer().render(events[i], i));
    }
    return lines;
  };
  const std::vector<std::string> lib_lines = render_all(lib);
  const std::vector<std::string> spi_lines = render_all(spi);

  ServeOptions opts;
  opts.tcp.push_back({0, ""});
  opts.tenants.push_back(tenant("iso-a", parse::SystemId::kLiberty));
  opts.tenants.push_back(tenant("iso-b", parse::SystemId::kSpirit));
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
  std::thread ta(feed, "iso-a", "liberty", std::cref(lib_lines));
  std::thread tb(feed, "iso-b", "spirit", std::cref(spi_lines));
  ta.join();
  tb.join();
  wait_status_contains("\"name\":\"iso-a\",\"system\":\"liberty\",\"delivered\":" +
                       std::to_string(lib_lines.size()));
  wait_status_contains("\"name\":\"iso-b\",\"system\":\"spirit\",\"delivered\":" +
                       std::to_string(spi_lines.size()));

  const ServeReport report = stop();
  const ServeTenantReport* a = find_tenant(report, "iso-a");
  const ServeTenantReport* b = find_tenant(report, "iso-b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->ingested, lib_lines.size());
  EXPECT_EQ(b->ingested, spi_lines.size());
  EXPECT_EQ(a->dropped, 0u);
  EXPECT_EQ(b->dropped, 0u);

  // Reference: the offline streaming CLI over the identical byte
  // stream.
  const fs::path dir =
      fs::temp_directory_path() /
      ("wss_net_equiv_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  auto reference = [&dir](const char* system,
                          const std::vector<std::string>& lines) {
    const fs::path log = dir / (std::string(system) + ".log");
    std::ofstream os(log);
    for (const auto& line : lines) os << line << "\n";
    os.close();
    std::vector<const char*> argv = {"wss", "stream", "--system", system,
                                     "--in"};
    const std::string log_str = log.string();
    argv.push_back(log_str.c_str());
    std::ostringstream out, err;
    EXPECT_EQ(
        cli::run(cli::Args::parse(static_cast<int>(argv.size()), argv.data()),
                 out, err),
        0)
        << err.str();
    return out.str();
  };
  EXPECT_EQ(a->table, reference("liberty", lib_lines));
  EXPECT_EQ(b->table, reference("spirit", spi_lines));
  fs::remove_all(dir);
}

TEST_F(NetServerTest, HttpServesMetricsAndStatus) {
  ServeOptions opts;
  opts.tcp.push_back({0, "webt"});
  opts.tenants.push_back(tenant("webt", parse::SystemId::kLiberty));
  opts.http_enabled = true;
  start(std::move(opts));

  SinkOptions sopts;
  sopts.endpoint = {Transport::kTcp, "127.0.0.1", server_->tcp_port(0)};
  SinkClient client(sopts);
  for (int i = 0; i < 3; ++i) client.send(0, "observed line");
  client.close();
  wait_status_contains(
      "\"name\":\"webt\",\"system\":\"liberty\",\"delivered\":3");

  auto http_get = [this](const std::string& request) {
    Fd c = connect_tcp(resolve_ipv4("127.0.0.1", server_->http_port()));
    write_all(c.get(), request.data(), request.size());
    std::string all;
    char buf[4096];
    for (;;) {
      std::size_t got = 0;
      const IoStatus st = read_some(c.get(), buf, sizeof buf, got);
      if (st == IoStatus::kClosed) return all;
      if (st == IoStatus::kOk) all.append(buf, got);
      else std::this_thread::sleep_for(1ms);
    }
  };

  const std::string metrics =
      http_get("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("wss_net_delivered_total{tenant=\"webt\"} 3"),
            std::string::npos)
      << metrics;

  const std::string status = http_get("GET /status HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(status.find("\"schema\":\"wss.serve.v1\""), std::string::npos);
  EXPECT_NE(status.find("\"name\":\"webt\""), std::string::npos);

  const std::string json =
      http_get("GET /metrics.json HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(json.find("wss.obs.v1"), std::string::npos);

  EXPECT_NE(http_get("GET /nope HTTP/1.1\r\n\r\n").find("404"),
            std::string::npos);
  EXPECT_NE(http_get("POST /metrics HTTP/1.1\r\n\r\n").find("405"),
            std::string::npos);

  const ServeReport report = stop();
  EXPECT_EQ(report.http_requests, 5u);
}

TEST_F(NetServerTest, ProtocolErrorsCloseTheConnection) {
  ServeOptions opts;
  opts.tcp.push_back({0, ""});
  opts.tenant_defaults = tenant("", parse::SystemId::kLiberty);
  opts.allow_handshake_tenants = true;
  start(std::move(opts));
  const std::uint16_t port = server_->tcp_port(0);

  {  // Shared listener, first line is not a handshake.
    Fd c = connect_tcp(resolve_ipv4("127.0.0.1", port));
    const std::string bad = "plain data with no routing\n";
    write_all(c.get(), bad.data(), bad.size());
  }
  {  // Handshake names an unknown system.
    Fd c = connect_tcp(resolve_ipv4("127.0.0.1", port));
    const std::string bad = "tenant=x system=vax\n";
    write_all(c.get(), bad.data(), bad.size());
  }
  {  // Length-prefixed stream ends mid-frame.
    Fd c = connect_tcp(resolve_ipv4("127.0.0.1", port));
    const std::string bad =
        "tenant=midframe system=liberty framing=len\n" + be32(100) + "short";
    write_all(c.get(), bad.data(), bad.size());
  }

  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline &&
         server_->status_json().find("\"protocol_errors_total\":3") ==
             std::string::npos) {
    std::this_thread::sleep_for(2ms);
  }
  const ServeReport report = stop();
  EXPECT_EQ(report.protocol_errors, 3u);
}

TEST_F(NetServerTest, OversizedLinesAreCountedNotDelivered) {
  ServeOptions opts;
  opts.tcp.push_back({0, "cap"});
  opts.tenants.push_back(tenant("cap", parse::SystemId::kLiberty));
  opts.max_frame = 64;
  start(std::move(opts));

  Fd c = connect_tcp(resolve_ipv4("127.0.0.1", server_->tcp_port(0)));
  const std::string data =
      "short one\n" + std::string(500, 'x') + "\nshort two\n";
  write_all(c.get(), data.data(), data.size());
  c.reset();
  wait_status_contains("\"name\":\"cap\",\"system\":\"liberty\",\"delivered\":2");
  wait_status_contains("\"oversized_total\":1");

  const ServeReport report = stop();
  const ServeTenantReport* t = find_tenant(report, "cap");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->delivered, 2u);
  EXPECT_EQ(report.oversized, 1u);
}

TEST_F(NetServerTest, HandshakeRejectsMalformedYear) {
  ServeOptions opts;
  opts.tcp.push_back({0, ""});
  opts.tenant_defaults = tenant("", parse::SystemId::kLiberty);
  opts.allow_handshake_tenants = true;
  start(std::move(opts));
  const std::uint16_t port = server_->tcp_port(0);

  // Non-numeric, negative, and out-of-int-range years must be refused,
  // not silently read as year 0 or a wrapped value.
  for (const char* year : {"abc", "-1", "99999999999"}) {
    Fd c = connect_tcp(resolve_ipv4("127.0.0.1", port));
    const std::string bad =
        std::string("tenant=y system=liberty year=") + year + "\nline\n";
    write_all(c.get(), bad.data(), bad.size());
  }
  {  // A well-formed year still opens the tenant.
    Fd c = connect_tcp(resolve_ipv4("127.0.0.1", port));
    const std::string ok = "tenant=good system=liberty year=2004\nline\n";
    write_all(c.get(), ok.data(), ok.size());
  }
  wait_status_contains("\"protocol_errors_total\":3");
  wait_status_contains(
      "\"name\":\"good\",\"system\":\"liberty\",\"delivered\":1");

  const ServeReport report = stop();
  EXPECT_EQ(report.protocol_errors, 3u);
  EXPECT_EQ(find_tenant(report, "y"), nullptr);
}

TEST_F(NetServerTest, RejectsUnknownTenantWhenHandshakeTenantsDisabled) {
  ServeOptions opts;
  opts.tcp.push_back({0, ""});
  opts.tenants.push_back(tenant("only", parse::SystemId::kLiberty));
  opts.allow_handshake_tenants = false;
  start(std::move(opts));
  const std::uint16_t port = server_->tcp_port(0);

  {  // Unknown tenant: refused.
    Fd c = connect_tcp(resolve_ipv4("127.0.0.1", port));
    const std::string bad = "tenant=intruder system=liberty\nline\n";
    write_all(c.get(), bad.data(), bad.size());
  }
  {  // Declared tenant: still fine.
    Fd c = connect_tcp(resolve_ipv4("127.0.0.1", port));
    const std::string ok = "tenant=only system=liberty\nline\n";
    write_all(c.get(), ok.data(), ok.size());
  }
  wait_status_contains("\"protocol_errors_total\":1");
  wait_status_contains("\"name\":\"only\",\"system\":\"liberty\",\"delivered\":1");

  const ServeReport report = stop();
  ASSERT_EQ(report.tenants.size(), 1u);
  EXPECT_EQ(report.tenants[0].name, "only");
  EXPECT_EQ(report.tenants[0].delivered, 1u);
}

TEST_F(NetServerTest, DrainWritesCheckpointsLoadableByWssStream) {
  const fs::path dir = fs::temp_directory_path() /
                       ("wss_net_ckpt_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  ServeOptions opts;
  opts.tcp.push_back({0, "ck"});
  opts.tenants.push_back(tenant("ck", parse::SystemId::kLiberty));
  opts.checkpoint_dir = dir.string();
  start(std::move(opts));

  SinkOptions sopts;
  sopts.endpoint = {Transport::kTcp, "127.0.0.1", server_->tcp_port(0)};
  SinkClient client(sopts);
  client.send(0, "checkpointed line");
  client.close();
  wait_status_contains("\"name\":\"ck\",\"system\":\"liberty\",\"delivered\":1");

  const ServeReport report = stop();
  ASSERT_EQ(report.checkpoints.size(), 1u);
  const fs::path ckpt = report.checkpoints[0];
  EXPECT_EQ(ckpt.filename().string(), "ck.ckpt");
  ASSERT_TRUE(fs::exists(ckpt));

  // The checkpoint restores into the offline pipeline: the engines are
  // the same code, so `wss stream --restore` accepts a server drain.
  std::ostringstream out, err;
  const std::string ckpt_str = ckpt.string();
  std::vector<const char*> argv = {"wss",  "stream",         "--system",
                                   "liberty", "--in", "/dev/null",
                                   "--restore", ckpt_str.c_str()};
  EXPECT_EQ(
      cli::run(cli::Args::parse(static_cast<int>(argv.size()), argv.data()),
               out, err),
      0)
      << err.str();
  EXPECT_NE(out.str().find("1"), std::string::npos);  // one event restored
  fs::remove_all(dir);
}

class NetServerCheckpointTest : public NetServerTest {
 protected:
  /// Serves tenants "a" and "b" (one TCP port and one line each) with
  /// `checkpoint_dir`, then drains; log_ collects the diagnostics.
  ServeReport serve_two_and_drain(const std::string& checkpoint_dir) {
    ServeOptions opts;
    opts.tcp.push_back({0, "a"});
    opts.tcp.push_back({0, "b"});
    opts.tenants.push_back(tenant("a", parse::SystemId::kLiberty));
    opts.tenants.push_back(tenant("b", parse::SystemId::kLiberty));
    opts.checkpoint_dir = checkpoint_dir;
    opts.log = &log_;
    start(std::move(opts));
    for (std::size_t port = 0; port < 2; ++port) {
      SinkOptions sopts;
      sopts.endpoint = {Transport::kTcp, "127.0.0.1",
                        server_->tcp_port(port)};
      SinkClient client(sopts);
      client.send(0, "drained line");
      client.close();
    }
    wait_status_contains("\"name\":\"a\",\"system\":\"liberty\",\"delivered\":1");
    wait_status_contains("\"name\":\"b\",\"system\":\"liberty\",\"delivered\":1");
    return stop();
  }

  std::size_t log_lines_containing(const std::string& needle) const {
    std::istringstream lines(log_.str());
    std::size_t n = 0;
    for (std::string line; std::getline(lines, line);) {
      n += line.find(needle) != std::string::npos;
    }
    return n;
  }

  std::ostringstream log_;
};

TEST_F(NetServerCheckpointTest, UncreatableDirStillReportsEveryTenant) {
  // --checkpoint-dir names an existing regular file: no checkpoint can
  // be published, but the drain still reports both tenants' tables and
  // logs one line per lost checkpoint.
  const fs::path file = fs::temp_directory_path() /
                        ("wss_net_ckfile_" + std::to_string(::getpid()));
  std::ofstream(file) << "not a directory\n";

  const ServeReport report = serve_two_and_drain(file.string());
  ASSERT_EQ(report.tenants.size(), 2u);
  for (const ServeTenantReport& t : report.tenants) {
    EXPECT_EQ(t.delivered, 1u) << t.name;
    EXPECT_FALSE(t.table.empty()) << t.name;
  }
  EXPECT_TRUE(report.checkpoints.empty());
  EXPECT_EQ(log_lines_containing("cannot write checkpoint"), 2u)
      << log_.str();
  fs::remove(file);
}

TEST_F(NetServerCheckpointTest, OneFailedPublishKeepsTheOthersListed) {
  // b.ckpt is an existing directory, so only b's publish fails.
  const fs::path dir = fs::temp_directory_path() /
                       ("wss_net_ckmix_" + std::to_string(::getpid()));
  fs::create_directories(dir / "b.ckpt");

  const ServeReport report = serve_two_and_drain(dir.string());
  ASSERT_EQ(report.tenants.size(), 2u);
  ASSERT_EQ(report.checkpoints.size(), 1u);
  EXPECT_EQ(fs::path(report.checkpoints[0]).filename().string(), "a.ckpt");
  EXPECT_EQ(log_lines_containing("b.ckpt"), 1u) << log_.str();
  // Nothing half-written is left behind.
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension().string(), ".tmp") << entry.path();
  }
  fs::remove_all(dir);
}

TEST_F(NetServerTest, PredictCountersReconcileWithInjectedIncidents) {
  // A predict-enabled tenant fed a rendered Liberty stream over
  // loopback TCP: the per-tenant wss_predict_* counters must equal
  // what the same lines produce through a local StreamPipeline with
  // the tenant's pipeline options, and hits + misses must equal the
  // injected incident count (every incident decided exactly once).
  sim::SimOptions gen;
  gen.category_cap = 200;
  gen.chatter_events = 4000;
  const sim::Simulator sim(parse::SystemId::kLiberty, gen);
  std::vector<std::string> lines;
  const auto& events = sim.events();
  lines.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    lines.push_back(sim.renderer().render(events[i], i));
  }

  TenantConfig cfg = tenant("predl", parse::SystemId::kLiberty);
  cfg.predict = true;
  cfg.predict_train = 50;

  // Local reference: the tenant consumer is ingest_line over the
  // delivered lines in order, so the same options over the same lines
  // must land on identical prediction stats.
  stream::StreamPipelineOptions popts;
  popts.study.threshold_us = static_cast<util::TimeUs>(cfg.threshold_s * 1e6);
  popts.study.window_us = static_cast<util::TimeUs>(cfg.window_s * 1e6);
  popts.strict_order = false;
  popts.start_year = cfg.start_year;
  popts.predict.enabled = true;
  popts.predict.train_alerts = cfg.predict_train;
  popts.predict.horizon_us = cfg.predict_horizon_us;
  stream::StreamPipeline reference(parse::SystemId::kLiberty, popts);
  for (const auto& line : lines) reference.ingest_line(line);
  reference.finish();
  const stream::StreamSnapshot want = reference.snapshot();
  ASSERT_GT(want.predict_incidents, 0u) << "stream injects no incidents; "
                                           "the reconciliation would be vacuous";
  ASSERT_TRUE(want.predict_fitted);

  ServeOptions opts;
  opts.tcp.push_back({0, "predl"});
  opts.tenants.push_back(cfg);
  opts.http_enabled = true;
  start(std::move(opts));

  SinkOptions sopts;
  sopts.endpoint = {Transport::kTcp, "127.0.0.1", server_->tcp_port(0)};
  SinkClient client(sopts);
  for (const auto& line : lines) client.send(0, line);
  client.close();
  wait_status_contains("\"name\":\"predl\",\"system\":\"liberty\",\"delivered\":" +
                       std::to_string(lines.size()));
  // /status carries the live predict object for predict-enabled
  // tenants (values keep moving until the drain, so presence only).
  wait_status_contains("\"predict\":{\"issued\":");

  const ServeReport report = stop();
  const ServeTenantReport* t = find_tenant(report, "predl");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->ingested, lines.size());
  EXPECT_EQ(t->dropped, 0u) << "drops would desync the reference stream";

  // The drain published the final deltas; the registry counters are
  // exactly what a last /metrics scrape would report.
  const auto counter_value = [](const std::string& base) {
    return obs::registry().counter(base + "{tenant=\"predl\"}").value();
  };
  const std::uint64_t issued = counter_value("wss_predict_issued_total");
  const std::uint64_t hits = counter_value("wss_predict_hits_total");
  const std::uint64_t misses = counter_value("wss_predict_misses_total");
  const std::uint64_t false_alarms =
      counter_value("wss_predict_false_alarms_total");
  EXPECT_EQ(issued, want.predict_issued);
  EXPECT_EQ(hits, want.predict_hits);
  EXPECT_EQ(misses, want.predict_misses);
  EXPECT_EQ(false_alarms, want.predict_false_alarms);
  EXPECT_EQ(hits + misses, want.predict_incidents)
      << "an incident went unaccounted (neither hit nor miss)";
}

TEST_F(NetServerTest, BindRequiresAnIngestListener) {
  ServeOptions opts;
  opts.http_enabled = true;  // metrics alone is not a server
  Server server(std::move(opts));
  EXPECT_THROW(server.bind(), std::runtime_error);
}

TEST_F(NetServerTest, UdpListenerRequiresDeclaredTenant) {
  ServeOptions opts;
  opts.udp.push_back({0, "ghost"});  // never declared
  Server server(std::move(opts));
  EXPECT_THROW(server.bind(), std::runtime_error);
}

}  // namespace
}  // namespace wss::net
