// The serve workload: an in-process net::Server with the `wss serve`
// defaults (one loop shard, queue 4096, HTTP on, handshake-routed TCP),
// fed by one generator thread over two coalescing SinkClients, one per
// tenant. With the loop shard and the two tenant consumers that is
// four busy threads, the box's core count.
//
// A run has three phases on one server:
//   low, high  open loop at a fixed rate. Line k is due at start + k/R
//              whether or not the server keeps up; its latency runs from
//              that due time to the first poll of its tenant's
//              wss_net_ingested_total that covers it, so a stall is
//              charged to every line queued behind it. /metrics and
//              /status are scraped once a second beside the ingest.
//   sat        unpaced bursts; throughput is lines over the time from
//              the first send to the last line ingested.
#include <memory>
#include <thread>

#include "dist/json.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "sim/generator.hpp"
#include "stream/report.hpp"
#include "trace.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace wss::bench {

namespace {

/// Client-side coalescing, as a log shipper batches its writes.
constexpr std::size_t kSendBatchBytes = 64 * 1024;
/// The paced generator writes what is due at most this often: at 400k
/// lines/s about 20 lines per write().
constexpr std::int64_t kFlushEveryNs = 50'000;
/// Give up on a phase that has not drained this long after its last
/// send (the check then fails; the run still ends).
constexpr std::int64_t kDrainTimeoutNs = 30'000'000'000;
constexpr int kSetupRepeats = 9;
constexpr int kMinBursts = 3;

struct TenantInput {
  std::string name;
  parse::SystemId system;
  std::vector<std::string> lines;
};

std::vector<TenantInput> render_tenants(std::uint64_t seed, bool smoke) {
  std::vector<TenantInput> out;
  for (const SimSpec& spec : corpus("serve", smoke)) {
    const sim::Simulator simulator(spec.system, sim_options(spec, seed));
    TenantInput t{std::string(parse::system_short_name(spec.system)),
                  spec.system,
                  {}};
    const auto& events = simulator.events();
    t.lines.reserve(events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      t.lines.push_back(simulator.renderer().render(events[i], i));
    }
    out.push_back(std::move(t));
  }
  return out;
}

net::ServeOptions serve_defaults() {
  net::ServeOptions opts;
  opts.tcp.push_back({0, ""});  // ephemeral, handshake-routed
  opts.http_enabled = true;     // ephemeral port
  return opts;
}

obs::Counter& tenant_ingested(const std::string& tenant) {
  return obs::registry().counter(
      util::format("wss_net_ingested_total{tenant=\"%s\"}", tenant.c_str()));
}

/// One server, its event loop thread, and one client per tenant.
class ServeRig {
 public:
  explicit ServeRig(const std::vector<TenantInput>& tenants)
      : tenants_(tenants),
        server_(serve_defaults()),
        batches_(obs::registry().counter("wss_net_shard_batches_total{shard=\"0\"}")),
        batches_base_(batches_.value()) {
    server_.bind();
    loop_ = std::thread([this] {
      try {
        report_ = server_.run();
      } catch (...) {
        error_ = std::current_exception();
      }
    });
    try {
      for (const TenantInput& t : tenants_) {
        net::SinkOptions sopts;
        sopts.endpoint = {net::Transport::kTcp, "127.0.0.1", server_.tcp_port(0)};
        sopts.tenant = t.name;
        sopts.system_short = t.name;
        sopts.send_batch_bytes = kSendBatchBytes;
        ingested_.push_back(&tenant_ingested(t.name));
        base_.push_back(ingested_.back()->value());
        sent_.push_back(0);
        clients_.push_back(std::make_unique<net::SinkClient>(sopts));
      }
    } catch (...) {
      server_.request_stop();
      loop_.join();
      throw;
    }
  }

  ~ServeRig() {
    if (loop_.joinable()) {
      try {
        stop();
      } catch (...) {
        // The run has already failed; stop() only joins here.
      }
    }
  }

  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  /// Sends tenant t's next line, cycling through its input.
  void send(std::size_t t) {
    const std::vector<std::string>& lines = tenants_[t].lines;
    clients_[t]->send(0, lines[sent_[t]++ % lines.size()]);
  }

  void flush() {
    for (auto& c : clients_) c->flush();
  }

  std::size_t tenants() const { return tenants_.size(); }
  std::uint64_t sent(std::size_t t) const { return sent_[t]; }
  std::uint64_t ingested(std::size_t t) const {
    return ingested_[t]->value() - base_[t];
  }
  std::uint64_t batches() const { return batches_.value() - batches_base_; }

  /// Spins until every tenant has ingested everything sent to it.
  bool wait_drained() {
    const std::int64_t deadline = now_ns() + kDrainTimeoutNs;
    for (std::size_t t = 0; t < tenants(); ++t) {
      while (ingested(t) < sent_[t]) {
        if (now_ns() > deadline) return false;
        std::this_thread::yield();
      }
    }
    return true;
  }

  /// GET on the HTTP port; returns the body, `ok` when the status is 200.
  std::string http_get(const char* path, bool& ok) {
    const net::Fd fd =
        net::connect_tcp(net::resolve_ipv4("127.0.0.1", server_.http_port()));
    const std::string req = util::format(
        "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n", path);
    net::write_all(fd.get(), req.data(), req.size());
    std::string resp;
    char buf[64 * 1024];
    std::size_t got = 0;
    while (net::read_some(fd.get(), buf, sizeof buf, got) == net::IoStatus::kOk) {
      resp.append(buf, got);
    }
    ok = resp.compare(0, 12, "HTTP/1.1 200") == 0;
    const auto body = resp.find("\r\n\r\n");
    return body == std::string::npos ? std::string() : resp.substr(body + 4);
  }

  /// Closes the clients, drains the server and returns its report.
  net::ServeReport stop() {
    for (auto& c : clients_) c->close();
    server_.request_stop();
    loop_.join();
    if (error_) std::rethrow_exception(error_);
    return report_;
  }

 private:
  const std::vector<TenantInput>& tenants_;
  net::Server server_;
  std::vector<std::unique_ptr<net::SinkClient>> clients_;
  std::vector<obs::Counter*> ingested_;
  std::vector<std::uint64_t> base_;
  std::vector<std::uint64_t> sent_;
  obs::Counter& batches_;
  std::uint64_t batches_base_;
  net::ServeReport report_;
  std::exception_ptr error_;
  std::thread loop_;  // last: runs against the members above
};

/// Buffers of one open-loop phase, sized before the memory probe
/// resets so the generator's own bookkeeping is not charged to it.
struct PacedPhase {
  PacedPhase(double rate, double seconds)
      : rate(rate),
        total(std::max<std::uint64_t>(2, static_cast<std::uint64_t>(rate * seconds))),
        latency_ms(total),
        late_ms(total),
        due_ns(total) {}

  double rate;
  std::uint64_t total;
  std::vector<float> latency_ms;
  std::vector<float> late_ms;       ///< send time minus due time
  std::vector<std::int64_t> due_ns; ///< by send order
  std::vector<double> scrape_ms;
  std::uint64_t queue_max = 0;
  bool drained = true;
  bool scrapes_ok = true;
};

void scrape(ServeRig& rig, PacedPhase& ph) {
  const std::int64_t t0 = now_ns();
  bool metrics_ok = false;
  bool status_ok = false;
  rig.http_get("/metrics", metrics_ok);
  const std::string status = rig.http_get("/status", status_ok);
  ph.scrape_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  try {
    const dist::JsonValue doc = dist::parse_json(status);
    for (const dist::JsonValue& t : doc.at("tenants").as_array()) {
      ph.queue_max = std::max(ph.queue_max, t.at("queue").as_u64());
    }
  } catch (const std::exception&) {
    status_ok = false;
  }
  ph.scrapes_ok = ph.scrapes_ok && metrics_ok && status_ok;
}

/// Line k goes to tenant k % 2 and is due at start + k / rate.
void run_paced(ServeRig& rig, PacedPhase& ph) {
  const std::size_t tenants = rig.tenants();
  std::vector<std::uint64_t> base_ingested(tenants);
  std::vector<std::uint64_t> acked(tenants, 0);
  std::vector<std::uint64_t> sent_to(tenants, 0);
  for (std::size_t t = 0; t < tenants; ++t) base_ingested[t] = rig.ingested(t);
  // Tenant t's j-th line of this phase is line j * tenants + t.
  const double ns_per_line = 1e9 / ph.rate;
  const std::int64_t start = now_ns() + 1'000'000;
  while (now_ns() < start) {
  }
  std::uint64_t sent = 0;
  std::uint64_t lat = 0;
  std::int64_t last_flush = start;
  std::int64_t next_scrape = start + 500'000'000;
  std::int64_t deadline = 0;
  for (;;) {
    const std::int64_t now = now_ns();
    if (sent < ph.total) {
      const auto due = std::min<std::uint64_t>(
          ph.total, static_cast<std::uint64_t>(static_cast<double>(now - start) /
                                               ns_per_line) + 1);
      for (; sent < due; ++sent) {
        const std::size_t t = sent % tenants;
        const auto due_at =
            start + static_cast<std::int64_t>(static_cast<double>(sent) * ns_per_line);
        rig.send(t);
        ++sent_to[t];
        ph.due_ns[sent] = due_at;
        ph.late_ms[sent] = static_cast<float>(now - due_at) / 1e6f;
      }
      if (now - last_flush >= kFlushEveryNs || sent == ph.total) {
        rig.flush();
        last_flush = now;
      }
      if (sent == ph.total) deadline = now + kDrainTimeoutNs;
    }
    const std::int64_t polled = now_ns();
    bool done = sent == ph.total;
    for (std::size_t t = 0; t < tenants; ++t) {
      const std::uint64_t in = rig.ingested(t) - base_ingested[t];
      for (; acked[t] < in && acked[t] < sent_to[t]; ++acked[t]) {
        const std::int64_t due_at = ph.due_ns[acked[t] * tenants + t];
        ph.latency_ms[lat++] = static_cast<float>(polled - due_at) / 1e6f;
      }
      done = done && acked[t] == sent_to[t];
    }
    if (done) break;
    if (sent < ph.total && now >= next_scrape) {
      scrape(rig, ph);
      next_scrape += 1'000'000'000;
    }
    if (sent == ph.total && polled > deadline) {
      ph.drained = false;
      break;
    }
  }
  ph.latency_ms.resize(lat);
}

/// Sends `per_tenant` lines to each tenant, interleaved and unpaced;
/// returns lines per second up to the last one ingested, or 0 when the
/// server did not drain.
double run_burst(ServeRig& rig, std::uint64_t per_tenant) {
  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < per_tenant; ++i) {
    for (std::size_t t = 0; t < rig.tenants(); ++t) rig.send(t);
  }
  rig.flush();
  if (!rig.wait_drained()) return 0.0;
  return static_cast<double>(per_tenant * rig.tenants()) / seconds_since(t0);
}

/// The `wss serve` tenant engine, fed directly: what each tenant's
/// drained table must equal.
std::string tenant_reference(const TenantInput& t, std::uint64_t sent) {
  stream::StreamPipeline ref(t.system, engine_options(/*predict=*/false));
  for (std::uint64_t j = 0; j < sent; ++j) {
    ref.ingest_line(t.lines[j % t.lines.size()]);
  }
  ref.finish();
  return stream::render_snapshot(ref.snapshot());
}

/// Checks a stopped rig's report against the references; returns the
/// lines that failed (not ingested, dropped, or in a wrong table).
std::uint64_t check_report(const std::vector<TenantInput>& tenants,
                           const ServeRig& rig, const net::ServeReport& report,
                           RunRecord& rec) {
  std::vector<std::string> expected(tenants.size());
  {
    std::vector<std::thread> refs;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      refs.emplace_back(
          [&, t] { expected[t] = tenant_reference(tenants[t], rig.sent(t)); });
    }
    for (auto& th : refs) th.join();
  }
  std::uint64_t failed = report.protocol_errors;
  rec.check(report.protocol_errors == 0 && report.oversized == 0,
            "serve: no protocol errors or oversized frames");
  rec.check(report.tenants.size() == tenants.size(),
            "serve: one report per tenant");
  for (std::size_t t = 0; t < tenants.size() && t < report.tenants.size(); ++t) {
    const net::ServeTenantReport& r = report.tenants[t];
    const std::uint64_t sent = rig.sent(t);
    const bool counts = r.name == tenants[t].name && r.delivered == sent &&
                        r.ingested == sent && r.dropped == 0;
    const bool table = r.table == expected[t];
    rec.check(counts, "serve: tenant " + tenants[t].name +
                          " delivered == ingested == sent, dropped == 0");
    rec.check(table, "serve: tenant " + tenants[t].name +
                         " table equals the reference StreamPipeline's");
    failed += table ? sent - std::min(sent, r.ingested) + r.dropped : sent;
  }
  return failed;
}

}  // namespace

void run_serve(const RunOptions& o, RunRecord& rec) {
  const std::vector<TenantInput> tenants = render_tenants(o.seed, o.smoke);

  // Set-up: server construction to the first line ingested.
  std::vector<double> setup;
  for (int i = 0; i < (o.smoke ? 1 : kSetupRepeats); ++i) {
    const std::int64_t t0 = now_ns();
    ServeRig rig(tenants);
    rig.send(0);
    rig.flush();
    rec.check(rig.wait_drained(), "serve set-up: the first line is ingested");
    setup.push_back(seconds_since(t0));
    const net::ServeReport report = rig.stop();
    rec.check(report.protocol_errors == 0, "serve set-up run is clean");
  }

  PacedPhase low(o.smoke ? 10'000 : 100'000, o.smoke ? 0.6 : 0.25 * o.seconds);
  PacedPhase high(o.smoke ? 40'000 : 400'000, o.smoke ? 0.6 : 0.25 * o.seconds);
  const std::uint64_t warm = o.smoke ? 500 : 20'000;
  const std::uint64_t burst = o.smoke ? 2'500 : 100'000;
  const double sat_seconds = 0.35 * o.seconds;

  const PeakRss peak;
  rec.check(peak.reset_ok(), "VmHWM reset through /proc/self/clear_refs");

  ServeRig rig(tenants);
  // Warm the tenants' engines (lazy DFA states, first-touch buffers)
  // before anything is timed.
  rec.check(run_burst(rig, warm) > 0.0, "serve: warm-up burst drains");
  run_paced(rig, low);
  run_paced(rig, high);
  std::vector<double> rate;
  const std::int64_t t0 = now_ns();
  while (rate.empty() || (!o.smoke && (seconds_since(t0) < sat_seconds ||
                                        rate.size() < kMinBursts))) {
    const double r = run_burst(rig, burst);
    rec.check(r > 0.0, "serve: saturation burst drains");
    if (r <= 0.0) break;
    rate.push_back(r);
  }
  const std::uint64_t batches = rig.batches();
  const net::ServeReport report = rig.stop();
  const double peak_mb = peak.rise_mb();

  rec.check(low.drained && high.drained, "serve: paced phases drain");
  rec.check(low.scrapes_ok && high.scrapes_ok,
            "serve: /metrics and /status answer 200 with a tenants list");
  std::uint64_t sent = 0;
  for (std::size_t t = 0; t < tenants.size(); ++t) sent += rig.sent(t);
  rec.add_attempted(sent);
  rec.add_failed(check_report(tenants, rig, report, rec));

  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  for (const net::ServeTenantReport& r : report.tenants) {
    delivered += r.delivered;
    dropped += r.dropped;
  }
  std::vector<float> late = low.late_ms;
  late.insert(late.end(), high.late_ms.begin(), high.late_ms.end());
  std::vector<double> scrape_ms = low.scrape_ms;
  scrape_ms.insert(scrape_ms.end(), high.scrape_ms.begin(), high.scrape_ms.end());

  rec.add_best("lines_per_s", "lines/s", rate, true);
  rec.add_repeated("setup_s", "s", setup);
  rec.add_value("peak_rss_mb", "MB", peak_mb, 1);
  const auto latency = [&rec](const char* name, std::vector<float>& v, double p) {
    const std::uint64_t n = v.size();
    rec.add_value(name, "ms", percentile(v, p), n);
  };
  latency("p50_ms_low", low.latency_ms, 0.50);
  latency("p99_ms_low", low.latency_ms, 0.99);
  latency("p50_ms_high", high.latency_ms, 0.50);
  latency("p99_ms_high", high.latency_ms, 0.99);
  latency("net.gen_late_p99_ms", late, 0.99);
  rec.add_repeated("net.scrape_ms", "ms", scrape_ms);
  rec.add_value("net.queue_max", "count",
                static_cast<double>(std::max(low.queue_max, high.queue_max)),
                scrape_ms.size());
  rec.add_value("net.batch_lines", "lines",
                static_cast<double>(delivered) /
                    static_cast<double>(std::max<std::uint64_t>(batches, 1)),
                batches);
  rec.add_value("net.dropped", "count", static_cast<double>(dropped), delivered);
  rec.add_value("net.protocol_errors", "count",
                static_cast<double>(report.protocol_errors), report.connections);
}

void trace_serve(const RunOptions& o, RunRecord& rec) {
  const std::vector<TenantInput> tenants = render_tenants(o.seed, o.smoke);
  // The route pass: every tenant's input once through a fresh server,
  // interleaved and unpaced (the layers replay exactly these lines).
  // The first pass warms the tenants' engines and is not used.
  std::uint64_t longest = 0;
  for (const TenantInput& t : tenants) {
    longest = std::max<std::uint64_t>(longest, t.lines.size());
  }
  ServeRig rig(tenants);
  double wall_ns = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    const std::int64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < longest; ++i) {
      for (std::size_t t = 0; t < tenants.size(); ++t) {
        if (i < tenants[t].lines.size()) rig.send(t);
      }
    }
    rig.flush();
    rec.check(rig.wait_drained(), "serve: route pass drains");
    wall_ns = static_cast<double>(now_ns() - t0);
  }
  const net::ServeReport report = rig.stop();
  for (std::size_t t = 0; t < tenants.size(); ++t) rec.add_attempted(rig.sent(t));
  rec.add_failed(check_report(tenants, rig, report, rec));
  trace_layers("serve", o, wall_ns, rec);
}

}  // namespace wss::bench
