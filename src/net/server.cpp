#include "net/server.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/framing.hpp"
#include "net/http.hpp"
#include "net/signal.hpp"
#include "net/socket.hpp"
#include "obs/export.hpp"
#include "parse/record.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

namespace wss::net {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
constexpr int kMaxDatagramsPerWake = 1024;

/// Decoded lines accumulated per readiness callback before one ring
/// publication -- the batch hand-off that replaces per-line locking.
constexpr std::size_t kBatchLines = 256;

bool valid_tenant_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

std::optional<parse::SystemId> system_from_short(std::string_view name) {
  for (const auto id : parse::kAllSystems) {
    if (parse::system_short_name(id) == name) return id;
  }
  return std::nullopt;
}

/// Parsed `tenant=NAME [system=SHORT] [framing=nl|len] [year=N]
/// [stamp=us]` handshake line.
struct Handshake {
  std::string tenant;
  std::optional<parse::SystemId> system;
  std::optional<Framing> framing;
  std::optional<int> year;
  bool stamp = false;  ///< payload lines carry a `@<us> ` send stamp
  std::string error;   ///< non-empty = reject the connection

  static Handshake parse(const std::string& line);
};

Handshake Handshake::parse(const std::string& line) {
  Handshake h;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos) {
      h.error = util::format("handshake token without '=': %s", tok.c_str());
      return h;
    }
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    if (key == "tenant") {
      h.tenant = val;
    } else if (key == "system") {
      h.system = system_from_short(val);
      if (!h.system) {
        h.error = util::format("handshake names unknown system '%s'",
                               val.c_str());
        return h;
      }
    } else if (key == "framing") {
      if (val == "nl") {
        h.framing = Framing::kNewline;
      } else if (val == "len") {
        h.framing = Framing::kLenPrefix;
      } else {
        h.error = util::format("handshake framing must be nl|len, got '%s'",
                               val.c_str());
        return h;
      }
    } else if (key == "stamp") {
      if (val == "us") {
        h.stamp = true;
      } else {
        h.error = util::format("handshake stamp must be us, got '%s'",
                               val.c_str());
        return h;
      }
    } else if (key == "year") {
      const auto year = util::parse_i64(val);
      if (!year || *year < 1 || *year > 9999) {
        h.error = util::format("handshake year must be 1..9999, got '%s'",
                               val.c_str());
        return h;
      }
      h.year = static_cast<int>(*year);
    } else {
      h.error = util::format("unknown handshake key '%s'", key.c_str());
      return h;
    }
  }
  if (!valid_tenant_name(h.tenant)) {
    h.error = util::format("handshake tenant name invalid: '%s'",
                           h.tenant.c_str());
  }
  return h;
}

/// Strips a `@<us-since-epoch> ` latency stamp (sent under the
/// handshake's stamp=us) off the front of a payload line. A line that
/// does not match the exact shape passes through untouched -- data is
/// never corrupted by a stamp heuristic.
void strip_stamp(std::string_view& frame, std::int64_t& client_us) {
  if (frame.empty() || frame[0] != '@') return;
  std::size_t i = 1;
  std::int64_t us = 0;
  while (i < frame.size() && frame[i] >= '0' && frame[i] <= '9') {
    us = us * 10 + (frame[i] - '0');
    ++i;
  }
  if (i == 1 || i >= frame.size() || frame[i] != ' ') return;
  client_us = us;
  frame.remove_prefix(i + 1);
}

}  // namespace

struct Server::Impl {
  enum class TagKind : std::uint8_t {
    kTcpListener,
    kUdpListener,
    kHttpListener,
    kConn,
    kWake,
    kSignal,
  };

  struct Conn;

  struct Tag {
    TagKind kind;
    std::size_t index = 0;  ///< listener-spec index for the listener kinds
    Conn* conn = nullptr;
  };

  struct Conn {
    Fd fd;
    Tag tag;
    bool http = false;

    // ---- Ingest connections ----
    FrameDecoder decoder;
    Tenant* tenant = nullptr;    ///< resolved routing target
    Tenant* fallback = nullptr;  ///< the listener's port-keyed tenant
    bool awaiting_first = true;  ///< first line may be a handshake
    bool paused = false;         ///< EPOLLIN withdrawn: tenant ring full
    bool eof = false;            ///< peer finished; tail flush may be pending
    bool stamped = false;        ///< handshake requested stamp=us parsing
    std::uint64_t published_oversized = 0;

    /// Decoded lines awaiting one batched ring publication. Items at
    /// [batch_off, batch_len) are pending; a partial flush (ring full)
    /// leaves the remainder here while the connection is paused.
    /// Elements at [batch_len, size) are retired: their line buffers
    /// came back from the ring's swap-based admission and are reused
    /// in place by append_item, so a warm connection allocates nothing
    /// per line.
    std::vector<stream::StreamItem> batch;
    std::size_t batch_off = 0;
    std::size_t batch_len = 0;

    // ---- HTTP connections ----
    HttpRequestParser parser;
    std::string out;
    std::size_t out_off = 0;
    bool writing = false;
  };

  struct BoundTcp {
    Fd fd;
    Tag tag{TagKind::kTcpListener};
    std::uint16_t port = 0;
    Tenant* tenant = nullptr;  ///< null = handshake-routed
  };
  struct BoundUdp {
    Fd fd;
    Tag tag{TagKind::kUdpListener};
    std::uint16_t port = 0;
    Tenant* tenant = nullptr;
    FrameDecoder decoder;  ///< one datagram at a time
    std::uint64_t published_oversized = 0;
  };

  /// One event-loop shard: its own epoll, its own wake pipe, its own
  /// SO_REUSEPORT listener per configured spec, and exclusive ownership
  /// of every connection it accepts. Shards never touch each other's
  /// state; the tenants' rings are the only shared hand-off point.
  struct Shard {
    std::size_t id = 0;
    Fd epoll;
    Fd wake_r, wake_w;
    Tag wake_tag{TagKind::kWake};
    std::vector<std::unique_ptr<BoundTcp>> tcp;  ///< one per opts.tcp spec
    std::vector<std::unique_ptr<BoundUdp>> udp;  ///< one per opts.udp spec
    std::unordered_map<int, std::unique_ptr<Conn>> conns;
    std::vector<stream::StreamItem> udp_batch;  ///< datagram batch scratch
    std::size_t udp_batch_len = 0;  ///< used prefix; the rest is retired

    // Cumulative per-shard stats: prove the kernel actually spreads the
    // load and let /status show a hot shard at a glance.
    std::atomic<std::uint64_t> connections{0};
    std::atomic<std::uint64_t> delivered{0};
    std::atomic<std::uint64_t> batches{0};
    obs::Counter* connections_ctr = nullptr;
    obs::Counter* delivered_ctr = nullptr;
    obs::Counter* batches_ctr = nullptr;
  };

  explicit Impl(ServeOptions o)
      : opts(std::move(o)),
        connections_ctr(obs::registry().counter("wss_net_connections_total")),
        http_requests_ctr(
            obs::registry().counter("wss_net_http_requests_total")),
        protocol_errors_ctr(
            obs::registry().counter("wss_net_protocol_errors_total")),
        oversized_ctr(obs::registry().counter("wss_net_oversized_total")),
        active_gauge(obs::registry().gauge("wss_net_active_connections")) {}

  ServeOptions opts;

  std::vector<std::unique_ptr<Shard>> shards;

  Fd http_fd;
  Tag http_tag{TagKind::kHttpListener};
  Tag signal_tag{TagKind::kSignal};
  std::uint16_t http_port = 0;

  mutable std::mutex tenants_mu;  ///< guards tenants + by_name
  std::vector<std::unique_ptr<Tenant>> tenants;
  std::unordered_map<std::string, Tenant*> by_name;

  bool bound = false;
  std::atomic<bool> stop{false};
  std::atomic<bool> draining{false};
  std::atomic<std::size_t> active{0};

  std::atomic<std::uint64_t> connections_total{0};
  std::atomic<std::uint64_t> http_requests_total{0};
  std::atomic<std::uint64_t> protocol_errors_total{0};
  std::atomic<std::uint64_t> oversized_total{0};

  obs::Counter& connections_ctr;
  obs::Counter& http_requests_ctr;
  obs::Counter& protocol_errors_ctr;
  obs::Counter& oversized_ctr;
  obs::Gauge& active_gauge;

  // ---- Setup ----

  Tenant* find_tenant(const std::string& name) {
    std::lock_guard<std::mutex> lock(tenants_mu);
    const auto it = by_name.find(name);
    return it == by_name.end() ? nullptr : it->second;
  }

  /// Finds the named tenant, creating it from `cfg` on first use. The
  /// lookup and the insert share one lock: two shards racing the same
  /// handshake name get the same instance, never twins.
  Tenant* find_or_add_tenant(const TenantConfig& cfg) {
    std::lock_guard<std::mutex> lock(tenants_mu);
    const auto it = by_name.find(cfg.name);
    if (it != by_name.end()) return it->second;
    auto t = std::make_unique<Tenant>(cfg);
    Tenant* raw = t.get();
    // The consumer only wakes shards that set a bit in its waiter
    // mask, and a shard sets one only while running -- after bind_all
    // built the shards vector.
    raw->start([this](std::size_t k) { wake_shard(*shards[k]); });
    tenants.push_back(std::move(t));
    by_name.emplace(cfg.name, raw);
    return raw;
  }

  void epoll_add(Shard& s, int fd, std::uint32_t events, Tag* tag) {
    epoll_event ev{};
    ev.events = events;
    ev.data.ptr = tag;
    if (epoll_ctl(s.epoll.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
      throw std::runtime_error(
          util::format("epoll_ctl(ADD): %s", std::strerror(errno)));
    }
  }

  void epoll_mod(Shard& s, int fd, std::uint32_t events, Tag* tag) {
    epoll_event ev{};
    ev.events = events;
    ev.data.ptr = tag;
    if (epoll_ctl(s.epoll.get(), EPOLL_CTL_MOD, fd, &ev) != 0) {
      throw std::runtime_error(
          util::format("epoll_ctl(MOD): %s", std::strerror(errno)));
    }
  }

  void epoll_del(Shard& s, int fd) {
    epoll_ctl(s.epoll.get(), EPOLL_CTL_DEL, fd, nullptr);
  }

  static int resolve_shard_count(int requested) {
    if (requested == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      return static_cast<int>(std::min(hw == 0 ? 1u : hw, 8u));
    }
    return std::min(std::max(requested, 1), 64);
  }

  void bind_all() {
    if (bound) throw std::runtime_error("Server::bind() called twice");

    for (const auto& cfg : opts.tenants) {
      if (!valid_tenant_name(cfg.name)) {
        throw std::runtime_error(
            util::format("invalid tenant name '%s' (use [A-Za-z0-9_.-])",
                         cfg.name.c_str()));
      }
      if (find_tenant(cfg.name) != nullptr) {
        throw std::runtime_error(
            util::format("duplicate tenant '%s'", cfg.name.c_str()));
      }
      find_or_add_tenant(cfg);
    }

    const int nshards = resolve_shard_count(opts.loop_shards);
    const bool reuseport = nshards > 1;
    for (int k = 0; k < nshards; ++k) {
      auto s = std::make_unique<Shard>();
      s->id = static_cast<std::size_t>(k);
      s->epoll = Fd(epoll_create1(EPOLL_CLOEXEC));
      if (!s->epoll.valid()) {
        throw std::runtime_error(
            util::format("epoll_create1: %s", std::strerror(errno)));
      }
      int pipefd[2];
      if (pipe(pipefd) != 0) {
        throw std::runtime_error(
            util::format("pipe: %s", std::strerror(errno)));
      }
      s->wake_r = Fd(pipefd[0]);
      s->wake_w = Fd(pipefd[1]);
      set_nonblocking(s->wake_r.get());
      set_nonblocking(s->wake_w.get());
      epoll_add(*s, s->wake_r.get(), EPOLLIN, &s->wake_tag);
      s->connections_ctr = &obs::registry().counter(util::format(
          "wss_net_shard_connections_total{shard=\"%d\"}", k));
      s->delivered_ctr = &obs::registry().counter(util::format(
          "wss_net_shard_delivered_total{shard=\"%d\"}", k));
      s->batches_ctr = &obs::registry().counter(util::format(
          "wss_net_shard_batches_total{shard=\"%d\"}", k));
      shards.push_back(std::move(s));
    }

    if (opts.watch_shutdown_signal) {
      epoll_add(*shards[0], ShutdownSignal::fd(), EPOLLIN, &signal_tag);
    }

    // Every shard binds its own listener per spec. Shard 0 binds first
    // (resolving a port-0 spec to a concrete ephemeral port), the rest
    // join that port's reuseport group.
    for (std::size_t i = 0; i < opts.tcp.size(); ++i) {
      const auto& spec = opts.tcp[i];
      Tenant* tenant = nullptr;
      if (!spec.tenant.empty()) {
        tenant = find_tenant(spec.tenant);
        if (tenant == nullptr) {
          throw std::runtime_error(util::format(
              "tcp listener %u routes to undeclared tenant '%s'",
              unsigned{spec.port}, spec.tenant.c_str()));
        }
      }
      std::uint16_t port = spec.port;
      for (auto& s : shards) {
        auto l = std::make_unique<BoundTcp>();
        l->tenant = tenant;
        l->fd = listen_tcp(resolve_ipv4(opts.bind_host, port), 128, reuseport);
        l->port = bound_port(l->fd.get());
        port = l->port;
        l->tag.index = i;
        epoll_add(*s, l->fd.get(), EPOLLIN, &l->tag);
        s->tcp.push_back(std::move(l));
      }
    }

    for (std::size_t i = 0; i < opts.udp.size(); ++i) {
      const auto& spec = opts.udp[i];
      Tenant* tenant = find_tenant(spec.tenant);
      if (tenant == nullptr) {
        throw std::runtime_error(util::format(
            "udp listener %u requires a declared tenant (got '%s')",
            unsigned{spec.port}, spec.tenant.c_str()));
      }
      std::uint16_t port = spec.port;
      for (auto& s : shards) {
        auto l = std::make_unique<BoundUdp>();
        l->tenant = tenant;
        l->decoder = FrameDecoder(Framing::kNewline, opts.max_frame);
        l->fd =
            bind_udp(resolve_ipv4(opts.bind_host, port), 1 << 20, reuseport);
        l->port = bound_port(l->fd.get());
        port = l->port;
        l->tag.index = i;
        epoll_add(*s, l->fd.get(), EPOLLIN, &l->tag);
        s->udp.push_back(std::move(l));
      }
    }

    if (opts.http_enabled) {
      http_fd = listen_tcp(resolve_ipv4(opts.bind_host, opts.http_port));
      http_port = bound_port(http_fd.get());
      epoll_add(*shards[0], http_fd.get(), EPOLLIN, &http_tag);
    }

    if (opts.tcp.empty() && opts.udp.empty()) {
      throw std::runtime_error("no ingest listeners configured");
    }
    bound = true;
  }

  // ---- Connection lifecycle ----

  void accept_loop(Shard& s, Fd& listener, bool http, Tenant* fallback) {
    for (;;) {
      const int fd = accept4(listener.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR || errno == ECONNABORTED) continue;
        throw std::runtime_error(
            util::format("accept: %s", std::strerror(errno)));
      }
      auto conn = std::make_unique<Conn>();
      conn->fd = Fd(fd);
      conn->http = http;
      conn->fallback = fallback;
      conn->tenant = nullptr;
      conn->decoder = FrameDecoder(Framing::kNewline, opts.max_frame);
      conn->tag = Tag{TagKind::kConn, 0, conn.get()};
      epoll_add(s, fd, EPOLLIN, &conn->tag);
      s.conns.emplace(fd, std::move(conn));
      connections_total.fetch_add(1, std::memory_order_relaxed);
      connections_ctr.inc();
      s.connections.fetch_add(1, std::memory_order_relaxed);
      s.connections_ctr->inc();
      const std::size_t now = active.fetch_add(1, std::memory_order_relaxed) + 1;
      active_gauge.set(static_cast<std::int64_t>(now));
    }
  }

  void publish_oversized(const FrameDecoder& d, std::uint64_t& published) {
    const std::uint64_t total = d.oversized();
    if (total > published) {
      const std::uint64_t fresh = total - published;
      oversized_total.fetch_add(fresh, std::memory_order_relaxed);
      oversized_ctr.inc(fresh);
      published = total;
    }
  }
  void publish_oversized(Conn& c) {
    publish_oversized(c.decoder, c.published_oversized);
  }

  void protocol_error(Shard& s, Conn& c, const std::string& why) {
    protocol_errors_total.fetch_add(1, std::memory_order_relaxed);
    protocol_errors_ctr.inc();
    if (opts.log != nullptr) {
      std::lock_guard<std::mutex> lock(log_mu);
      *opts.log << "wss serve: protocol error: " << why << "\n";
    }
    close_conn(s, c);
  }

  void close_conn(Shard& s, Conn& c) {
    publish_oversized(c);
    const int fd = c.fd.get();
    epoll_del(s, fd);
    s.conns.erase(fd);  // destroys c
    const std::size_t now = active.fetch_sub(1, std::memory_order_relaxed) - 1;
    active_gauge.set(static_cast<std::int64_t>(now));
  }

  // ---- Batched ring hand-off ----

  /// Appends one decoded frame to the connection's pending batch: the
  /// single copy a TCP line pays between the socket and the engine.
  /// Retired elements past batch_len are reused in place -- their
  /// line buffers came back from the ring's swap-based admission, so
  /// assign() below usually fits in existing capacity (no malloc).
  void append_item(Conn& c, std::string_view frame) {
    if (c.batch_len == c.batch.size()) c.batch.emplace_back();
    stream::StreamItem& item = c.batch[c.batch_len++];
    item.client_us = 0;
    if (c.stamped) strip_stamp(frame, item.client_us);
    item.line.assign(frame.data(), frame.size());
  }

  /// Publishes the pending batch to the tenant's ring in one lock
  /// acquisition (lossless: never evicts). Returns false when the ring
  /// filled first -- the remainder stays queued on the connection and
  /// the caller pauses reading.
  bool flush_batch(Shard& s, Conn& c) {
    if (c.batch_off >= c.batch_len) {
      c.batch_off = 0;
      c.batch_len = 0;
      return true;
    }
    const std::size_t accepted =
        c.tenant->try_enqueue_batch(c.batch, c.batch_off, c.batch_len);
    if (accepted > 0) {
      c.batch_off += accepted;
      s.delivered.fetch_add(accepted, std::memory_order_relaxed);
      s.delivered_ctr->inc(accepted);
      s.batches.fetch_add(1, std::memory_order_relaxed);
      s.batches_ctr->inc();
    }
    if (c.batch_off < c.batch_len) return false;
    c.batch_off = 0;
    c.batch_len = 0;
    return true;
  }

  /// Evicting flush for shutdown paths (matches the old force-close
  /// behavior: buffered frames enter, oldest ring entries go, counted).
  void flush_batch_evicting(Shard& s, Conn& c) {
    const std::size_t n = c.batch_len - c.batch_off;
    if (n == 0 || c.tenant == nullptr) return;
    c.tenant->enqueue_batch_evicting(c.batch, c.batch_off, c.batch_len);
    s.delivered.fetch_add(n, std::memory_order_relaxed);
    s.delivered_ctr->inc(n);
    s.batches.fetch_add(1, std::memory_order_relaxed);
    s.batches_ctr->inc();
    c.batch_off = 0;
    c.batch_len = 0;
  }

  /// First line of an ingest connection: a `tenant=` handshake, or --
  /// on a port-keyed listener -- plain data. Returns false when the
  /// connection was closed (routing failure); `is_payload` tells the
  /// caller the line was data and must be delivered.
  bool route_first(Shard& s, Conn& c, std::string_view frame,
                   bool& is_payload) {
    c.awaiting_first = false;
    is_payload = false;
    if (frame.rfind("tenant=", 0) != 0) {
      if (c.fallback == nullptr) {
        protocol_error(
            s, c,
            "first line is not a tenant= handshake on a shared listener");
        return false;
      }
      c.tenant = c.fallback;
      is_payload = true;
      return true;
    }

    // Copy before any decoder mutation: the view aliases decoder
    // storage and a framing switch below frees it.
    const Handshake h = Handshake::parse(std::string(frame));
    if (!h.error.empty()) {
      protocol_error(s, c, h.error);
      return false;
    }
    Tenant* t = find_tenant(h.tenant);
    if (t == nullptr) {
      if (!opts.allow_handshake_tenants ||
          draining.load(std::memory_order_relaxed)) {
        protocol_error(s, c,
                       util::format("unknown tenant '%s'", h.tenant.c_str()));
        return false;
      }
      TenantConfig cfg = opts.tenant_defaults;
      cfg.name = h.tenant;
      if (h.system) cfg.system = *h.system;
      if (h.year) cfg.start_year = *h.year;
      t = find_or_add_tenant(cfg);
    }
    if (h.system && *h.system != t->system()) {
      protocol_error(
          s, c,
          util::format("handshake system does not match tenant '%s'",
                       h.tenant.c_str()));
      return false;
    }
    c.tenant = t;
    c.stamped = h.stamp;
    if (h.framing && *h.framing != c.decoder.mode()) {
      FrameDecoder next(*h.framing, opts.max_frame);
      next.feed(c.decoder.take_rest());
      c.decoder = std::move(next);
    }
    return true;
  }

  /// Registers this shard for the tenant consumer's resume wake, then
  /// re-checks the ring -- in that order, so a drain that lands in
  /// between is seen either here or by the consumer
  /// (Tenant::watch_resume). True = resume now.
  static bool arm_resume(Shard& s, Tenant& t) {
    t.watch_resume(s.id);
    return t.resume_ready();
  }

  /// Withdraws EPOLLIN while the tenant's ring is full. The tenant's
  /// consumer writes this shard's wake pipe once the ring drains to
  /// half, and that iteration's tick() resumes the connection. If the
  /// ring already drained, wake ourselves: a pause made by tick()'s
  /// own pump has no later tick in this iteration to catch it.
  void pause_conn(Shard& s, Conn& c) {
    if (c.paused) return;
    c.paused = true;
    epoll_mod(s, c.fd.get(), 0, &c.tag);
    if (arm_resume(s, *c.tenant)) wake_shard(s);
  }

  void resume_conn(Shard& s, Conn& c) {
    if (!c.paused) return;
    c.paused = false;
    epoll_mod(s, c.fd.get(), EPOLLIN, &c.tag);
  }

  /// Flushes the EOF tail (if any) and closes. Returns false when the
  /// batch must wait for ring room (connection stays, paused).
  bool finish_ingest(Shard& s, Conn& c) {
    std::string_view tail;
    if (c.decoder.finish_view(tail)) {
      if (c.awaiting_first) {
        bool is_payload = false;
        if (!route_first(s, c, tail, is_payload)) return true;  // closed
        if (is_payload) append_item(c, tail);
      } else if (c.tenant != nullptr) {
        append_item(c, tail);
      }
    } else if (c.decoder.mode() == Framing::kLenPrefix &&
               c.decoder.buffered() > 0) {
      flush_batch(s, c);
      protocol_error(s, c, "connection closed mid length-prefixed frame");
      return true;
    }
    if (c.tenant != nullptr && !flush_batch(s, c)) {
      // EOF data is still data: hold the remainder and wait for room.
      pause_conn(s, c);
      return false;
    }
    close_conn(s, c);
    return true;
  }

  /// Drives one ingest connection: slice frames out of the recv buffer
  /// into the pending batch, publish in kBatchLines blocks (pausing on
  /// a full tenant ring), then read more until would-block or EOF.
  void pump_ingest(Shard& s, Conn& c) {
    if (!flush_batch(s, c)) {
      // Leftovers from before the pause still don't fit.
      pause_conn(s, c);
      return;
    }
    for (;;) {
      std::string_view frame;
      while (c.decoder.next_view(frame)) {
        if (c.awaiting_first) {
          bool is_payload = false;
          if (!route_first(s, c, frame, is_payload)) return;  // closed
          if (!is_payload) continue;
        }
        append_item(c, frame);
        if (c.batch_len - c.batch_off >= kBatchLines) {
          if (!flush_batch(s, c)) {
            publish_oversized(c);
            pause_conn(s, c);
            return;
          }
        }
      }
      if (c.decoder.error()) {
        flush_batch(s, c);
        protocol_error(s, c, "length-prefixed frame exceeds --max-frame");
        return;
      }
      publish_oversized(c);

      if (c.eof) {
        finish_ingest(s, c);
        return;
      }

      // Zero-copy read: recv lands directly in the decoder's buffer;
      // next_view slices frames out of it without another move.
      char* dst = c.decoder.write_window(kReadChunk);
      std::size_t got = 0;
      const IoStatus st = read_some(c.fd.get(), dst, kReadChunk, got);
      if (st == IoStatus::kWouldBlock) {
        // Publish the partial batch before going idle -- a quiet
        // connection must not sit on undelivered lines.
        if (!flush_batch(s, c)) pause_conn(s, c);
        return;
      }
      if (st == IoStatus::kClosed) {
        c.eof = true;
        continue;  // one more decode pass, then finish_ingest
      }
      c.decoder.commit(got);
    }
  }

  // ---- UDP ----

  void pump_udp(Shard& s, BoundUdp& l) {
    auto& batch = s.udp_batch;
    s.udp_batch_len = 0;
    const auto flush = [&] {
      const std::size_t n = s.udp_batch_len;
      if (n == 0) return;
      l.tenant->enqueue_batch_evicting(batch, 0, n);
      s.delivered.fetch_add(n, std::memory_order_relaxed);
      s.delivered_ctr->inc(n);
      s.batches.fetch_add(1, std::memory_order_relaxed);
      s.batches_ctr->inc();
      s.udp_batch_len = 0;
    };
    const auto push_line = [&](std::string_view line) {
      if (s.udp_batch_len == batch.size()) batch.emplace_back();
      stream::StreamItem& item = batch[s.udp_batch_len++];
      item.client_us = 0;
      item.line.assign(line.data(), line.size());
      return true;
    };
    for (int i = 0; i < kMaxDatagramsPerWake; ++i) {
      std::size_t got = 0;
      char* dst = l.decoder.write_window(kReadChunk);
      const IoStatus st = recv_dgram(l.fd.get(), dst, kReadChunk, got);
      if (st != IoStatus::kOk) break;
      // A datagram is decoded whole: its unterminated tail is its last
      // line, and a lone trailing newline makes no empty line -- the
      // same contract as reading a file. An empty datagram is one empty
      // line: a sender that writes each line as a datagram adds no
      // '\n'.
      if (got == 0) push_line({});
      l.decoder.commit(got);
      l.decoder.for_each_frame(push_line);
      std::string_view tail;
      if (l.decoder.finish_view(tail)) push_line(tail);
      if (s.udp_batch_len >= kBatchLines) flush();
    }
    flush();
    publish_oversized(l.decoder, l.published_oversized);
  }

  // ---- HTTP (shard 0 only) ----

  void pump_http_read(Shard& s, Conn& c) {
    for (;;) {
      char buf[4096];
      std::size_t got = 0;
      const IoStatus st = read_some(c.fd.get(), buf, sizeof buf, got);
      if (st == IoStatus::kWouldBlock) return;
      if (st == IoStatus::kClosed) {
        close_conn(s, c);
        return;
      }
      if (c.parser.feed(std::string_view(buf, got))) {
        start_http_response(s, c);
        return;
      }
    }
  }

  void start_http_response(Shard& s, Conn& c) {
    http_requests_total.fetch_add(1, std::memory_order_relaxed);
    http_requests_ctr.inc();
    c.out = build_http_response(c);
    c.out_off = 0;
    c.writing = true;
    epoll_mod(s, c.fd.get(), EPOLLOUT, &c.tag);
    pump_http_write(s, c);
  }

  std::string build_http_response(Conn& c) {
    if (c.parser.error()) {
      return http_response(400, "text/plain", "bad request\n");
    }
    const HttpRequest& req = c.parser.request();
    if (req.method != "GET") {
      return http_response(405, "text/plain", "method not allowed\n");
    }
    if (req.path == "/metrics") {
      publish_all_ring_drops();
      return http_response(200, "text/plain; version=0.0.4",
                           obs::to_prometheus(obs::registry().snapshot()));
    }
    if (req.path == "/metrics.json") {
      publish_all_ring_drops();
      return http_response(200, "application/json",
                           obs::to_json(obs::registry().snapshot()));
    }
    if (req.path == "/status") {
      publish_all_ring_drops();
      return http_response(200, "application/json", status_json());
    }
    return http_response(404, "text/plain", "not found\n");
  }

  void pump_http_write(Shard& s, Conn& c) {
    while (c.out_off < c.out.size()) {
      const std::size_t n = write_some(c.fd.get(), c.out.data() + c.out_off,
                                       c.out.size() - c.out_off);
      if (n == kPeerGone) {
        close_conn(s, c);
        return;
      }
      if (n == 0) return;  // would block; EPOLLOUT re-arms us
      c.out_off += n;
    }
    close_conn(s, c);
  }

  // ---- Periodic work ----

  void publish_all_ring_drops() {
    std::lock_guard<std::mutex> lock(tenants_mu);
    for (const auto& t : tenants) t->take_ring_drops();
  }

  void tick(Shard& s) {
    publish_all_ring_drops();
    // Paused connections resume when their tenant's ring has drained to
    // half. Re-arm the ones that stay paused: the consumer clears the
    // whole mask when it wakes us, and another shard may have refilled
    // the ring since. Collect first (pump may close and erase conns
    // mid-walk).
    std::vector<Conn*> ready;
    for (const auto& [fd, conn] : s.conns) {
      if (conn->paused && arm_resume(s, *conn->tenant)) {
        ready.push_back(conn.get());
      }
    }
    for (Conn* c : ready) {
      resume_conn(s, *c);
      pump_ingest(s, *c);
    }
  }

  void handle_signal_fd() {
    ShutdownSignal::drain_fd();
    if (ShutdownSignal::take_hup() && !opts.metrics_path.empty()) {
      try {
        publish_all_ring_drops();
        obs::write_metrics_file(opts.metrics_path);
        if (opts.log != nullptr) {
          std::lock_guard<std::mutex> lock(log_mu);
          *opts.log << "wss serve: metrics re-exported to "
                    << opts.metrics_path << "\n";
        }
      } catch (const std::exception& e) {
        if (opts.log != nullptr) {
          std::lock_guard<std::mutex> lock(log_mu);
          *opts.log << "wss serve: metrics export failed: " << e.what()
                    << "\n";
        }
      }
    }
    if (ShutdownSignal::stop_requested()) request_stop_impl();
  }

  static void drain_wake_pipe(Shard& s) {
    char buf[64];
    while (read(s.wake_r.get(), buf, sizeof buf) > 0) {
    }
  }

  /// One byte on the shard's wake pipe; callable from any thread. A
  /// full pipe already holds a pending wake, so a short write is fine.
  static void wake_shard(Shard& s) {
    if (s.wake_w.valid()) {
      const char b = 1;
      [[maybe_unused]] const auto n = write(s.wake_w.get(), &b, 1);
    }
  }

  void request_stop_impl() {
    stop.store(true, std::memory_order_relaxed);
    for (const auto& s : shards) wake_shard(*s);
  }

  /// Closes this shard's listeners (with a final UDP sweep: anything
  /// already queued in the kernel buffer is data the sender believes
  /// delivered). Each shard drains its own listeners on its own thread.
  void begin_drain_shard(Shard& s) {
    draining.store(true, std::memory_order_relaxed);
    for (auto& l : s.tcp) {
      epoll_del(s, l->fd.get());
      l->fd.reset();
    }
    for (auto& l : s.udp) {
      pump_udp(s, *l);
      epoll_del(s, l->fd.get());
      l->fd.reset();
    }
    if (s.id == 0 && http_fd.valid()) {
      epoll_del(s, http_fd.get());
      http_fd.reset();
    }
  }

  /// Past the grace deadline: flush what each connection already
  /// buffered (ring evictions are accounted) and close it.
  void force_close_all(Shard& s) {
    while (!s.conns.empty()) {
      Conn& c = *s.conns.begin()->second;
      if (!c.http && c.tenant != nullptr) {
        std::string_view frame;
        while (c.decoder.next_view(frame)) append_item(c, frame);
        if (c.decoder.finish_view(frame)) append_item(c, frame);
        flush_batch_evicting(s, c);
      }
      close_conn(s, c);
    }
  }

  // ---- The loops ----

  /// One shard's event loop; every shard runs this on its own thread
  /// (shard 0 on the caller's).
  void shard_loop(Shard& s) {
    std::array<epoll_event, 64> events{};
    bool local_draining = false;
    std::chrono::steady_clock::time_point deadline{};
    for (;;) {
      if (stop.load(std::memory_order_relaxed) && !local_draining) {
        local_draining = true;
        deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(opts.drain_grace_ms);
        begin_drain_shard(s);
      }
      if (local_draining) {
        if (s.conns.empty()) break;
        if (std::chrono::steady_clock::now() >= deadline) {
          force_close_all(s);
          break;
        }
      }

      const int n =
          epoll_wait(s.epoll.get(), events.data(),
                     static_cast<int>(events.size()), opts.poll_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(
            util::format("epoll_wait: %s", std::strerror(errno)));
      }
      for (int i = 0; i < n; ++i) {
        auto* tag = static_cast<Tag*>(events[static_cast<std::size_t>(i)]
                                          .data.ptr);
        switch (tag->kind) {
          case TagKind::kTcpListener: {
            auto& l = *s.tcp[tag->index];
            if (l.fd.valid()) accept_loop(s, l.fd, false, l.tenant);
            break;
          }
          case TagKind::kUdpListener:
            if (s.udp[tag->index]->fd.valid()) pump_udp(s, *s.udp[tag->index]);
            break;
          case TagKind::kHttpListener:
            if (http_fd.valid()) accept_loop(s, http_fd, true, nullptr);
            break;
          case TagKind::kConn: {
            Conn& c = *tag->conn;
            if (c.http) {
              if (c.writing) {
                pump_http_write(s, c);
              } else {
                pump_http_read(s, c);
              }
            } else {
              pump_ingest(s, c);
            }
            break;
          }
          case TagKind::kWake:
            drain_wake_pipe(s);
            break;
          case TagKind::kSignal:
            handle_signal_fd();
            break;
        }
      }
      tick(s);
    }
  }

  ServeReport run_loop() {
    if (!bound) throw std::runtime_error("Server::run() before bind()");

    std::mutex err_mu;
    std::exception_ptr first_err;
    const auto guarded = [&](Shard& s) {
      try {
        shard_loop(s);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_err) first_err = std::current_exception();
        }
        // Bring the other shards down so run() can report the failure.
        request_stop_impl();
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(shards.size() - 1);
    for (std::size_t k = 1; k < shards.size(); ++k) {
      threads.emplace_back([&, k] { guarded(*shards[k]); });
    }
    guarded(*shards[0]);
    for (auto& t : threads) t.join();
    if (first_err) std::rethrow_exception(first_err);

    return drain_tenants();
  }

  ServeReport drain_tenants() {
    ServeReport report;
    report.connections = connections_total.load(std::memory_order_relaxed);
    report.http_requests =
        http_requests_total.load(std::memory_order_relaxed);
    report.protocol_errors =
        protocol_errors_total.load(std::memory_order_relaxed);
    report.oversized = oversized_total.load(std::memory_order_relaxed);

    std::vector<Tenant*> order;
    {
      std::lock_guard<std::mutex> lock(tenants_mu);
      for (const auto& t : tenants) order.push_back(t.get());
    }
    std::sort(order.begin(), order.end(), [](const Tenant* a, const Tenant* b) {
      return a->name() < b->name();
    });

    for (Tenant* t : order) {
      t->close_and_join();
      ServeTenantReport tr;
      tr.name = t->name();
      tr.system = std::string(parse::system_short_name(t->system()));
      tr.delivered = t->enqueued();
      tr.dropped = t->ring_dropped();
      tr.ingested = t->ingested();
      tr.admitted = t->admitted();
      tr.table = t->render_final();
      report.tenants.push_back(std::move(tr));

      if (!opts.checkpoint_dir.empty()) {
        const std::string path =
            (std::filesystem::path(opts.checkpoint_dir) / (t->name() + ".ckpt"))
                .string();
        // A failed publish loses only this tenant's file, never a table.
        try {
          std::filesystem::create_directories(opts.checkpoint_dir);
          std::ostringstream bytes;
          t->save_checkpoint(bytes);
          util::publish_file(path, bytes.view());
          report.checkpoints.push_back(path);
        } catch (const std::exception& e) {
          if (opts.log != nullptr) {
            *opts.log << "wss serve: cannot write checkpoint " << path << ": "
                      << e.what() << "\n";
          }
        }
      }
    }
    return report;
  }

  std::string build_status_json() const {
    std::string out = "{\"schema\":\"wss.serve.v1\",\"tenants\":[";
    {
      std::lock_guard<std::mutex> lock(tenants_mu);
      std::vector<const Tenant*> order;
      for (const auto& t : tenants) order.push_back(t.get());
      std::sort(order.begin(), order.end(),
                [](const Tenant* a, const Tenant* b) {
                  return a->name() < b->name();
                });
      bool first = true;
      for (const Tenant* t : order) {
        if (!first) out += ",";
        first = false;
        out += util::format(
            "{\"name\":%s,\"system\":\"%s\",\"delivered\":%llu,"
            "\"dropped\":%llu,\"ingested\":%llu,\"admitted\":%llu,"
            "\"queue\":%zu,\"queue_capacity\":%zu,\"watermark_us\":%lld",
            util::json_quote(t->name()).c_str(),
            std::string(parse::system_short_name(t->system())).c_str(),
            static_cast<unsigned long long>(t->enqueued()),
            static_cast<unsigned long long>(t->ring_dropped()),
            static_cast<unsigned long long>(t->ingested()),
            static_cast<unsigned long long>(t->admitted()), t->ring_size(),
            t->ring_capacity(),
            static_cast<long long>(t->watermark_us()));
        if (t->predict_enabled()) {
          out += util::format(
              ",\"predict\":{\"issued\":%llu,\"hits\":%llu,\"misses\":%llu,"
              "\"false_alarms\":%llu,\"incidents\":%llu}",
              static_cast<unsigned long long>(t->predict_issued()),
              static_cast<unsigned long long>(t->predict_hits()),
              static_cast<unsigned long long>(t->predict_misses()),
              static_cast<unsigned long long>(t->predict_false_alarms()),
              static_cast<unsigned long long>(t->predict_incidents()));
        }
        out += "}";
      }
    }
    out += util::format("],\"loop_shards\":%zu,\"shards\":[", shards.size());
    for (std::size_t k = 0; k < shards.size(); ++k) {
      const Shard& s = *shards[k];
      if (k != 0) out += ",";
      out += util::format(
          "{\"shard\":%zu,\"connections\":%llu,\"delivered\":%llu,"
          "\"batches\":%llu}",
          k,
          static_cast<unsigned long long>(
              s.connections.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              s.delivered.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              s.batches.load(std::memory_order_relaxed)));
    }
    out += util::format(
        "],\"connections_total\":%llu,\"active_connections\":%zu,"
        "\"http_requests_total\":%llu,\"protocol_errors_total\":%llu,"
        "\"oversized_total\":%llu,\"draining\":%s}",
        static_cast<unsigned long long>(
            connections_total.load(std::memory_order_relaxed)),
        active.load(std::memory_order_relaxed),
        static_cast<unsigned long long>(
            http_requests_total.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            protocol_errors_total.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            oversized_total.load(std::memory_order_relaxed)),
        draining.load(std::memory_order_relaxed) ? "true" : "false");
    return out;
  }

  std::string status_json() const { return build_status_json(); }

  /// The diagnostics stream may be written from any shard.
  std::mutex log_mu;
};

Server::Server(ServeOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts))) {}

Server::~Server() = default;

void Server::bind() { impl_->bind_all(); }

std::uint16_t Server::tcp_port(std::size_t i) const {
  return impl_->shards.at(0)->tcp.at(i)->port;
}

std::uint16_t Server::udp_port(std::size_t i) const {
  return impl_->shards.at(0)->udp.at(i)->port;
}

std::uint16_t Server::http_port() const { return impl_->http_port; }

ServeReport Server::run() { return impl_->run_loop(); }

void Server::request_stop() { impl_->request_stop_impl(); }

std::string Server::status_json() const { return impl_->status_json(); }

}  // namespace wss::net
