// `wss serve`: the multi-tenant network ingest server.
//
// N epoll-driven, non-blocking event-loop shards (--loop-shards, default
// 1) share each listening port via SO_REUSEPORT: every shard binds its
// own listener socket and the kernel spreads incoming connections across
// them by 4-tuple hash, so accept, read, decode, and ring hand-off all
// scale without a dispatch hop or any shard-to-shard locking. A shard
// owns its accepted connections end to end -- the only cross-thread
// touch points are the tenants' rings (their own locks, taken once per
// batch), the tenants' resume-waiter masks, and relaxed stats atomics.
// Socket kinds per shard: TCP
// listeners (length- or newline-framed log lines, routed to a tenant by
// the listener's binding or by a `tenant=` handshake line) and UDP
// listeners (syslog-over-UDP datagrams, port-keyed; one sender's
// datagrams always hash to one shard, preserving per-sender order).
// Shard 0 additionally owns the optional HTTP listener serving GET
// /metrics (Prometheus text), /metrics.json (the wss.obs.v1 snapshot),
// and /status (live per-tenant JSON), plus the shutdown-signal fd. Each
// tenant runs its own stream engine on its own consumer thread behind
// its own accounted IngestRing (net/tenant.hpp).
//
// The hot path is batched and copy-light: a readiness callback decodes
// frames as string_views sliced straight out of the recv buffer
// (FrameDecoder::write_window/next_view), copies each once into a
// StreamItem, and publishes up to 256 items per ring lock instead of
// one.
//
// Backpressure, per transport:
//   * TCP: before a decoded frame is pushed, the loop checks the
//     tenant's ring for room; a full ring pauses the connection
//     (EPOLLIN removed, bytes stay in the kernel buffer, TCP flow
//     control pushes back to the sender). The tenant's consumer wakes
//     the pausing shard through its wake pipe once the ring drains to
//     half (Tenant::watch_resume), and the shard resumes the
//     connection on that wake rather than on a timer. Nothing is
//     evicted for TCP traffic, so a TCP-fed tenant is lossless end to
//     end.
//   * UDP: datagrams cannot be deferred; a full ring evicts
//     oldest-first through the IngestRing's counted drop path. Every
//     eviction shows up in wss_net_dropped_total{tenant=...} -- never
//     a silent drop.
//
// Shutdown (request_stop(), or SIGINT/SIGTERM via net/signal.hpp when
// watch_shutdown_signal is set): listeners close immediately, live
// connections get drain_grace_ms to reach EOF (their buffered frames
// are flushed), rings close, consumers finish their pipelines, each
// tenant optionally writes a final checkpoint, and run() returns the
// per-tenant final tables -- byte-identical to `wss stream` over the
// same delivered lines. SIGHUP re-exports --metrics without stopping.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/tenant.hpp"

namespace wss::net {

/// A TCP listener. `tenant` empty means handshake-routed: each
/// connection's first line must be `tenant=NAME [system=SYS] [...]`.
struct TcpListenerSpec {
  std::uint16_t port = 0;  ///< 0 = ephemeral (tests)
  std::string tenant;
};

/// A UDP listener; datagrams cannot carry a handshake, so the tenant
/// binding is mandatory.
struct UdpListenerSpec {
  std::uint16_t port = 0;
  std::string tenant;
};

struct ServeOptions {
  std::string bind_host = "127.0.0.1";
  std::vector<TcpListenerSpec> tcp;
  std::vector<UdpListenerSpec> udp;
  bool http_enabled = false;
  std::uint16_t http_port = 0;

  /// Pre-declared tenants (required for UDP and port-keyed TCP).
  std::vector<TenantConfig> tenants;

  /// Template for tenants created by a TCP handshake that names an
  /// undeclared tenant (`tenant=x system=liberty`); name/system/year
  /// come from the handshake. Set allow_handshake_tenants=false to
  /// reject unknown tenants instead.
  TenantConfig tenant_defaults;
  bool allow_handshake_tenants = true;

  /// The longest line one TCP frame or UDP datagram line may be;
  /// longer ones are skipped whole and counted (wss_net_oversized_total).
  /// Serve holds one decoder buffer per connection, so its memory is
  /// this bound times the open connections, and an operator sizes it to
  /// the connection count (--max-frame). `wss stream --in` holds one
  /// buffer in all, so its bound is the constant logio::kMaxLine.
  std::size_t max_frame = 1 << 20;
  int drain_grace_ms = 5000;        ///< connection EOF budget at shutdown
  /// epoll_wait timeout: bounds how late a loop notices its drain
  /// deadline and publishes ring drops. Paused connections do not
  /// wait for it; the tenant consumer wakes their shard.
  int poll_ms = 50;

  /// Event-loop shards sharing every ingest port via SO_REUSEPORT.
  /// 1 = the classic single loop; 0 = auto (hardware threads, capped
  /// at 8); explicit values are capped at 64.
  int loop_shards = 1;

  /// Per-tenant checkpoints written here at drain (<dir>/<name>.ckpt);
  /// empty disables.
  std::string checkpoint_dir;

  /// Re-export target for SIGHUP (and the CLI's exit export); empty
  /// disables the SIGHUP path.
  std::string metrics_path;

  /// Watch net::ShutdownSignal's fd (the CLI sets this; tests use
  /// request_stop()).
  bool watch_shutdown_signal = false;

  /// Diagnostics sink for non-fatal runtime events (HUP export
  /// failures, protocol errors); null = silent.
  std::ostream* log = nullptr;
};

struct ServeTenantReport {
  std::string name;
  std::string system;  ///< short name
  std::uint64_t delivered = 0;    ///< frames enqueued to the ring
  std::uint64_t dropped = 0;      ///< ring evictions (accounted)
  std::uint64_t ingested = 0;     ///< lines the engine consumed
  std::uint64_t admitted = 0;     ///< filtered alerts admitted
  std::string table;              ///< final render_snapshot()
};

struct ServeReport {
  std::vector<ServeTenantReport> tenants;  ///< sorted by name
  std::uint64_t connections = 0;
  std::uint64_t http_requests = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t oversized = 0;
  std::vector<std::string> checkpoints;  ///< files written at drain
};

class Server {
 public:
  explicit Server(ServeOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds every listener (resolving port-0 binds) and starts the
  /// pre-declared tenants. Throws std::runtime_error on bind/validate
  /// failures. Call once, before run().
  void bind();

  /// Bound ports, valid after bind() (index into ServeOptions' specs).
  std::uint16_t tcp_port(std::size_t i) const;
  std::uint16_t udp_port(std::size_t i) const;
  std::uint16_t http_port() const;

  /// The blocking event loop: returns after a stop request completes
  /// the drain. Call from one thread only.
  ServeReport run();

  /// Requests a graceful stop (thread- and signal-safe: one pipe
  /// write).
  void request_stop();

  /// Live status document (the /status payload); callable from any
  /// thread while run() is active, and from the owner after.
  std::string status_json() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wss::net
