// The network sink behind `wss generate --sink udp://...|tcp://...`:
// turns the replayer's rendered lines into datagrams or framed stream
// writes, with client-side delivery accounting.
//
// TCP is the reliable path: every offered line is delivered (the
// kernel blocks us until it fits), framed by newline or 4-byte
// length prefix, after a one-line `tenant=` handshake that routes the
// connection server-side.
//
// UDP reuses sim::UdpLossModel -- the paper's syslog-over-UDP
// contention model (Section 3.1) -- *client-side*: each line is offered
// to the model at its simulated event time, and a "dropped" verdict
// means the datagram is never sent. A sendto() the kernel refuses
// (ENOBUFS and friends) also counts as dropped. The resulting
// offered/delivered/dropped stats are exact, which is what lets CI
// assert the server's wss_net_delivered_total equals this client's
// delivered count to the event.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/framing.hpp"
#include "net/socket.hpp"
#include "net/url.hpp"
#include "sim/transport.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace wss::net {

struct SinkOptions {
  Endpoint endpoint;
  /// Handshake fields (TCP only; tenant empty = no handshake, for
  /// port-keyed listeners).
  std::string tenant;
  std::string system_short;
  int start_year = 0;  ///< 0 = unstated
  Framing framing = Framing::kNewline;

  /// UDP loss model (client-side) + its RNG seed.
  sim::UdpConfig udp;
  std::uint64_t seed = 1;
  /// Disables the loss model: every UDP line is offered to the kernel
  /// (kernel refusals still count as drops).
  bool lossless_udp = false;

  /// TCP only: announce `stamp=us` in the handshake and prefix a
  /// sampled 1-in-16 of payload lines with `@<wall-us> ` at send
  /// time. The server strips the stamp and feeds client-send ->
  /// engine-consume latency into
  /// wss_net_ingest_latency_seconds{tenant=...}.
  bool stamp_latency = false;

  /// TCP only: coalesce framed lines client-side and write once this
  /// many bytes have accumulated (plus a final flush at close()).
  /// 0 = write every line immediately -- the legacy behavior, and the
  /// right one for interactive senders. Real shippers batch: one
  /// write() per line caps a loopback blaster near the syscall rate,
  /// which measures the client, not the server.
  std::size_t send_batch_bytes = 0;
};

class SinkClient {
 public:
  /// Connects (TCP: blocking connect + handshake write) or creates the
  /// datagram socket. Throws std::runtime_error on failure.
  explicit SinkClient(const SinkOptions& opts);

  /// Offers one rendered line (no trailing newline). `t` is the
  /// event's simulated time -- the loss model's clock.
  void send(util::TimeUs t, std::string_view line);

  /// Writes any coalesced-but-unsent bytes now (TCP batching only;
  /// no-op otherwise).
  void flush();

  /// Flushes and closes the socket (TCP: orderly FIN so the server
  /// flushes any unterminated tail). Idempotent; the destructor calls
  /// it.
  void close();

  ~SinkClient();
  SinkClient(const SinkClient&) = delete;
  SinkClient& operator=(const SinkClient&) = delete;

  const sim::TransportStats& stats() const { return stats_; }
  const Endpoint& endpoint() const { return endpoint_; }

 private:
  Endpoint endpoint_;
  Framing framing_;
  Fd fd_;
  Ipv4 to_{};
  sim::UdpLossModel loss_;
  util::Rng rng_;
  bool lossless_udp_;
  bool stamp_latency_ = false;
  std::uint64_t sent_ = 0;  ///< stamp-sampling counter
  std::size_t batch_bytes_ = 0;
  sim::TransportStats stats_;
  std::string scratch_;
};

}  // namespace wss::net
