#include "net/client.hpp"

#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "util/strings.hpp"

namespace wss::net {

namespace {

void append_be32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>((v >> 24) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>(v & 0xff));
}

std::int64_t wall_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SinkClient::SinkClient(const SinkOptions& opts)
    : endpoint_(opts.endpoint),
      framing_(opts.framing),
      loss_(opts.udp),
      rng_(opts.seed),
      lossless_udp_(opts.lossless_udp),
      stamp_latency_(opts.stamp_latency &&
                     opts.endpoint.transport == Transport::kTcp &&
                     !opts.tenant.empty()),
      batch_bytes_(opts.endpoint.transport == Transport::kTcp
                       ? opts.send_batch_bytes
                       : 0) {
  to_ = resolve_ipv4(endpoint_.host, endpoint_.port);
  if (endpoint_.transport == Transport::kTcp) {
    fd_ = connect_tcp(to_);
    if (!opts.tenant.empty()) {
      // The handshake is always a newline-terminated line, even when
      // the data framing is len-prefix: the server switches decoders
      // after routing (see net/server.cpp).
      std::string hs = "tenant=" + opts.tenant;
      if (!opts.system_short.empty()) hs += " system=" + opts.system_short;
      if (opts.start_year != 0) {
        hs += util::format(" year=%d", opts.start_year);
      }
      if (framing_ == Framing::kLenPrefix) hs += " framing=len";
      if (stamp_latency_) hs += " stamp=us";
      hs += '\n';
      write_all(fd_.get(), hs.data(), hs.size());
    }
  } else {
    fd_ = udp_socket();
  }
}

SinkClient::~SinkClient() { close(); }

void SinkClient::send(util::TimeUs t, std::string_view line) {
  ++stats_.offered;
  if (endpoint_.transport == Transport::kTcp) {
    if (batch_bytes_ == 0) scratch_.clear();
    char stamp[32];
    std::size_t stamp_len = 0;
    // Sampled 1-in-16: the consumer samples stamped items 1-in-16
    // again, and stamping every line (a clock read + an itoa + ~16
    // wire bytes each) costs more than every other per-line step of
    // the client combined.
    if (stamp_latency_ && (sent_++ & 15) == 0) {
      stamp_len = static_cast<std::size_t>(std::snprintf(
          stamp, sizeof stamp, "@%lld ",
          static_cast<long long>(wall_now_us())));
    }
    if (framing_ == Framing::kLenPrefix) {
      append_be32(scratch_,
                  static_cast<std::uint32_t>(stamp_len + line.size()));
      scratch_.append(stamp, stamp_len);
      scratch_ += line;
    } else {
      scratch_.append(stamp, stamp_len);
      scratch_ += line;
      scratch_ += '\n';
    }
    if (batch_bytes_ == 0) {
      write_all(fd_.get(), scratch_.data(), scratch_.size());
    } else if (scratch_.size() >= batch_bytes_) {
      flush();
    }
    ++stats_.delivered;
    return;
  }

  // UDP: the contention model decides first (a modeled drop is never
  // sent), then the kernel gets a veto (ENOBUFS etc.).
  if (!lossless_udp_ && loss_.offer_drops(t, rng_)) {
    ++stats_.dropped;
    return;
  }
  if (send_dgram(fd_.get(), to_, line.data(), line.size())) {
    ++stats_.delivered;
  } else {
    ++stats_.dropped;
  }
}

void SinkClient::flush() {
  if (batch_bytes_ == 0 || scratch_.empty() || !fd_.valid()) return;
  write_all(fd_.get(), scratch_.data(), scratch_.size());
  scratch_.clear();
}

void SinkClient::close() {
  flush();
  fd_.reset();
}

}  // namespace wss::net
