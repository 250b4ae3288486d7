#include "sim/corruption.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace wss::sim {

namespace {

/// Fragments used for the "partially overwritten" mode, modelled on
/// the paper's Thunderbird examples ("...VAPI_EAGSys/mosal_iobuf.c
/// [126]: dump iobuf at 0000010188ee7880:").
constexpr std::string_view kSpliceFragments[] = {
    "Sys/mosal_iobuf.c [126]: dump iobuf at 0000010188ee7880:",
    "ure = no",
    "_qp_destroy: qp handle",
    "0x0000000000000000 0x00000000",
};

/// Returns the [begin, end) byte range of the source/host field for a
/// given line shape.
std::pair<std::size_t, std::size_t> source_span(std::string_view line,
                                                tag::LogPath path) {
  switch (path) {
    case tag::LogPath::kSyslog:
    case tag::LogPath::kRsSyslog:
    case tag::LogPath::kRsDdn: {
      // "Mon dd HH:MM:SS host ..."
      if (line.size() <= 16) return {0, 0};
      const std::size_t b = 16;
      const std::size_t e = line.find(' ', b);
      return {b, e == std::string_view::npos ? line.size() : e};
    }
    case tag::LogPath::kBglRas: {
      // "<epoch> <date> <loc> ..." -- third field.
      std::size_t pos = 0;
      for (int f = 0; f < 2; ++f) {
        pos = line.find(' ', pos);
        if (pos == std::string_view::npos) return {0, 0};
        ++pos;
      }
      const std::size_t e = line.find(' ', pos);
      return {pos, e == std::string_view::npos ? line.size() : e};
    }
    case tag::LogPath::kRsEventRouter: {
      // "... src:::<node> ..."
      const std::size_t tag_pos = line.find("src:::");
      if (tag_pos == std::string_view::npos) return {0, 0};
      const std::size_t b = tag_pos + 6;
      const std::size_t e = line.find(' ', b);
      return {b, e == std::string_view::npos ? line.size() : e};
    }
  }
  return {0, 0};
}

std::size_t timestamp_len(tag::LogPath path) {
  switch (path) {
    case tag::LogPath::kBglRas:
      return 0;  // handled via the epoch field garble below
    case tag::LogPath::kRsEventRouter:
      return 19;  // "YYYY-MM-DD HH:MM:SS"
    default:
      return 15;  // "Mon dd HH:MM:SS"
  }
}

}  // namespace

std::string CorruptionInjector::apply(std::string line,
                                      std::uint64_t event_index,
                                      tag::LogPath path, bool is_alert) const {
  apply(line, 0, event_index, path, is_alert);
  return line;
}

void CorruptionInjector::apply(std::string& buf, std::size_t line_begin,
                               std::uint64_t event_index, tag::LogPath path,
                               bool is_alert) const {
  if (is_alert && cfg_.alerts_exempt) return;
  const auto size = [&] { return buf.size() - line_begin; };
  if (size() == 0) return;
  char* const line = buf.data() + line_begin;
  util::Rng rng(seed_ ^ (event_index * 0x9e3779b97f4a7c15ull) ^
                0x7f4a7c15ull);

  if (rng.bernoulli(cfg_.p_bad_source)) {
    const auto [b, e] = source_span({line, size()}, path);
    for (std::size_t i = b; i < e && i < size(); ++i) {
      // Binary garbage rendered as it lands in real logs.
      static constexpr char kJunk[] = "#@~^\x01\x7f?";
      line[i] = kJunk[rng.uniform_u64(sizeof(kJunk) - 1)];
    }
  }
  if (rng.bernoulli(cfg_.p_bad_timestamp)) {
    const std::size_t len = std::min(timestamp_len(path), size());
    if (len > 0) {
      const auto i = static_cast<std::size_t>(rng.uniform_u64(len));
      line[i] = static_cast<char>('A' + rng.uniform_u64(26));
    } else if (size() > 4) {
      line[rng.uniform_u64(4)] = 'X';  // BG/L epoch field
    }
  }
  if (rng.bernoulli(cfg_.p_truncate)) {
    // Real truncations clip the tail; keep >= 60% so attribution
    // usually still works (matching the paper's examples).
    const auto keep = static_cast<std::size_t>(
        static_cast<double>(size()) * rng.uniform(0.6, 0.95));
    buf.resize(line_begin + std::max<std::size_t>(keep, 1));
  }
  if (rng.bernoulli(cfg_.p_overwrite)) {
    const auto keep = static_cast<std::size_t>(
        static_cast<double>(size()) * rng.uniform(0.5, 0.9));
    buf.resize(line_begin + std::max<std::size_t>(keep, 1));
    buf.append(kSpliceFragments[rng.uniform_u64(
        sizeof(kSpliceFragments) / sizeof(kSpliceFragments[0]))]);
  }
}

}  // namespace wss::sim
