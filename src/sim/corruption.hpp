// Message corruption injection (Section 3.2.1, "Corruption").
//
// "Even on supercomputers with highly engineered RAS systems ... log
// entries can be corrupted. We saw messages truncated, partially
// overwritten, and incorrectly timestamped." Plus the misattributed
// sources of Figure 2(b): "the cluster at the bottom is from the set
// of messages whose source field was corrupted, thwarting
// attribution." The injector reproduces all four modes on rendered
// lines, deterministically per (seed, event index) so rendering is a
// pure function.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "tag/rulesets.hpp"

namespace wss::sim {

/// Per-mode corruption probabilities.
struct CorruptionConfig {
  double p_truncate = 0.002;       ///< cut the line short
  double p_overwrite = 0.0005;     ///< splice another message's tail in
  double p_bad_timestamp = 0.0005; ///< garble the timestamp field
  double p_bad_source = 0.002;     ///< garble the source/host field
  /// Leave alert lines intact by default so calibrated counts hold;
  /// the corruption ablation bench flips this.
  bool alerts_exempt = true;

  /// Everything off.
  static CorruptionConfig none() {
    return CorruptionConfig{0.0, 0.0, 0.0, 0.0, true};
  }
};

/// Stateless (per-call) corruption of a rendered log line.
class CorruptionInjector {
 public:
  CorruptionInjector(CorruptionConfig cfg, std::uint64_t seed)
      : cfg_(cfg), seed_(seed) {}

  /// Possibly corrupts `line`. `event_index` makes the decision
  /// deterministic; `path` locates the timestamp/source fields;
  /// `is_alert` honours alerts_exempt.
  std::string apply(std::string line, std::uint64_t event_index,
                    tag::LogPath path, bool is_alert) const;

  /// The same decision, made in place on the line that occupies
  /// `buf[line_begin, buf.size())` -- the renderer's append-only
  /// buffer. Edits overwrite, truncate or append to that tail only.
  void apply(std::string& buf, std::size_t line_begin,
             std::uint64_t event_index, tag::LogPath path,
             bool is_alert) const;

  const CorruptionConfig& config() const { return cfg_; }

 private:
  CorruptionConfig cfg_;
  std::uint64_t seed_;
};

}  // namespace wss::sim
