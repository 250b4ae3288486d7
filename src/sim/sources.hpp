// Source (node) naming per system.
//
// Figure 2(b) breaks message volume down by source; the reproduction
// needs realistic, parseable source names per machine plus designated
// special nodes: administrative nodes (the chattiest sources), storm
// nodes (sn373 on Spirit, the VAPI node on Thunderbird), and the
// sn325 node whose independent disk failure the simultaneous filter
// erroneously removes (Section 3.3.2).
#pragma once

#include <cstdint>
#include <string>

#include "parse/record.hpp"

namespace wss::sim {

/// Maps numeric source ids to per-system node names and back-ish.
/// Ids 0 .. n_sources-1 are compute/location sources; the last few ids
/// of each system are administrative nodes.
class SourceNamer {
 public:
  explicit SourceNamer(parse::SystemId system, std::uint32_t n_sources);

  /// The node/location name for a source id.
  std::string name(std::uint32_t id) const;

  /// Appends name(id) to `out`. Names are written digit by digit, not
  /// looked up, so construction stays O(1) in the source count; once
  /// `out` has the capacity this allocates nothing.
  void append_name(std::uint32_t id, std::string& out) const;

  parse::SystemId system() const { return system_; }
  std::uint32_t size() const { return n_; }

  /// Number of administrative sources (the trailing ids).
  std::uint32_t n_admin() const { return n_admin_; }

  /// True if `id` is an administrative source.
  bool is_admin(std::uint32_t id) const { return id >= n_ - n_admin_; }

  /// First administrative id.
  std::uint32_t first_admin() const { return n_ - n_admin_; }

  // Designated special nodes (valid for the systems they describe).
  /// Spirit's pathological disk node "sn373".
  static constexpr std::uint32_t kSpiritStormNode = 373;
  /// Spirit's independently failing disk node "sn325".
  static constexpr std::uint32_t kSpiritShadowedNode = 325;
  /// Thunderbird's VAPI storm node.
  static constexpr std::uint32_t kThunderbirdVapiNode = 63;

 private:
  parse::SystemId system_;
  std::uint32_t n_;
  std::uint32_t n_admin_;
};

}  // namespace wss::sim
