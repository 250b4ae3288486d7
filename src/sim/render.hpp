// Rendering SimEvents into each system's native log-line format.
//
// The formats follow Section 3.1 and the shapes visible in Table 4 /
// the public corpora:
//   syslog:        "Jun  3 15:42:50 sn373 kernel: <body>"
//   BG/L RAS:      "<epoch> <Y.M.D> <loc> <Y-M-D-H.M.S.micro> <loc>
//                   RAS <FACILITY> <SEVERITY> <body>"
//   RS syslog:     "Mar 19 10:00:00 login1 kern.crit kernel: <body>"
//   RS DDN:        "Mar 19 10:00:00 ddn1 local0.crit <body>"
//   RS evt router: "2006-03-19 10:00:00 ec_heartbeat_stop src:::<node>
//                   svc:::<node> <body>"
//
// Rendering is a pure function of (event, event_index): placeholder
// expansion and corruption decisions are seeded deterministically, so
// a line can be re-rendered at any time without storing it.
#pragma once

#include <string>
#include <vector>

#include "sim/chatter.hpp"
#include "sim/corruption.hpp"
#include "sim/process.hpp"
#include "sim/sources.hpp"
#include "sim/spec.hpp"
#include "tag/rulesets.hpp"

namespace wss::sim {

/// Renders events of one system.
class Renderer {
 public:
  /// `corruption` may be CorruptionConfig::none().
  Renderer(const SystemSpec& spec, const SourceNamer& namer,
           CorruptionConfig corruption, std::uint64_t seed);

  /// Appends one event's complete log line (no trailing newline) to
  /// `out`, a buffer the caller owns and reuses. Once `out` and this
  /// thread's body scratch have grown to fit, it neither allocates nor
  /// calls printf: the hot path of every route that renders.
  void render_into(const SimEvent& e, std::uint64_t event_index,
                   std::string& out) const;

  /// render_into() into a new string.
  std::string render(const SimEvent& e, std::uint64_t event_index) const;

  /// Renders without corruption (ground-truth view, used by tests).
  std::string render_clean(const SimEvent& e, std::uint64_t event_index) const;

  /// The log path an event travels (category's path, or the chatter
  /// template's).
  tag::LogPath path_of(const SimEvent& e) const;

 private:
  void expand(std::string_view tmpl, const SimEvent& e, util::Rng& rng,
              std::string& out) const;
  /// Appends the uncorrupted line; returns the path it took.
  tag::LogPath append_base_line(const SimEvent& e, std::uint64_t event_index,
                                std::string& out) const;

  const SystemSpec* spec_;
  const SourceNamer* namer_;
  std::vector<const tag::CategoryInfo*> categories_;
  CorruptionInjector injector_;
  std::uint64_t seed_;
};

}  // namespace wss::sim
