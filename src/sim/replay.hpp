// Real-time-scaled replay of a simulated log.
//
// The generator produces a finished, time-sorted event stream; this
// walks it as if the system were emitting it live, pacing wall-clock
// delivery so that N seconds of simulated time pass per wall second
// (`speed`). speed = 0 disables pacing entirely (as fast as possible
// -- the mode equivalence tests and benchmarks use). The walk renders
// each event's line on the fly, so replay memory is O(1) in the log
// length beyond the simulator's own event vector.
//
// `begin` supports checkpoint resume: a restored streaming engine that
// already consumed K events replays [K, end) and the combined run is
// indistinguishable from an uninterrupted one.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <string_view>

#include "sim/generator.hpp"

namespace wss::sim {

struct ReplayOptions {
  /// Simulated seconds per wall second. 0 = unpaced.
  double speed = 0.0;

  /// Event index range [begin, end) to replay.
  std::size_t begin = 0;
  std::size_t end = std::numeric_limits<std::size_t>::max();

  /// Optional cooperative cancellation (SIGINT/SIGTERM drain): once
  /// it returns true the replay stops before the next event. Paced
  /// sleeps are sliced so even a sparse stream reacts within ~100 ms.
  bool (*cancel)() = nullptr;
};

/// Paced walk over a Simulator's rendered event stream.
class Replayer {
 public:
  /// The visitor receives (event index, event, rendered line) in
  /// stream order; return false to stop early. The line is valid only
  /// during the call: every event renders into the same buffer.
  using Visitor =
      std::function<bool(std::size_t, const SimEvent&, std::string_view)>;

  Replayer(const Simulator& simulator, ReplayOptions opts = {});

  /// Runs the replay. Returns the number of events delivered.
  std::size_t run(const Visitor& visit) const;

  /// Events the configured range will deliver.
  std::size_t total() const { return end_ - begin_; }

 private:
  const Simulator* sim_;
  ReplayOptions opts_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

}  // namespace wss::sim
