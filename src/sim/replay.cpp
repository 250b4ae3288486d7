#include "sim/replay.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

namespace wss::sim {

Replayer::Replayer(const Simulator& simulator, ReplayOptions opts)
    : sim_(&simulator), opts_(opts) {
  if (opts.speed < 0.0) {
    throw std::invalid_argument("Replayer: speed must be >= 0");
  }
  const std::size_t n = simulator.events().size();
  begin_ = std::min(opts.begin, n);
  end_ = std::min(opts.end, n);
  if (end_ < begin_) end_ = begin_;
}

std::size_t Replayer::run(const Visitor& visit) const {
  const auto& events = sim_->events();
  if (begin_ >= end_) return 0;

  // Pace relative to the first replayed event: resume-from-checkpoint
  // replays the tail at the same rate, without first sleeping through
  // the already-consumed prefix.
  const util::TimeUs t0 = events[begin_].time;
  const auto wall0 = std::chrono::steady_clock::now();

  const auto cancelled = [this] {
    return opts_.cancel != nullptr && opts_.cancel();
  };

  std::size_t delivered = 0;
  std::string line;  // reused: each event renders over the last
  for (std::size_t i = begin_; i < end_; ++i) {
    if (cancelled()) break;
    const SimEvent& e = events[i];
    if (opts_.speed > 0.0) {
      const double sim_elapsed_us = static_cast<double>(e.time - t0);
      const auto wall_target =
          wall0 + std::chrono::microseconds(static_cast<std::int64_t>(
                      sim_elapsed_us / opts_.speed));
      // Sleep in bounded slices so a cancellation request (operator
      // Ctrl-C during a long simulated gap) is honored promptly.
      for (;;) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= wall_target || cancelled()) break;
        const auto remaining = wall_target - now;
        std::this_thread::sleep_for(
            std::min<std::chrono::steady_clock::duration>(
                remaining, std::chrono::milliseconds(100)));
      }
      if (cancelled()) break;
    }
    line.clear();
    sim_->renderer().render_into(e, i, line);
    ++delivered;
    if (!visit(i, e, line)) break;
  }
  return delivered;
}

}  // namespace wss::sim
