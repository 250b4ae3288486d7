// The four workloads. Each has an end-to-end run, which calls the
// route users run through its public function, and a traced run,
// which calls every layer's public function on the same inputs.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

#include "parse/record.hpp"
#include "report.hpp"
#include "sim/catalog.hpp"
#include "stream/pipeline.hpp"

namespace wss::bench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;          ///< measured time per run
  bool smoke = false;             ///< tiny inputs, one pass, every check
  std::filesystem::path workdir;  ///< rendered input files go here
  std::ostream* spans = nullptr;  ///< traced runs write their spans here
};

/// One simulated log of a workload's input.
struct SimSpec {
  parse::SystemId system = parse::SystemId::kLiberty;
  std::uint64_t cap = 0;
  std::uint64_t chatter = 0;
};

sim::SimOptions sim_options(const SimSpec& s, std::uint64_t seed);

/// The engine options `wss stream --in` and each `wss serve` tenant use
/// at their defaults: the references outputs are checked against.
stream::StreamPipelineOptions engine_options(bool predict);

/// The simulated logs behind a workload's input (study: the five
/// systems `cmd_study --system all` simulates itself).
std::vector<SimSpec> corpus(const std::string& workload, bool smoke);

struct Workload {
  const char* name;
  void (*run)(const RunOptions&, RunRecord&);    ///< end to end
  void (*trace)(const RunOptions&, RunRecord&);  ///< per layer
};

const std::vector<Workload>& workloads();

// serve.cpp
void run_serve(const RunOptions& o, RunRecord& rec);
void trace_serve(const RunOptions& o, RunRecord& rec);

// layers.cpp: replays the workload's input through each layer's public
// function and records the per-layer metrics. `route_wall_ns` is one
// untraced pass of the workload's route over the same input, the whole
// that the layers are attributed against.
void trace_layers(const std::string& workload, const RunOptions& o,
                  double route_wall_ns, RunRecord& rec);

// Shared helpers (workloads.cpp).

/// Wall seconds since `t0_ns` (see trace.hpp now_ns).
double seconds_since(std::int64_t t0_ns);


/// Peak-memory probe: returns free heap memory to the system, resets
/// VmHWM through /proc/self/clear_refs, and reports its rise since.
class PeakRss {
 public:
  PeakRss();
  bool reset_ok() const { return reset_ok_; }
  double rise_mb() const;

 private:
  bool reset_ok_ = false;
  double base_kb_ = 0.0;
};

}  // namespace wss::bench
