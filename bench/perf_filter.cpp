// Perf X1: filtering algorithm comparison (google-benchmark).
//
// Section 3.3.2: performing temporal and spatial filtering
// simultaneously "reduces computational costs (16% faster on the
// Spirit logs), and increases conceptual simplicity." This bench runs
// the serial baseline and Algorithm 3.1 (with and without the
// clear(X) optimization) over a Spirit-scale ground-truth alert
// stream and prints the measured speedup.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "core/study.hpp"
#include "filter/serial.hpp"
#include "filter/simultaneous.hpp"
#include "sim/generator.hpp"
#include "util/strings.hpp"

namespace {

using namespace wss;

const std::vector<filter::Alert>& spirit_alerts() {
  static const std::vector<filter::Alert> alerts = [] {
    sim::SimOptions opts;
    opts.category_cap = 200000;
    opts.chatter_events = 0;
    const sim::Simulator simulator(parse::SystemId::kSpirit, opts);
    return simulator.ground_truth_alerts();
  }();
  return alerts;
}

template <typename Filter>
void run_filter(benchmark::State& state, Filter& f) {
  const auto& alerts = spirit_alerts();
  for (auto _ : state) {
    f.reset();
    std::size_t kept = 0;
    for (const auto& a : alerts) kept += f.admit(a) ? 1 : 0;
    benchmark::DoNotOptimize(kept);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(alerts.size()));
}

void BM_SerialFilter(benchmark::State& state) {
  filter::SerialFilter f(5 * util::kUsPerSec);
  run_filter(state, f);
}
BENCHMARK(BM_SerialFilter);

void BM_SimultaneousFilter(benchmark::State& state) {
  filter::SimultaneousFilter f(5 * util::kUsPerSec);
  run_filter(state, f);
}
BENCHMARK(BM_SimultaneousFilter);

void BM_SimultaneousNoClear(benchmark::State& state) {
  filter::SimultaneousFilter f(5 * util::kUsPerSec,
                               /*use_clear_optimization=*/false);
  run_filter(state, f);
}
BENCHMARK(BM_SimultaneousNoClear);

void BM_TemporalOnly(benchmark::State& state) {
  filter::TemporalFilter f(5 * util::kUsPerSec);
  run_filter(state, f);
}
BENCHMARK(BM_TemporalOnly);

/// Wall-clock comparison over several repetitions, for the printed
/// speedup claim.
template <typename Filter>
double time_filter(Filter& f, int reps) {
  const auto& alerts = spirit_alerts();
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    f.reset();
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t kept = 0;
    for (const auto& a : alerts) kept += f.admit(a) ? 1 : 0;
    benchmark::DoNotOptimize(kept);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "==== Perf X1: serial vs simultaneous filtering ====\n"
            << "Spirit-scale ground-truth alert stream ("
            << spirit_alerts().size() << " physical alerts)\n\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  filter::SerialFilter serial(5 * util::kUsPerSec);
  filter::SimultaneousFilter simultaneous(5 * util::kUsPerSec);
  const double t_serial = time_filter(serial, 7);
  const double t_simul = time_filter(simultaneous, 7);
  const double speedup = (t_serial - t_simul) / t_serial * 100.0;
  std::cout << util::format(
      "\nBest-of-7 wall clock: serial %.3f ms, simultaneous %.3f ms -> "
      "simultaneous is %.1f%% faster (paper: 16%% on the Spirit logs).\n",
      t_serial * 1e3, t_simul * 1e3, speedup);
  return 0;
}
