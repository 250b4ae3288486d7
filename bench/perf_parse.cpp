// Perf: parser throughput per log format. The collection servers see
// thousands of messages per second (Table 2's Rate column peaks at
// 3.3 KB/s average with far higher bursts); parsing must be orders of
// magnitude faster than arrival.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>

#include "bench_common.hpp"
#include "logio/input.hpp"
#include "parse/dispatch.hpp"
#include "sim/generator.hpp"
#include "simd/dispatch.hpp"
#include "simd/split.hpp"

namespace {

using namespace wss;

std::vector<std::string> corpus(parse::SystemId id) {
  sim::SimOptions opts;
  opts.category_cap = 3000;
  opts.chatter_events = 20000;
  const sim::Simulator simulator(id, opts);
  std::vector<std::string> lines;
  lines.reserve(simulator.events().size());
  for (std::size_t i = 0; i < simulator.events().size(); ++i) {
    lines.push_back(simulator.line(i));
  }
  return lines;
}

void parse_corpus(benchmark::State& state, parse::SystemId id, int year) {
  static std::map<parse::SystemId, std::vector<std::string>> cache;
  if (!cache.count(id)) cache[id] = corpus(id);
  const auto& lines = cache[id];
  std::size_t bytes = 0;
  for (const auto& l : lines) bytes += l.size();
  for (auto _ : state) {
    std::size_t valid = 0;
    for (const auto& line : lines) {
      const auto rec = parse::parse_line(id, line, year);
      valid += rec.timestamp_valid ? 1 : 0;
    }
    benchmark::DoNotOptimize(valid);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lines.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}

void BM_ParseSyslog(benchmark::State& state) {
  parse_corpus(state, parse::SystemId::kSpirit, 2005);
}
BENCHMARK(BM_ParseSyslog);

void BM_ParseBglRas(benchmark::State& state) {
  parse_corpus(state, parse::SystemId::kBlueGeneL, 2005);
}
BENCHMARK(BM_ParseBglRas);

void BM_ParseRedStorm(benchmark::State& state) {
  parse_corpus(state, parse::SystemId::kRedStorm, 2006);
}
BENCHMARK(BM_ParseRedStorm);

/// Times `pass` (already warmed) and returns the best-of-`reps`
/// duration in seconds.
template <typename F>
double best_of(int reps, F&& pass) {
  double best_s = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    pass();
    const auto t1 = std::chrono::steady_clock::now();
    best_s = std::min(best_s, std::chrono::duration<double>(t1 - t0).count());
  }
  return best_s;
}

void append_simd_row(const std::string& json) {
  std::ofstream os("BENCH_simd.json", std::ios::app);
  if (os) os << json << "\n";
}

/// Layer-by-layer SIMD ablation below the tag engine: the newline
/// splitter, the whitespace field splitter, and the full per-format
/// parse, each timed at every supported WSS_SIMD level on the same
/// Spirit corpus. Results are cross-checked across levels (line and
/// field counts must be bit-identical) and appended as one JSON-lines
/// object per layer to BENCH_simd.json.
void emit_simd_layer_ablation(int reps = 3) {
  const simd::Level restore = simd::active_level();
  const auto& lines = [] {
    static const std::vector<std::string> c = corpus(parse::SystemId::kSpirit);
    return c;
  }();
  std::string text;
  for (const auto& l : lines) {
    text += l;
    text += '\n';
  }
  const double n_lines = static_cast<double>(lines.size());
  const double n_bytes = static_cast<double>(text.size());

  struct Layer {
    const char* name;
    std::function<std::size_t()> pass;  ///< returns a cross-check count
    double per_sec_scale;               ///< lines or bytes per pass
    const char* unit;
  };
  std::vector<std::string_view> fields;
  parse::LogRecord rec;
  parse::ParseScratch scratch;
  const Layer layers[] = {
      {"split",
       [&] {
         std::size_t count = 0;
         simd::for_each_line(text, [&](std::string_view) { ++count; });
         return count;
       },
       n_bytes, "bytes"},
      {"fields",
       [&] {
         std::size_t count = 0;
         for (const auto& l : lines) {
           fields.clear();
           util::split_fields(l, fields);
           count += fields.size();
         }
         return count;
       },
       n_lines, "lines"},
      {"parse",
       [&] {
         std::size_t valid = 0;
         for (const auto& l : lines) {
           parse::parse_line_into(parse::SystemId::kSpirit, l, 2005, rec,
                                  scratch);
           valid += rec.timestamp_valid ? 1 : 0;
         }
         return valid;
       },
       n_lines, "lines"},
  };

  std::cout << "\n==== SIMD layer ablation (spirit, " << lines.size()
            << " lines) ====\n";
  for (const Layer& layer : layers) {
    std::size_t scalar_count = 0;
    double scalar_ps = 0.0;
    std::string json = util::format(
        "{\"bench\":\"perf_parse\",\"layer\":\"%s\",\"workload\":"
        "\"spirit cap=3000 chatter=20000\",\"lines\":%zu,\"levels\":[",
        layer.name, lines.size());
    bool first = true;
    for (const simd::Level level : simd::supported_levels()) {
      simd::set_level(level);
      const std::size_t count = layer.pass();  // warm-up at this level
      if (first) {
        scalar_count = count;
      } else if (count != scalar_count) {
        std::cerr << "FATAL: layer " << layer.name << " at level "
                  << simd::level_name(level) << " counts " << count
                  << ", scalar counts " << scalar_count << "\n";
        std::abort();
      }
      const double best_s = best_of(reps, [&] {
        benchmark::DoNotOptimize(layer.pass());
      });
      const double per_sec = layer.per_sec_scale / best_s;
      if (first) scalar_ps = per_sec;
      const double speedup = scalar_ps > 0 ? per_sec / scalar_ps : 1.0;
      std::cout << util::format("  %-6s  %-7s  %12.0f %s/sec  (%.2fx scalar)\n",
                                layer.name, simd::level_name(level), per_sec,
                                layer.unit, speedup);
      json += util::format(
          "%s{\"level\":\"%s\",\"%s_per_sec\":%.1f,"
          "\"speedup_vs_scalar\":%.3f}",
          first ? "" : ",", simd::level_name(level), layer.unit, per_sec,
          speedup);
      first = false;
    }
    json += "]}";
    append_simd_row(json);
  }
  simd::set_level(restore);
  std::cout << "(appended to BENCH_simd.json)\n";
}

/// Input-route ablation: the same file drained via the mmap'd
/// zero-copy route and the read() fallback, full split included, so
/// the row isolates what the page-cache copy costs. Byte counts are
/// cross-checked; one JSON-lines row goes to BENCH_simd.json.
void emit_input_ablation(int reps = 3) {
  namespace fs = std::filesystem;
  const std::vector<std::string> lines = corpus(parse::SystemId::kSpirit);
  std::string text;
  for (const auto& l : lines) {
    text += l;
    text += '\n';
  }
  const fs::path path =
      fs::temp_directory_path() /
      ("wss_perf_parse_" + std::to_string(::getpid()) + ".log");
  {
    std::ofstream os(path, std::ios::binary);
    os << text;
  }

  const auto drain = [&](bool use_mmap) {
    if (use_mmap) {
      ::unsetenv("WSS_MMAP");
    } else {
      ::setenv("WSS_MMAP", "0", 1);
    }
    const logio::InputBuffer in = logio::InputBuffer::open(path);
    std::size_t bytes = 0;
    simd::for_each_line(in.view(),
                        [&](std::string_view l) { bytes += l.size(); });
    return bytes;
  };

  std::cout << "\n==== Input route ablation (spirit, " << text.size()
            << " bytes) ====\n";
  std::string json = util::format(
      "{\"bench\":\"perf_parse\",\"layer\":\"input\",\"workload\":"
      "\"spirit cap=3000 chatter=20000\",\"bytes\":%zu,\"routes\":[",
      text.size());
  const std::size_t expect = drain(true);  // warm the page cache
  double read_ps = 0.0;
  const struct {
    const char* name;
    bool use_mmap;
  } routes[] = {{"read", false}, {"mmap", true}};
  for (std::size_t i = 0; i < 2; ++i) {
    const double best_s = best_of(reps, [&] {
      if (drain(routes[i].use_mmap) != expect) std::abort();
    });
    const double per_sec = static_cast<double>(text.size()) / best_s;
    if (i == 0) read_ps = per_sec;
    const double speedup = read_ps > 0 ? per_sec / read_ps : 1.0;
    std::cout << util::format("  %-4s  %12.0f bytes/sec  (%.2fx read)\n",
                              routes[i].name, per_sec, speedup);
    json += util::format(
        "%s{\"route\":\"%s\",\"bytes_per_sec\":%.1f,\"speedup_vs_read\":"
        "%.3f}",
        i == 0 ? "" : ",", routes[i].name, per_sec, speedup);
  }
  json += "]}";
  append_simd_row(json);
  ::unsetenv("WSS_MMAP");
  std::error_code ec;
  fs::remove(path, ec);
  std::cout << "(appended to BENCH_simd.json)\n";
}

/// Threads sweep of the parallel pipeline on this bench's default
/// workload (Spirit, category_cap 3000 / chatter 20000): wall-clock
/// lines/sec at 1, 2, 4, and 8 threads, best of `reps`. Prints a
/// summary table and appends one JSON record per call to
/// BENCH_pipeline.json (JSON-lines: one self-contained object per
/// line, keyed by `bench`), so the perf trajectory across PRs is
/// machine-readable.
void emit_pipeline_threads_sweep(int reps = 3) {
  sim::SimOptions opts;
  opts.category_cap = 3000;
  opts.chatter_events = 20000;
  const sim::Simulator simulator(parse::SystemId::kSpirit, opts);
  const auto lines = static_cast<double>(simulator.events().size());

  std::cout << "\n==== Pipeline threads sweep ====\n";
  std::string json = util::format(
      "{\"bench\":\"perf_parse\",\"workload\":\"spirit cap=3000 "
      "chatter=20000\",\"lines\":%zu,\"sweep\":[",
      simulator.events().size());
  double serial_lps = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    core::PipelineOptions popts;
    popts.num_threads = threads;
    const core::ParallelPipeline pipeline(popts);
    double best_s = 1e300;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto result = pipeline.run(simulator);
      const auto t1 = std::chrono::steady_clock::now();
      // Keep the compiler honest: consume a result field.
      if (result.physical_messages == 0) std::abort();
      best_s = std::min(best_s,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    const double lps = lines / best_s;
    if (threads == 1) serial_lps = lps;
    std::cout << util::format(
        "  threads=%d  %10.0f lines/sec  (%.3f s, speedup %.2fx)\n", threads,
        lps, best_s, serial_lps > 0 ? lps / serial_lps : 1.0);
    json += util::format("%s{\"threads\":%d,\"lines_per_sec\":%.1f}",
                         threads == 1 ? "" : ",", threads, lps);
  }
  json += "]}";
  std::ofstream os("BENCH_pipeline.json", std::ios::app);
  if (os) os << json << "\n";
  std::cout << "(appended to BENCH_pipeline.json)\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "==== Perf: parser throughput per log format ====\n\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  emit_pipeline_threads_sweep();
  emit_simd_layer_ablation();
  emit_input_ablation();
  return 0;
}
