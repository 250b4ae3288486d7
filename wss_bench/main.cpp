// wss_bench: one layer-attributed benchmark over the study, stream and
// serve routes (README.md beside this file).
//
//   wss_bench --workload <name|all> --seed N [--runs R] [--seconds S]
//             [--trace FILE] [--out FILE.jsonl] [--smoke] [--workdir DIR]
//   wss_bench compare BASE.jsonl HEAD.jsonl [--bounds BENCHMARK.json]
//
// A run prints `workload metric value unit` lines and, with --out,
// appends one JSON-lines record. With --trace it replays the inputs
// layer by layer instead, prints the per-layer metrics and writes the
// spans to FILE. Exit status: 0 when every check passed, 1 when one
// failed, 2 on a usage error or a code-path override in the
// environment.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "cli/args.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

/// Variables that switch the program onto another code path. Both
/// sides of a comparison must run the defaults.
constexpr const char* kOverrides[] = {"WSS_SIMD", "WSS_TAG_ENGINE", "WSS_MMAP",
                                      "WSS_PERF_SERVE_STAMP",
                                      "WSS_NET_WRITE_BYTES"};

int usage(const char* why) {
  std::cerr << "wss_bench: " << why << "\n"
            << "usage: wss_bench --workload <name|all> --seed N [--runs R]\n"
               "                 [--seconds S] [--trace FILE] [--out FILE.jsonl]\n"
               "                 [--smoke] [--workdir DIR]\n"
               "       wss_bench compare BASE.jsonl HEAD.jsonl"
               " [--bounds BENCHMARK.json]\n"
               "workloads:";
  for (const auto& w : wss::bench::workloads()) std::cerr << ' ' << w.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wss;
  using namespace wss::bench;

  for (const char* var : kOverrides) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "wss_bench: " << var
                << " is set; unset it so every run takes the default code "
                   "paths\n";
      return 2;
    }
  }

  cli::Args args;
  try {
    args = cli::Args::parse(argc, argv);
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  if (args.command() == "compare") {
    const std::string bounds = args.get_or("bounds", "BENCHMARK.json");
    if (args.positional().size() != 2 || !args.unused().empty()) {
      return usage("compare takes BASE.jsonl HEAD.jsonl [--bounds FILE]");
    }
    return compare_records(args.positional()[0], args.positional()[1], bounds,
                           std::cout, std::cerr);
  }
  if (!args.command().empty() || !args.positional().empty()) {
    return usage("unexpected argument");
  }

  RunOptions opts;
  std::int64_t runs = 1;
  const auto workload = args.get("workload");
  const auto trace_path = args.get("trace");
  const auto out_path = args.get("out");
  try {
    if (!args.has("seed")) return usage("--seed is required");
    const std::int64_t seed = args.get_int("seed", 1);
    if (seed < 0) return usage("--seed must be >= 0");
    opts.seed = static_cast<std::uint64_t>(seed);
    runs = args.get_int("runs", 1);
    opts.seconds = args.get_double("seconds", 10.0);
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  opts.smoke = args.has("smoke");
  const bool own_workdir = !args.has("workdir");
  opts.workdir = own_workdir ? std::filesystem::temp_directory_path() /
                                   ("wss_bench." + std::to_string(::getpid()))
                             : std::filesystem::path(args.get_or("workdir", "."));
  if (!args.unused().empty()) {
    return usage(("unknown flag --" + args.unused().front()).c_str());
  }
  if (runs < 1 || !(opts.seconds > 0.0)) {
    return usage("--runs and --seconds must be positive");
  }
  if (!workload) return usage("--workload is required");
  if (trace_path && trace_path->empty()) return usage("--trace needs a file");

  std::vector<Workload> selected;
  for (const Workload& w : workloads()) {
    if (*workload == "all" || *workload == w.name) selected.push_back(w);
  }
  if (selected.empty()) {
    return usage(("unknown workload '" + *workload + "'").c_str());
  }

  std::ofstream spans;
  if (trace_path) {
    spans.open(*trace_path, std::ios::trunc);
    if (!spans) return usage(("cannot write " + *trace_path).c_str());
    opts.spans = &spans;
  }
  std::ofstream out;
  if (out_path) {
    out.open(*out_path, std::ios::app);
    if (!out) return usage(("cannot write " + *out_path).c_str());
  }
  std::error_code ec;
  std::filesystem::create_directories(opts.workdir, ec);
  if (ec) return usage(("cannot create " + opts.workdir.string()).c_str());

  const Machine machine = this_machine();
  bool all_ok = true;
  for (std::int64_t r = 0; r < runs; ++r) {
    for (const Workload& w : selected) {
      RunRecord rec(w.name, opts.seed, trace_path.has_value(), opts.seconds);
      try {
        (trace_path ? w.trace : w.run)(opts, rec);
      } catch (const std::exception& e) {
        rec.check(false, std::string("run aborted: ") + e.what());
      }
      rec.check(rec.attempted() > 0, "the run attempted work");
      rec.add_value("failed_share", "share",
                    rec.attempted() > 0 ? static_cast<double>(rec.failed()) /
                                              static_cast<double>(rec.attempted())
                                        : 1.0,
                    rec.attempted());
      rec.print_lines(std::cout);
      std::cout.flush();
      for (const std::string& f : rec.failures()) {
        std::cerr << "wss_bench: " << w.name << ": check failed: " << f << "\n";
      }
      if (out) out << rec.to_json(machine) << '\n' << std::flush;
      all_ok = all_ok && rec.all_checks_passed() && rec.failed() == 0;
    }
  }
  if (own_workdir) std::filesystem::remove_all(opts.workdir, ec);
  return all_ok ? 0 : 1;
}
