// The study and stream workloads, and the helpers every workload
// shares: the corpus table, input rendering, CLI calls, peak memory.
#include "workloads.hpp"

#include <malloc.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "logio/input.hpp"
#include "obs/metrics.hpp"
#include "sim/generator.hpp"
#include "simd/split.hpp"
#include "stream/report.hpp"
#include "trace.hpp"
#include "util/time.hpp"

namespace wss::bench {

namespace {

using parse::SystemId;

/// Minimum passes per run, whatever --seconds says; --smoke runs one.
constexpr int kMinStudyPasses4 = 3;
constexpr int kMinStudyPasses1 = 2;
constexpr int kMinStreamPasses = 3;
/// Set-up repeats per run (the metric is their median).
constexpr int kSetupRepeats = 9;

using Command = int (*)(const cli::Args&, std::ostream&, std::ostream&);

struct CmdResult {
  int code = 0;
  std::string out;
  std::string err;
  double wall_s = 0.0;
};

/// One in-process invocation of a `wss` subcommand, timed from argument
/// parsing to return, with its output captured.
CmdResult call(Command cmd, const std::vector<std::string>& argv) {
  std::vector<const char*> ptrs;
  ptrs.reserve(argv.size());
  for (const std::string& a : argv) ptrs.push_back(a.c_str());
  std::ostringstream out;
  std::ostringstream err;
  CmdResult r;
  const std::int64_t t0 = now_ns();
  const cli::Args args =
      cli::Args::parse(static_cast<int>(ptrs.size()), ptrs.data());
  r.code = cmd(args, out, err);
  r.wall_s = seconds_since(t0);
  r.out = out.str();
  r.err = err.str();
  return r;
}

double status_kb(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::strtod(line.c_str() + len, nullptr);
    }
  }
  return 0.0;
}

std::vector<std::string> study_argv(const SimSpec& s, std::uint64_t seed,
                                    int threads) {
  return {"wss",       "study",
          "--system",  "all",
          "--threads", std::to_string(threads),
          "--seed",    std::to_string(seed),
          "--cap",     std::to_string(s.cap),
          "--chatter", std::to_string(s.chatter)};
}

std::vector<std::string> stream_argv(SystemId system,
                                     const std::filesystem::path& in) {
  return {"wss",  "stream", "--system", std::string(parse::system_short_name(system)),
          "--in", in.string(), "--predict"};
}

/// Removes the rendered inputs when the run ends, however it ends.
struct FileGuard {
  std::vector<std::filesystem::path> paths;
  ~FileGuard() {
    std::error_code ec;
    for (const auto& p : paths) std::filesystem::remove(p, ec);
  }
};

/// Renders the first `max_lines` lines of a spec's log to `path` (the
/// load generator's work; never timed).
void write_log(const SimSpec& spec, std::uint64_t seed,
               const std::filesystem::path& path,
               std::uint64_t max_lines = ~std::uint64_t{0}) {
  const sim::Simulator simulator(spec.system, sim_options(spec, seed));
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot write " + path.string());
  const auto& events = simulator.events();
  const std::size_t n = std::min<std::uint64_t>(events.size(), max_lines);
  std::string buf;
  for (std::size_t i = 0; i < n; ++i) {
    buf += simulator.renderer().render(events[i], i);
    buf += '\n';
    if (buf.size() >= (1 << 20)) {
      os << buf;
      buf.clear();
    }
  }
  os << buf;
  if (!os.flush()) throw std::runtime_error("cannot write " + path.string());
}

/// `cmd_stream` semantics, computed directly: the reference the route's
/// output must equal.
std::string stream_reference(SystemId system, const std::filesystem::path& in,
                             std::uint64_t& lines) {
  stream::StreamPipeline ref(system, engine_options(/*predict=*/true));
  const logio::InputBuffer input = logio::InputBuffer::open(in);
  simd::for_each_line(input.view(),
                      [&ref](std::string_view line) { ref.ingest_line(line); });
  ref.finish();
  lines = ref.events();
  return stream::render_snapshot(ref.snapshot());
}

/// Obs span totals (ns) by last path component, summed over paths.
std::map<std::string, double> obs_span_ns() {
  std::map<std::string, double> out;
  for (const obs::SpanStats& s : obs::registry().snapshot().spans) {
    const auto slash = s.path.rfind('/');
    out[s.path.substr(slash == std::string::npos ? 0 : slash + 1)] +=
        static_cast<double>(s.total_ns);
  }
  return out;
}

// ---- study ----

void run_study(const RunOptions& o, RunRecord& rec) {
  const SimSpec spec = corpus("study", o.smoke).front();

  // Fixed cost of one invocation on a minimal input.
  std::vector<double> setup;
  const SimSpec tiny{spec.system, 10, 100};
  for (int i = 0; i < (o.smoke ? 1 : kSetupRepeats); ++i) {
    const CmdResult r = call(cli::cmd_study, study_argv(tiny, o.seed, 4));
    rec.check(r.code == 0, "study set-up run exits 0: " + r.err);
    setup.push_back(r.wall_s);
  }

  // One untimed full-size pass warms the heap and the caches; its table
  // is the one every timed pass must print.
  obs::Counter& events = obs::registry().counter("wss_pipeline_events_total");
  std::uint64_t before = events.value();
  const CmdResult warm = call(cli::cmd_study, study_argv(spec, o.seed, 4));
  rec.check(warm.code == 0, "study warm-up pass exits 0: " + warm.err);
  const std::string& expected = warm.out;
  const std::uint64_t lines = events.value() - before;

  const PeakRss peak;
  rec.check(peak.reset_ok(), "VmHWM reset through /proc/self/clear_refs");

  // Every fourth pass runs 1 thread: the Amdahl baseline, and the
  // check that the table does not depend on the thread count.
  std::vector<double> rate4;
  std::vector<double> rate1;
  const int min4 = o.smoke ? 1 : kMinStudyPasses4;
  const int min1 = o.smoke ? 1 : kMinStudyPasses1;
  const std::int64_t t0 = now_ns();
  for (int k = 0;; ++k) {
    const int threads = k % 4 == 1 ? 1 : 4;
    before = events.value();
    const CmdResult r = call(cli::cmd_study, study_argv(spec, o.seed, threads));
    const std::uint64_t n = events.value() - before;
    const bool ok = r.code == 0 && r.out == expected && n == lines;
    rec.check(ok, "study --threads " + std::to_string(threads) +
                      " pass " + std::to_string(k) +
                      " prints the warm-up pass's table");
    rec.add_attempted(n);
    if (!ok) rec.add_failed(n);
    (threads == 4 ? rate4 : rate1).push_back(static_cast<double>(n) / r.wall_s);
    if (o.smoke ? k >= 1 : (seconds_since(t0) >= o.seconds &&
                            static_cast<int>(rate4.size()) >= min4 &&
                            static_cast<int>(rate1.size()) >= min1)) {
      break;
    }
  }
  rec.check(lines > 0, "study processes lines");

  rec.add_best("lines_per_s", "lines/s", rate4, true);
  rec.add_repeated("setup_s", "s", setup);
  rec.add_value("peak_rss_mb", "MB", peak.rise_mb(), 1);
  rec.add_best("lines_per_s_1t", "lines/s", rate1, true);
}

void trace_study(const RunOptions& o, RunRecord& rec) {
  const SimSpec spec = corpus("study", o.smoke).front();
  // One untraced pass per thread count: the 1-thread wall is the whole
  // the layers are attributed against (no overlap to explain), and the
  // pair prices the parallel part. The route's own obs spans split the
  // 4-thread pass into worker, merge and finalize time.
  call(cli::cmd_study, study_argv(spec, o.seed, 4));  // warm
  const auto before = obs_span_ns();
  const CmdResult r4 = call(cli::cmd_study, study_argv(spec, o.seed, 4));
  const auto after = obs_span_ns();
  const CmdResult r1 = call(cli::cmd_study, study_argv(spec, o.seed, 1));
  rec.check(r4.code == 0 && r1.code == 0 && r4.out == r1.out,
            "study --threads 4 and --threads 1 print identical tables");

  const auto delta = [&](const char* name) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    return (a == after.end() ? 0.0 : a->second) -
           (b == before.end() ? 0.0 : b->second);
  };
  const double speedup = r1.wall_s / r4.wall_s;
  rec.add_value("core.merge_ms", "ms", delta("pipeline_merge") / 1e6, 1);
  rec.add_value("core.finalize_ms", "ms", delta("finalize") / 1e6, 1);
  rec.add_value("core.worker_busy_share", "share",
                delta("pipeline_worker") / (4.0 * delta("cmd_study")), 1);
  // Amdahl: the serial share f that makes 4 threads run 1/(f+(1-f)/4)
  // times faster.
  rec.add_value("core.serial_fraction", "share",
                (4.0 / speedup - 1.0) / 3.0, 1);
  trace_layers("study", o, r1.wall_s * 1e9, rec);
}

// ---- stream ----

void run_stream(const char* workload, const RunOptions& o, RunRecord& rec) {
  const SimSpec spec = corpus(workload, o.smoke).front();
  FileGuard files;
  const auto in = o.workdir / (std::string(workload) + ".log");
  const auto one = o.workdir / (std::string(workload) + "-one.log");
  files.paths = {in, one};
  write_log(spec, o.seed, in);
  write_log(spec, o.seed, one, 1);

  std::vector<double> setup;
  for (int i = 0; i < (o.smoke ? 1 : kSetupRepeats); ++i) {
    const CmdResult r = call(cli::cmd_stream, stream_argv(spec.system, one));
    rec.check(r.code == 0, "stream set-up run exits 0: " + r.err);
    setup.push_back(r.wall_s);
  }

  std::uint64_t lines = 0;
  const std::string expected = stream_reference(spec.system, in, lines);
  rec.check(lines > 0, "stream input has lines");

  const PeakRss peak;
  rec.check(peak.reset_ok(), "VmHWM reset through /proc/self/clear_refs");

  std::vector<double> rate;
  const std::int64_t t0 = now_ns();
  for (int k = 0;; ++k) {
    const CmdResult r = call(cli::cmd_stream, stream_argv(spec.system, in));
    const bool ok = r.code == 0 && r.out == expected;
    rec.check(ok, "stream pass " + std::to_string(k) +
                      " prints the reference StreamPipeline's report");
    rec.add_attempted(lines);
    if (!ok) rec.add_failed(lines);
    rate.push_back(static_cast<double>(lines) / r.wall_s);
    if (o.smoke || (seconds_since(t0) >= o.seconds &&
                    static_cast<int>(rate.size()) >= kMinStreamPasses)) {
      break;
    }
  }

  rec.add_best("lines_per_s", "lines/s", rate, true);
  rec.add_repeated("setup_s", "s", setup);
  rec.add_value("peak_rss_mb", "MB", peak.rise_mb(), 1);
}

void trace_stream(const char* workload, const RunOptions& o, RunRecord& rec) {
  const SimSpec spec = corpus(workload, o.smoke).front();
  FileGuard files;
  const auto in = o.workdir / (std::string(workload) + ".log");
  files.paths = {in};
  write_log(spec, o.seed, in);
  call(cli::cmd_stream, stream_argv(spec.system, in));  // warm the page cache
  const CmdResult r = call(cli::cmd_stream, stream_argv(spec.system, in));
  rec.check(r.code == 0, "stream route pass exits 0: " + r.err);
  trace_layers(workload, o, r.wall_s * 1e9, rec);
}

void run_stream_chatter(const RunOptions& o, RunRecord& rec) {
  run_stream("stream_chatter", o, rec);
}
void run_stream_storm(const RunOptions& o, RunRecord& rec) {
  run_stream("stream_storm", o, rec);
}
void trace_stream_chatter(const RunOptions& o, RunRecord& rec) {
  trace_stream("stream_chatter", o, rec);
}
void trace_stream_storm(const RunOptions& o, RunRecord& rec) {
  trace_stream("stream_storm", o, rec);
}

}  // namespace

stream::StreamPipelineOptions engine_options(bool predict) {
  stream::StreamPipelineOptions popts;
  popts.study.threshold_us = 5 * util::kUsPerSec;
  popts.study.window_us = 3600 * util::kUsPerSec;
  popts.strict_order = false;
  popts.predict.enabled = predict;
  return popts;
}

sim::SimOptions sim_options(const SimSpec& s, std::uint64_t seed) {
  sim::SimOptions opts;
  opts.seed = seed;
  opts.category_cap = s.cap;
  opts.chatter_events = s.chatter;
  return opts;
}

std::vector<SimSpec> corpus(const std::string& workload, bool smoke) {
  if (workload == "study") {
    // The paper's job over all five systems; --cap/--chatter apply to
    // each. ~0.54M lines (smoke: ~12k).
    std::vector<SimSpec> out;
    for (const SystemId id : parse::kAllSystems) {
      out.push_back(smoke ? SimSpec{id, 100, 2000} : SimSpec{id, 10000, 80000});
    }
    return out;
  }
  if (workload == "stream_chatter") {
    // ~2.0M Liberty lines, 0.12% alerts: almost every line misses
    // every rule.
    return {smoke ? SimSpec{SystemId::kLiberty, 200, 15000}
                  : SimSpec{SystemId::kLiberty, 20000, 2000000}};
  }
  if (workload == "stream_storm") {
    // ~448k BG/L lines, ~78% alerts: RAS parsing, the DFA, the filter
    // and prediction dominate.
    return {smoke ? SimSpec{SystemId::kBlueGeneL, 300, 3000}
                  : SimSpec{SystemId::kBlueGeneL, 300000, 100000}};
  }
  if (workload == "serve") {
    // The two tenants' logs; the generator cycles through them.
    if (smoke) {
      return {{SystemId::kBlueGeneL, 100, 3000}, {SystemId::kLiberty, 100, 3000}};
    }
    return {{SystemId::kBlueGeneL, 5000, 100000},
            {SystemId::kLiberty, 5000, 100000}};
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"study", run_study, trace_study},
      {"stream_chatter", run_stream_chatter, trace_stream_chatter},
      {"stream_storm", run_stream_storm, trace_stream_storm},
      {"serve", run_serve, trace_serve},
  };
  return table;
}

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}


PeakRss::PeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  reset_ok_ = static_cast<bool>(f);
  base_kb_ = status_kb("VmHWM:");
}

double PeakRss::rise_mb() const {
  return (status_kb("VmHWM:") - base_kb_) / 1024.0;
}

}  // namespace wss::bench
