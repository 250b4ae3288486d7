#include "cli/commands.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "core/parallel.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "dist/manifest.hpp"
#include "dist/merge.hpp"
#include "dist/split.hpp"
#include "dist/worker.hpp"
#include "filter/simultaneous.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"
#include "logio/anonymize.hpp"
#include "logio/input.hpp"
#include "mine/templates.hpp"
#include "logio/writer.hpp"
#include "simd/split.hpp"
#include "net/client.hpp"
#include "net/framing.hpp"
#include "net/server.hpp"
#include "net/signal.hpp"
#include "net/url.hpp"
#include "sim/replay.hpp"
#include "stream/pipeline.hpp"
#include "stream/report.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace wss::cli {

namespace {

std::optional<parse::SystemId> parse_system(const std::string& name) {
  for (const auto id : parse::kAllSystems) {
    if (name == parse::system_short_name(id)) return id;
  }
  return std::nullopt;
}

/// Shared guard: reject unknown flags (typos fail loudly).
bool reject_unused(const Args& args, std::ostream& err) {
  const auto stray = args.unused();
  if (stray.empty()) return false;
  err << "unknown flag --" << stray.front() << "\n";
  return true;
}

/// Shared --threads parsing: a worker count >= 1, or "auto" for all
/// cores (mapped to 0, the PipelineOptions convention). Anything else
/// -- zero, negative, non-numeric -- is a loud error, never a silent
/// default.
bool parse_threads_flag(const Args& args, std::ostream& err, int& threads) {
  const auto raw = args.get("threads");
  if (!raw) {
    threads = 1;
    return true;
  }
  if (*raw == "auto") {
    threads = 0;
    return true;
  }
  std::int64_t n = 0;
  try {
    n = args.get_int("threads", 1);
  } catch (const std::exception&) {
    err << "--threads: '" << *raw << "' is not a thread count (use a number"
        << " >= 1, or 'auto')\n";
    return false;
  }
  if (n < 1) {
    err << "--threads must be >= 1 (or 'auto' for all cores)\n";
    return false;
  }
  threads = static_cast<int>(n);
  return true;
}

/// Shared --metrics parsing. Must run before reject_unused (so the
/// flag counts as read); a present-but-empty path is an error.
bool parse_metrics_flag(const Args& args, std::ostream& err,
                        std::optional<std::string>& path) {
  path = args.get("metrics");
  if (args.has("metrics") && (!path || path->empty())) {
    err << "--metrics requires a file path\n";
    return false;
  }
  return true;
}

/// Shared --predict flag family (stream and serve). The satellite
/// flags are usage errors without --predict, and bad values are loud
/// (exit 2), matching the --threads convention.
bool parse_predict_flags(const Args& args, std::ostream& err,
                         stream::PredictOptions& predict) {
  predict.enabled = args.has("predict");
  const bool has_train = args.has("predict-train");
  const bool has_horizon = args.has("predict-horizon");
  if (!predict.enabled && (has_train || has_horizon)) {
    err << "--predict-train/--predict-horizon require --predict\n";
    return false;
  }
  if (has_train) {
    std::int64_t n = 0;
    try {
      n = args.get_int("predict-train", 0);
    } catch (const std::exception&) {
      n = 0;
    }
    if (n < 1) {
      err << "--predict-train wants a training alert count >= 1\n";
      return false;
    }
    predict.train_alerts = static_cast<std::size_t>(n);
  }
  if (has_horizon) {
    double s = 0.0;
    try {
      s = args.get_double("predict-horizon", 0.0);
    } catch (const std::exception&) {
      s = 0.0;
    }
    if (s <= 0.0) {
      err << "--predict-horizon wants a window in seconds > 0\n";
      return false;
    }
    predict.horizon_us = static_cast<util::TimeUs>(s * 1e6);
  }
  return true;
}

/// Snapshots the registry to `path` (JSON, or Prometheus text for
/// .prom). Returns the command's exit code contribution: 0, or 1 on an
/// I/O failure.
int write_metrics(const std::optional<std::string>& path, const char* cmd,
                  std::ostream& err) {
  if (!path) return 0;
  try {
    obs::write_metrics_file(*path);
  } catch (const std::exception& e) {
    err << cmd << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}

/// The shared graceful-drain scope for the long-running commands
/// (stream, serve, generate --sink): installs the SIGINT/SIGTERM/
/// SIGHUP handlers for one command invocation; the destructor restores
/// the previous dispositions so in-process callers (tests) are
/// unaffected. The replayer's paced waits poll stop_requested directly
/// (sim::ReplayOptions::cancel).
class SignalDrain {
 public:
  SignalDrain() { net::ShutdownSignal::install(); }
  ~SignalDrain() { net::ShutdownSignal::uninstall(); }
  SignalDrain(const SignalDrain&) = delete;
  SignalDrain& operator=(const SignalDrain&) = delete;

  bool stopped() const { return net::ShutdownSignal::stop_requested(); }
};

/// Reads `reader` to its end through `decoder` and calls on_line(line)
/// for each line it cuts, the unterminated tail last. Each read() lands
/// in the decoder's buffer, so resident input is one bounded buffer and
/// a live pipe is consumed as it is written. on_line returns false to
/// stop; `stopped()` is tested before every read, not only before
/// every line, so a drain signal that lands while the last line of a
/// read is handled does not leave the caller blocked on an idle pipe
/// (a signal during the read() itself interrupts it). Returns true when
/// the input ended, false when stopped.
template <typename Stop, typename OnLine>
bool read_lines(logio::ChunkReader& reader, net::FrameDecoder& decoder,
                Stop&& stopped, OnLine&& on_line) {
  decoder.write_window(logio::kReadChunk);  // one read's worth up front
  for (;;) {
    if (stopped()) return false;
    // A quarter read is the least room asked for: a line cut by the
    // last read is compacted to the front rather than doubling the
    // buffer, and the read then fills the room there is, up to a read.
    char* dst = decoder.write_window(logio::kReadChunk / 4);
    std::size_t got = 0;
    if (!reader.read_into(dst, std::min(decoder.room(), logio::kReadChunk),
                          got)) {
      std::string_view tail;
      return !decoder.finish_view(tail) || on_line(tail);
    }
    decoder.commit(got);
    if (!decoder.for_each_frame(on_line)) return false;
  }
}

/// The stderr note for lines longer than logio::kMaxLine.
std::string oversized_note(const char* cmd, std::uint64_t lines) {
  return util::format("%s: skipped %llu line(s) longer than %zu bytes\n",
                      cmd, static_cast<unsigned long long>(lines),
                      logio::kMaxLine);
}

/// Splits a comma-separated multi-value flag ("9000:a,9001:b").
std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const auto comma = s.find(',', start);
    const auto end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Parses the PORT in "PORT" / "PORT:TENANT" specs. Returns false on
/// junk or out-of-range values (0 is allowed: ephemeral bind).
bool parse_port(const std::string& tok, std::uint16_t& port) {
  if (tok.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long v = std::strtoul(tok.c_str(), &end, 10);
  if (errno != 0 || end != tok.c_str() + tok.size() || v > 65535) {
    return false;
  }
  port = static_cast<std::uint16_t>(v);
  return true;
}

}  // namespace

void print_usage(std::ostream& os) {
  os << "wss -- What Supercomputers Say (DSN 2007) reproduction tool\n"
        "\n"
        "usage: wss <command> [flags]\n"
        "\n"
        "commands:\n"
        "  generate   simulate a system log and write it to disk\n"
        "             --system bgl|tbird|rstorm|spirit|liberty  --out PATH\n"
        "             [--seed N] [--cap N] [--chatter N] [--compressed]\n"
        "             [--per-source]\n"
        "             [--speed N]  replay mode: pace lines at N simulated\n"
        "             seconds per wall second (0 = unpaced); --out - for\n"
        "             stdout\n"
        "             [--sink udp://H:P|tcp://H:P]  send the replayed\n"
        "             stream to a wss serve instance instead of a file\n"
        "             ([--tenant NAME] [--framing nl|len] [--loss-base P]\n"
        "              [--loss-contention P] [--lossless] [--loss-seed N]\n"
        "              [--stamp-latency] [--send-batch BYTES];\n"
        "             udp runs the paper's contention loss model\n"
        "             client-side and prints exact delivered/dropped;\n"
        "             tcp can stamp 1-in-16 lines for the server's\n"
        "             ingest-latency histogram and coalesce writes)\n"
        "  anonymize  pseudonymize IPs/users/paths in a log file\n"
        "             --in PATH --out PATH [--seed N]\n"
        "  mine       mine message templates from a log (SLCT-style)\n"
        "             --in PATH [--support N] [--skip N] [--top N]\n"
        "  tables     print the paper's tables from a fresh simulation\n"
        "             [--which N] (default: all)\n"
        "             [--threads N|auto]  pipeline worker threads (auto =\n"
        "             all cores); results are bit-identical at any N\n"
        "  study      run the full parallel pipeline + filter over fresh\n"
        "             simulations and print a per-system summary\n"
        "             [--system NAME|all] [--threads N|auto]\n"
        "             [--threshold SEC] [--seed N] [--cap N] [--chatter N]\n"
        "             [--split-by system|category|time --num-splits N\n"
        "              --manifest-dir DIR]  plan a distributed study:\n"
        "             write claimable assignment manifests instead of\n"
        "             running the pipeline\n"
        "  worker     claim one assignment from a manifest directory,\n"
        "             compute its chunk partials, publish them atomically\n"
        "             wss worker <id> --manifest-dir DIR\n"
        "             [--stale-after SEC] [--threads N|auto]\n"
        "             exit 3 when the assignment is held by a live worker\n"
        "  merge      validate + fold every assignment's partial and\n"
        "             write the study's tables/figure data; byte-identical\n"
        "             to a single-process run\n"
        "             --manifest-dir DIR [--out DIR]\n"
        "  stream     run the online pipeline over a live event stream\n"
        "             --system NAME; source: simulated replay (default;\n"
        "             [--seed N] [--cap N] [--chatter N] [--speed N]) or\n"
        "             --in PATH (parsed log, [--year Y]); the engine\n"
        "             reads either source inline and drops no line\n"
        "             [--threshold SEC] [--window SEC] [--refresh N]\n"
        "             [--checkpoint PATH] [--restore PATH]\n"
        "             [--max-events N] [--emit PATH]\n"
        "             [--predict]  online failure prediction: runs the\n"
        "             predictor ensemble (rate burst, precursor, periodic)\n"
        "             over the alert stream ([--predict-train N] alerts of\n"
        "             self-training, [--predict-horizon SEC] window);\n"
        "             predictions ride --emit as 'P' lines\n"
        "             SIGINT/SIGTERM drain gracefully: finish in-flight\n"
        "             events, checkpoint (with --checkpoint), report\n"
        "  serve      multi-tenant network ingest server: one stream\n"
        "             engine per tenant behind accounted backpressure\n"
        "             --tcp PORT[:TENANT],...  newline/len-framed lines;\n"
        "             no tenant = route by first-line handshake\n"
        "             'tenant=NAME [system=SYS] [framing=len] [year=Y]'\n"
        "             [--udp PORT:TENANT,...]  syslog-over-UDP datagrams\n"
        "             [--tenant NAME:SYSTEM[:YEAR],...]  declare tenants\n"
        "             [--http PORT]  GET /metrics /metrics.json /status\n"
        "             [--bind HOST] [--queue N] [--threshold SEC]\n"
        "             [--window SEC] [--checkpoint-dir DIR]\n"
        "             [--max-frame BYTES] [--drain-grace SEC]\n"
        "             [--loop-shards N|auto]  SO_REUSEPORT event-loop\n"
        "             shards (default 1; auto = hardware threads <= 8)\n"
        "             [--predict] [--predict-train N]\n"
        "             [--predict-horizon SEC]  per-tenant online failure\n"
        "             prediction (wss_predict_* in /metrics and /status)\n"
        "             SIGTERM/SIGINT drain + checkpoint each tenant;\n"
        "             SIGHUP re-exports --metrics without stopping\n"
        "\n"
        "every command accepts --metrics FILE: write an observability\n"
        "snapshot on exit (Prometheus text when FILE ends in .prom, JSON\n"
        "otherwise)\n";
}

int cmd_generate(const Args& args, std::ostream& out, std::ostream& err) {
  const auto system = parse_system(args.get_or("system", ""));
  const auto out_path = args.get("out");
  const auto sink_url = args.get("sink");
  if (!system || (!out_path && !sink_url)) {
    err << "generate requires --system and --out (or --sink URL)\n";
    return 2;
  }
  if (out_path && sink_url) {
    err << "generate: --out and --sink are mutually exclusive\n";
    return 2;
  }
  sim::SimOptions opts;
  opts.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  opts.category_cap =
      static_cast<std::uint64_t>(args.get_int("cap", 20000));
  opts.chatter_events =
      static_cast<std::uint64_t>(args.get_int("chatter", 50000));
  logio::WriteOptions wopts;
  wopts.compressed = args.has("compressed");
  wopts.per_source_dirs = args.has("per-source");
  const bool replay_mode = args.has("speed");
  const double speed = args.get_double("speed", 0.0);
  if (replay_mode && speed < 0.0) {
    err << "--speed must be >= 0\n";
    return 2;
  }

  // Network sink flags (read only in --sink mode so a stray --tenant
  // on a file run still fails loudly via reject_unused).
  net::SinkOptions sink;
  if (sink_url) {
    try {
      sink.endpoint = net::parse_endpoint(*sink_url);
    } catch (const std::exception& e) {
      err << "generate: " << e.what() << "\n";
      return 2;
    }
    sink.tenant =
        args.get_or("tenant", std::string(parse::system_short_name(*system)));
    sink.system_short = std::string(parse::system_short_name(*system));
    const std::string framing_name = args.get_or("framing", "nl");
    if (framing_name == "nl") {
      sink.framing = net::Framing::kNewline;
    } else if (framing_name == "len") {
      sink.framing = net::Framing::kLenPrefix;
    } else {
      err << "generate: --framing must be nl or len\n";
      return 2;
    }
    if (sink.framing == net::Framing::kLenPrefix &&
        sink.endpoint.transport != net::Transport::kTcp) {
      err << "generate: --framing len requires a tcp:// sink\n";
      return 2;
    }
    sink.udp.base_loss = args.get_double("loss-base", sink.udp.base_loss);
    sink.udp.contention_loss_per_k =
        args.get_double("loss-contention", sink.udp.contention_loss_per_k);
    sink.lossless_udp = args.has("lossless");
    sink.seed = static_cast<std::uint64_t>(args.get_int("loss-seed", 1));
    if (sink.udp.base_loss < 0.0 || sink.udp.base_loss > 1.0 ||
        sink.udp.contention_loss_per_k < 0.0) {
      err << "generate: --loss-base must be in [0,1], --loss-contention "
             ">= 0\n";
      return 2;
    }
    sink.stamp_latency = args.has("stamp-latency");
    const int batch = args.get_int("send-batch", 0);
    if (batch < 0) {
      err << "generate: --send-batch wants a byte count >= 0\n";
      return 2;
    }
    sink.send_batch_bytes = static_cast<std::size_t>(batch);
    if ((sink.stamp_latency || batch > 0) &&
        sink.endpoint.transport != net::Transport::kTcp) {
      err << "generate: --stamp-latency/--send-batch require a tcp:// "
             "sink\n";
      return 2;
    }
  }

  std::optional<std::string> metrics;
  if (!parse_metrics_flag(args, err, metrics)) return 2;
  if (reject_unused(args, err)) return 2;

  const sim::Simulator simulator(*system, opts);

  if (sink_url) {
    // Network sink: replay the stream into the server. UDP runs the
    // paper's contention loss model client-side (sim::UdpLossModel),
    // so the delivered/dropped line below is exact ground truth for
    // the server's wss_net_* counters.
    SignalDrain drain;
    std::unique_ptr<net::SinkClient> client;
    try {
      client = std::make_unique<net::SinkClient>(sink);
    } catch (const std::exception& e) {
      err << "generate: " << e.what() << "\n";
      return 1;
    }
    sim::ReplayOptions ropts;
    ropts.speed = speed;
    ropts.cancel = &net::ShutdownSignal::stop_requested;
    const sim::Replayer replayer(simulator, ropts);
    int rc = 0;
    try {
      replayer.run([&](std::size_t, const sim::SimEvent& e,
                       std::string_view line) {
        if (drain.stopped()) return false;
        client->send(e.time, line);
        return true;
      });
    } catch (const std::exception& e) {
      err << "generate: send failed: " << e.what() << "\n";
      rc = 1;
    }
    client->close();
    const sim::TransportStats& st = client->stats();
    out << util::format(
        "sink %s: offered %llu delivered %llu dropped %llu (%.2f%% loss)\n",
        sink.endpoint.to_string().c_str(),
        static_cast<unsigned long long>(st.offered),
        static_cast<unsigned long long>(st.delivered),
        static_cast<unsigned long long>(st.dropped), 100.0 * st.loss_rate());
    const int mrc = write_metrics(metrics, "generate", err);
    return rc != 0 ? rc : mrc;
  }

  if (replay_mode) {
    // Replay mode: stream rendered lines at --speed simulated seconds
    // per wall second instead of bulk-writing the log.
    std::ofstream file;
    const bool to_stdout = *out_path == "-";
    if (!to_stdout) {
      file.open(*out_path, std::ios::binary);
      if (!file) {
        err << "generate: cannot open " << *out_path << "\n";
        return 1;
      }
    }
    std::ostream& dst = to_stdout ? out : file;
    sim::ReplayOptions ropts;
    ropts.speed = speed;
    const sim::Replayer replayer(simulator, ropts);
    const std::size_t lines = replayer.run(
        [&](std::size_t, const sim::SimEvent&, std::string_view line) {
          dst << line << '\n';
          if (speed > 0.0) dst.flush();  // live consumers want lines now
          return static_cast<bool>(dst);
        });
    if (!to_stdout) {
      out << util::format("replayed %zu lines for %s\n", lines,
                          std::string(parse::system_name(*system)).c_str());
    }
    if (!dst) return 1;
    return write_metrics(metrics, "generate", err);
  }

  const auto result = logio::write_log(simulator, *out_path, wopts);
  out << util::format(
      "wrote %zu lines (%s bytes) across %zu file(s) for %s\n", result.lines,
      util::with_commas(static_cast<std::int64_t>(result.bytes_written))
          .c_str(),
      result.files,
      std::string(parse::system_name(*system)).c_str());
  return write_metrics(metrics, "generate", err);
}

int cmd_anonymize(const Args& args, std::ostream& out, std::ostream& err) {
  const auto in_path = args.get("in");
  const auto out_path = args.get("out");
  if (!in_path || !out_path) {
    err << "anonymize requires --in and --out\n";
    return 2;
  }
  const logio::Anonymizer anon(
      static_cast<std::uint64_t>(args.get_int("seed", 0x5eed)));
  std::optional<std::string> metrics;
  if (!parse_metrics_flag(args, err, metrics)) return 2;
  if (reject_unused(args, err)) return 2;

  // One pass through a bounded line decoder: memory stays one buffer
  // however large the log.
  std::size_t lines = 0;
  std::uint64_t oversized = 0;
  try {
    logio::ChunkReader reader = logio::ChunkReader::open(*in_path);
    std::ofstream os(*out_path, std::ios::binary);
    if (!os) {
      err << "anonymize: cannot open " << *out_path << "\n";
      return 1;
    }
    net::FrameDecoder decoder(net::Framing::kNewline, logio::kMaxLine);
    read_lines(reader, decoder, [] { return false; },
               [&](std::string_view line) {
                 os << anon.anonymize(line) << '\n';
                 ++lines;
                 return true;
               });
    oversized = decoder.oversized();
  } catch (const std::exception& e) {
    err << "anonymize: " << e.what() << "\n";
    return 1;
  }
  if (oversized > 0) err << oversized_note("anonymize", oversized);
  out << util::format("anonymized %zu lines -> %s\n", lines,
                      out_path->c_str());
  return write_metrics(metrics, "anonymize", err);
}

int cmd_tables(const Args& args, std::ostream& out, std::ostream& err) {
  const int which = static_cast<int>(args.get_int("which", 0));
  int threads = 1;
  if (!parse_threads_flag(args, err, threads)) return 2;
  std::optional<std::string> metrics;
  if (!parse_metrics_flag(args, err, metrics)) return 2;
  if (reject_unused(args, err)) return 2;
  if (which < 0 || which > 6) {
    err << "--which must be 1..6\n";
    return 2;
  }
  core::StudyOptions opts;
  opts.sim.category_cap = 20000;
  opts.sim.chatter_events = 30000;
  opts.pipeline.num_threads = threads;
  core::Study study(opts);
  {
    obs::Span span("cmd_tables");
    // Warm the shared result cache through the parallel path; every
    // render_table* call below then hits the cache. Output is
    // bit-identical to the serial path at any thread count.
    if (threads != 1) {
      for (const auto id : parse::kAllSystems) {
        study.parallel_pipeline_result(id);
      }
    }
    const auto want = [&](int n) { return which == 0 || which == n; };
    if (want(1)) out << core::render_table1() << "\n";
    if (want(2)) out << core::render_table2(study) << "\n";
    if (want(3)) out << core::render_table3(study) << "\n";
    if (want(4)) {
      for (const auto id : parse::kAllSystems) {
        out << core::render_table4(study, id) << "\n";
      }
    }
    if (want(5)) out << core::render_table5(study) << "\n";
    if (want(6)) out << core::render_table6(study) << "\n";
  }
  return write_metrics(metrics, "tables", err);
}

int cmd_mine(const Args& args, std::ostream& out, std::ostream& err) {
  const auto in_path = args.get("in");
  if (!in_path) {
    err << "mine requires --in\n";
    return 2;
  }
  mine::MinerOptions opts;
  opts.min_support = static_cast<std::size_t>(args.get_int("support", 20));
  opts.min_template_count = opts.min_support;
  opts.skip_positions = static_cast<std::size_t>(args.get_int("skip", 4));
  const auto top = static_cast<std::size_t>(args.get_int("top", 25));
  std::optional<std::string> metrics;
  if (!parse_metrics_flag(args, err, metrics)) return 2;
  if (reject_unused(args, err)) return 2;

  logio::InputBuffer input;
  try {
    input = logio::InputBuffer::open(*in_path);
  } catch (const std::exception& e) {
    err << "mine: " << e.what() << "\n";
    return 1;
  }
  mine::TemplateMiner miner(opts);
  std::size_t lines = 0;
  simd::for_each_line(input.view(), [&](std::string_view line) {
    miner.learn(line);
    ++lines;
  });
  miner.freeze();
  simd::for_each_line(input.view(),
                      [&](std::string_view line) { miner.digest(line); });

  const auto templates = miner.templates();
  out << util::format("%zu lines -> %zu templates (support >= %zu)\n", lines,
                      templates.size(), opts.min_support);
  for (std::size_t i = 0; i < templates.size() && i < top; ++i) {
    out << util::format("%8zu  %s\n", templates[i].count,
                        templates[i].pattern.c_str());
  }
  return write_metrics(metrics, "mine", err);
}

int cmd_stream(const Args& args, std::ostream& out, std::ostream& err) {
  const auto system = parse_system(args.get_or("system", ""));
  if (!system) {
    err << "stream requires --system\n";
    return 2;
  }
  const auto in_path = args.get("in");
  const double threshold_s = args.get_double("threshold", 5.0);
  const double window_s = args.get_double("window", 3600.0);
  const double speed = args.get_double("speed", 0.0);
  const std::int64_t refresh = args.get_int("refresh", 0);
  const auto checkpoint_path = args.get("checkpoint");
  const auto restore_path = args.get("restore");
  const auto emit_path = args.get("emit");
  const std::int64_t max_events = args.get_int("max-events", 0);
  const int year = static_cast<int>(args.get_int("year", 0));
  sim::SimOptions sopts;
  sopts.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  sopts.category_cap = static_cast<std::uint64_t>(args.get_int("cap", 20000));
  sopts.chatter_events =
      static_cast<std::uint64_t>(args.get_int("chatter", 50000));
  if (threshold_s <= 0.0 || window_s <= 0.0) {
    err << "--threshold and --window must be positive\n";
    return 2;
  }
  if (speed < 0.0 || max_events < 0) {
    err << "--speed and --max-events must be >= 0\n";
    return 2;
  }
  if (checkpoint_path && restore_path && *checkpoint_path == *restore_path) {
    err << "--checkpoint and --restore must not name the same file (the "
           "checkpoint would overwrite the state being restored)\n";
    return 2;
  }
  // Each source takes its own flags: one meant for the other source is
  // refused, never silently ignored.
  for (const char* flag : {"seed", "cap", "chatter", "speed"}) {
    if (in_path && args.has(flag)) {
      err << "--" << flag << " applies to the simulated source, not --in\n";
      return 2;
    }
  }
  if (!in_path && args.has("year")) {
    err << "--year applies to --in only\n";
    return 2;
  }
  stream::PredictOptions predict;
  if (!parse_predict_flags(args, err, predict)) return 2;
  std::optional<std::string> metrics;
  if (!parse_metrics_flag(args, err, metrics)) return 2;
  if (reject_unused(args, err)) return 2;

  stream::StreamPipelineOptions popts;
  popts.study.threshold_us = static_cast<util::TimeUs>(threshold_s * 1e6);
  popts.study.window_us = static_cast<util::TimeUs>(window_s * 1e6);
  popts.strict_order = !in_path.has_value();
  popts.start_year = year;
  popts.predict = predict;
  std::optional<stream::StreamPipeline> pipeline_storage;
  try {
    pipeline_storage.emplace(*system, popts);
  } catch (const std::exception& e) {
    err << "stream: " << e.what() << "\n";
    return 1;
  }
  stream::StreamPipeline& pipeline = *pipeline_storage;

  if (restore_path) {
    try {
      std::istringstream is(util::read_file(*restore_path));
      pipeline.restore(is);
    } catch (const std::exception& e) {
      err << "stream: restore failed: " << e.what() << "\n";
      return 1;
    }
  }

  std::ofstream emit;
  if (emit_path) {
    emit.open(*emit_path, std::ios::binary);
    if (!emit) {
      err << "stream: cannot open " << *emit_path << "\n";
      return 1;
    }
    pipeline.set_alert_sink([&emit](const filter::Alert& a) {
      emit << util::format_iso(a.time) << ' ' << a.category << ' '
           << filter::alert_type_letter(a.type) << ' ' << a.source << '\n';
    });
    // Predicted-alert events ride the same channel, marked 'P':
    // issue time, predicted category, and the expected window.
    pipeline.set_prediction_sink([&emit](const predict::Prediction& p) {
      emit << "P " << util::format_iso(p.issued_at) << ' ' << p.category
           << ' ' << util::format_iso(p.window_begin) << ' '
           << util::format_iso(p.window_end) << '\n';
    });
  }

  const std::uint64_t resume = pipeline.events();
  const auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t ingested = 0;
  bool truncated = false;

  // SIGINT/SIGTERM request a graceful drain: stop the source, finish
  // what is in flight, checkpoint if asked, and print the tables --
  // the same contract `wss serve` gives its tenants.
  SignalDrain drain;

  const auto tick = [&] {
    if (refresh <= 0 || ingested % static_cast<std::uint64_t>(refresh) != 0) {
      return;
    }
    const auto snap = pipeline.snapshot(stream::SnapshotScope::kStatus);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    err << stream::render_status_line(
               snap, secs > 0.0 ? static_cast<double>(ingested) / secs : 0.0)
        << "\n";
  };

  try {
    obs::Span span("stream_pass");  // closes before the metrics snapshot
    if (!in_path) {
      // Simulated source: the replayer renders and paces each line and
      // hands it to the engine on this thread. A slow engine makes the
      // replay fall behind; it never drops a line.
      const sim::Simulator simulator(*system, sopts);
      const std::size_t total = simulator.events().size();
      if (resume > total) {
        err << "stream: checkpoint lies beyond this simulation\n";
        return 1;
      }
      std::size_t end = total;
      if (max_events > 0) {
        end = std::min<std::size_t>(
            total, resume + static_cast<std::size_t>(max_events));
      }

      sim::ReplayOptions ropts;
      ropts.speed = speed;
      ropts.begin = static_cast<std::size_t>(resume);
      ropts.end = end;
      ropts.cancel = &net::ShutdownSignal::stop_requested;
      const sim::Replayer replayer(simulator, ropts);
      replayer.run([&](std::size_t, const sim::SimEvent& e,
                       std::string_view line) {
        pipeline.ingest(e, line);
        ++ingested;
        tick();
        return true;
      });
      // Short of the simulation's end -- --max-events or a drain
      // signal -- the run is paused, not finished.
      truncated = resume + ingested < total;
    } else {
      // File source: line-delimited log, optionally stdin ("-"). Each
      // line goes to the engine on this thread as soon as the decoder
      // cuts it; it is a view into the decoder's buffer, valid only for
      // its ingest_line call. No line is dropped unless it is longer
      // than logio::kMaxLine, and those are counted.
      logio::ChunkReader reader = *in_path == "-"
                                      ? logio::ChunkReader::from_fd(0)
                                      : logio::ChunkReader::open(*in_path);
      net::FrameDecoder decoder(net::Framing::kNewline, logio::kMaxLine);
      std::uint64_t skip = resume;
      // An oversized line is counted by the run that reaches the line
      // after it. Lines the resume skip passes were reached by the run
      // that saved the checkpoint, which restored its count.
      std::uint64_t over_skipped = 0;
      std::uint64_t over_reached = 0;
      const auto on_line = [&](std::string_view line) {
        if (skip > 0) {  // checkpoint resume skip
          --skip;
          over_skipped = over_reached = decoder.oversized();
          return true;
        }
        // Limits are tested before the next line: a run that stops at
        // the input's end is complete, not truncated.
        if (drain.stopped() ||
            (max_events > 0 &&
             ingested >= static_cast<std::uint64_t>(max_events))) {
          return false;
        }
        over_reached = decoder.oversized();
        pipeline.ingest_line(line);
        ++ingested;
        tick();
        return true;
      };
      truncated = !read_lines(
          reader, decoder, [&drain] { return drain.stopped(); }, on_line);
      if (!truncated) over_reached = decoder.oversized();
      if (over_reached > over_skipped) {
        const std::uint64_t over = over_reached - over_skipped;
        obs::registry().counter("wss_stream_oversized_total").inc(over);
        err << oversized_note("stream", over);
      }
    }
  } catch (const std::exception& e) {
    err << "stream: " << e.what() << "\n";
    return 1;
  }

  if (!truncated) pipeline.finish();

  if (checkpoint_path) {
    try {
      std::ostringstream os;
      pipeline.save(os);
      util::publish_file(*checkpoint_path, os.view());
    } catch (const std::exception& e) {
      err << "stream: checkpoint failed: " << e.what() << "\n";
      return 1;
    }
  }

  if (truncated) {
    out << util::format(
        "paused after %s events%s\n",
        util::with_commas(static_cast<std::int64_t>(pipeline.events()))
            .c_str(),
        checkpoint_path ? " (resume with --restore)" : "");
  }
  out << stream::render_snapshot(pipeline.snapshot());
  // A truncated run skipped finish(); publish pending deltas so the
  // exported snapshot is complete either way.
  pipeline.publish_metrics();
  return write_metrics(metrics, "stream", err);
}

int cmd_serve(const Args& args, std::ostream& out, std::ostream& err) {
  net::ServeOptions sopts;
  sopts.bind_host = args.get_or("bind", "127.0.0.1");
  const double threshold_s = args.get_double("threshold", 5.0);
  const double window_s = args.get_double("window", 3600.0);
  const std::int64_t queue_cap = args.get_int("queue", 4096);
  const std::int64_t max_frame = args.get_int("max-frame", 1 << 20);
  const double drain_grace_s = args.get_double("drain-grace", 5.0);
  const std::string loop_shards = args.get_or("loop-shards", "1");
  sopts.checkpoint_dir = args.get_or("checkpoint-dir", "");
  const auto tenant_spec = args.get("tenant");
  const auto tcp_spec = args.get("tcp");
  const auto udp_spec = args.get("udp");
  const auto http_spec = args.get("http");
  stream::PredictOptions predict;
  if (!parse_predict_flags(args, err, predict)) return 2;
  std::optional<std::string> metrics;
  if (!parse_metrics_flag(args, err, metrics)) return 2;
  if (reject_unused(args, err)) return 2;

  if (threshold_s <= 0.0 || window_s <= 0.0) {
    err << "--threshold and --window must be positive\n";
    return 2;
  }
  if (queue_cap < 1 || max_frame < 1 || drain_grace_s < 0.0) {
    err << "--queue and --max-frame must be >= 1, --drain-grace >= 0\n";
    return 2;
  }
  if (loop_shards == "auto") {
    sopts.loop_shards = 0;  // the server sizes to the machine
  } else {
    const auto shards = util::parse_i64(loop_shards);
    if (!shards || *shards < 1 || *shards > 64) {
      err << "--loop-shards wants 1..64 or auto, got '" << loop_shards
          << "'\n";
      return 2;
    }
    sopts.loop_shards = static_cast<int>(*shards);
  }
  if (!tcp_spec && !udp_spec) {
    err << "serve requires at least one listener (--tcp and/or --udp)\n";
    return 2;
  }

  sopts.tenant_defaults.threshold_s = threshold_s;
  sopts.tenant_defaults.window_s = window_s;
  sopts.tenant_defaults.queue_capacity =
      static_cast<std::size_t>(queue_cap);
  // The --predict family applies to every tenant (explicit --tenant
  // entries copy the defaults below; handshake tenants clone them too).
  sopts.tenant_defaults.predict = predict.enabled;
  sopts.tenant_defaults.predict_train = predict.train_alerts;
  sopts.tenant_defaults.predict_horizon_us = predict.horizon_us;
  sopts.max_frame = static_cast<std::size_t>(max_frame);
  sopts.drain_grace_ms = static_cast<int>(drain_grace_s * 1000.0);
  if (metrics) sopts.metrics_path = *metrics;
  sopts.watch_shutdown_signal = true;
  sopts.log = &err;

  // --tenant NAME:SYSTEM[:YEAR],...
  for (const std::string& tok : split_commas(args.get_or("tenant", ""))) {
    const auto c1 = tok.find(':');
    if (c1 == std::string::npos) {
      err << "serve: --tenant wants NAME:SYSTEM[:YEAR], got '" << tok
          << "'\n";
      return 2;
    }
    const auto c2 = tok.find(':', c1 + 1);
    net::TenantConfig cfg = sopts.tenant_defaults;
    cfg.name = tok.substr(0, c1);
    const std::string sys_name =
        tok.substr(c1 + 1, (c2 == std::string::npos ? tok.size() : c2) -
                               c1 - 1);
    const auto sys = parse_system(sys_name);
    if (!sys) {
      err << "serve: unknown system '" << sys_name << "' in --tenant\n";
      return 2;
    }
    cfg.system = *sys;
    if (c2 != std::string::npos) {
      const auto year = util::parse_i64(std::string_view(tok).substr(c2 + 1));
      if (!year || *year < 1 || *year > 9999) {
        err << "serve: bad year in --tenant '" << tok << "'\n";
        return 2;
      }
      cfg.start_year = static_cast<int>(*year);
    }
    sopts.tenants.push_back(std::move(cfg));
  }
  // The handshake-tenant template inherits the shared knobs; system
  // defaults to liberty unless the handshake names one.
  sopts.tenant_defaults.system = parse::SystemId::kLiberty;

  // --tcp PORT[:TENANT],...
  for (const std::string& tok : split_commas(args.get_or("tcp", ""))) {
    net::TcpListenerSpec spec;
    const auto colon = tok.find(':');
    if (!parse_port(tok.substr(0, colon), spec.port)) {
      err << "serve: bad --tcp port in '" << tok << "'\n";
      return 2;
    }
    if (colon != std::string::npos) spec.tenant = tok.substr(colon + 1);
    sopts.tcp.push_back(std::move(spec));
  }
  // --udp PORT:TENANT,...
  for (const std::string& tok : split_commas(args.get_or("udp", ""))) {
    net::UdpListenerSpec spec;
    const auto colon = tok.find(':');
    if (colon == std::string::npos ||
        !parse_port(tok.substr(0, colon), spec.port) ||
        colon + 1 >= tok.size()) {
      err << "serve: --udp wants PORT:TENANT, got '" << tok << "'\n";
      return 2;
    }
    spec.tenant = tok.substr(colon + 1);
    sopts.udp.push_back(std::move(spec));
  }
  if (http_spec) {
    if (!parse_port(*http_spec, sopts.http_port)) {
      err << "serve: bad --http port '" << *http_spec << "'\n";
      return 2;
    }
    sopts.http_enabled = true;
  }

  // Keep display copies; the server owns the options after this.
  const auto tcp_specs = sopts.tcp;
  const auto udp_specs = sopts.udp;
  const std::string bind_host = sopts.bind_host;
  const bool http_on = sopts.http_enabled;

  SignalDrain drainer;  // handlers must be live before bind() wires fd()
  net::Server server(std::move(sopts));
  try {
    server.bind();
  } catch (const std::exception& e) {
    err << "serve: " << e.what() << "\n";
    return 2;
  }
  for (std::size_t i = 0; i < tcp_specs.size(); ++i) {
    out << util::format(
        "listening tcp %s:%u (%s)\n", bind_host.c_str(),
        unsigned{server.tcp_port(i)},
        tcp_specs[i].tenant.empty() ? "handshake-routed"
                                    : tcp_specs[i].tenant.c_str());
  }
  for (std::size_t i = 0; i < udp_specs.size(); ++i) {
    out << util::format("listening udp %s:%u (%s)\n", bind_host.c_str(),
                        unsigned{server.udp_port(i)},
                        udp_specs[i].tenant.c_str());
  }
  if (http_on) {
    out << util::format("http %s:%u (/metrics /metrics.json /status)\n",
                        bind_host.c_str(), unsigned{server.http_port()});
  }
  out.flush();

  net::ServeReport report;
  try {
    report = server.run();
  } catch (const std::exception& e) {
    err << "serve: " << e.what() << "\n";
    return 1;
  }

  for (const net::ServeTenantReport& tr : report.tenants) {
    out << util::format(
        "tenant %s (%s): delivered %llu dropped %llu ingested %llu "
        "admitted %llu\n",
        tr.name.c_str(), tr.system.c_str(),
        static_cast<unsigned long long>(tr.delivered),
        static_cast<unsigned long long>(tr.dropped),
        static_cast<unsigned long long>(tr.ingested),
        static_cast<unsigned long long>(tr.admitted));
    out << tr.table;
  }
  out << util::format(
      "served %llu connection(s), %llu http request(s), %llu protocol "
      "error(s), %llu oversized frame(s)\n",
      static_cast<unsigned long long>(report.connections),
      static_cast<unsigned long long>(report.http_requests),
      static_cast<unsigned long long>(report.protocol_errors),
      static_cast<unsigned long long>(report.oversized));
  for (const std::string& path : report.checkpoints) {
    out << "checkpoint " << path << "\n";
  }
  return write_metrics(metrics, "serve", err);
}

int cmd_study(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string sys_name = args.get_or("system", "all");
  int threads = 1;
  if (!parse_threads_flag(args, err, threads)) return 2;
  const double threshold_s = args.get_double("threshold", 5.0);
  if (threshold_s <= 0.0) {
    err << "--threshold must be positive\n";
    return 2;
  }
  sim::SimOptions sopts;
  sopts.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  sopts.category_cap = static_cast<std::uint64_t>(args.get_int("cap", 20000));
  sopts.chatter_events =
      static_cast<std::uint64_t>(args.get_int("chatter", 50000));

  // Distributed planning mode: --split-by switches `study` from
  // running the pipeline to emitting a claimable manifest.
  const auto split_by = args.get("split-by");
  const std::int64_t num_splits = args.get_int("num-splits", 4);
  const auto manifest_dir = args.get("manifest-dir");
  if (!split_by && (args.has("num-splits") || manifest_dir)) {
    err << "study: --num-splits/--manifest-dir require --split-by\n";
    return 2;
  }

  std::optional<std::string> metrics;
  if (!parse_metrics_flag(args, err, metrics)) return 2;
  if (reject_unused(args, err)) return 2;

  std::vector<parse::SystemId> systems;
  if (sys_name == "all") {
    systems.assign(parse::kAllSystems.begin(), parse::kAllSystems.end());
  } else {
    const auto system = parse_system(sys_name);
    if (!system) {
      err << "study: unknown system '" << sys_name << "'\n";
      return 2;
    }
    systems.push_back(*system);
  }

  if (split_by) {
    const auto axis = dist::parse_split_axis(*split_by);
    if (!axis) {
      err << "study: --split-by must be system, category, or time\n";
      return 2;
    }
    if (num_splits < 1) {
      err << "study: --num-splits must be >= 1\n";
      return 2;
    }
    if (!manifest_dir || manifest_dir->empty()) {
      err << "study: --split-by requires --manifest-dir\n";
      return 2;
    }
    dist::SplitOptions split;
    split.axis = *axis;
    split.num_splits = static_cast<std::uint32_t>(num_splits);
    split.study.sim = sopts;
    split.study.sim.threshold_us =
        static_cast<util::TimeUs>(threshold_s * 1e6);
    split.systems = systems;
    try {
      obs::Span span("cmd_study_split");
      const dist::StudyManifest manifest = dist::plan_split(split);
      dist::write_manifest(manifest, *manifest_dir);
      std::uint64_t chunks = 0;
      for (const auto c : manifest.chunk_counts) chunks += c;
      out << util::format(
          "planned %u assignment(s) over %zu system(s), %llu chunks, split "
          "by %s -> %s\n",
          manifest.num_splits, manifest.systems.size(),
          static_cast<unsigned long long>(chunks),
          std::string(dist::split_axis_name(manifest.axis)).c_str(),
          manifest_dir->c_str());
      for (const dist::Assignment& a : manifest.assignments) {
        std::uint64_t owned = 0;
        for (const auto& slice : a.slices) owned += slice.chunk_count();
        out << util::format("  assignment %u: %llu chunk(s)\n", a.id,
                            static_cast<unsigned long long>(owned));
      }
    } catch (const std::exception& e) {
      err << "study: " << e.what() << "\n";
      return 1;
    }
    return write_metrics(metrics, "study", err);
  }
  const auto threshold_us = static_cast<util::TimeUs>(threshold_s * 1e6);

  util::Table t({"System", "Events", "Messages", "Raw alerts", "Admitted",
                 "Suppressed", "Corrupt src", "Bad stamps"});
  {
    obs::Span span("cmd_study");  // closes before the metrics snapshot
    core::PipelineOptions popts;
    popts.num_threads = threads;
    popts.collect_source_tallies = false;  // no row reads them
    const core::ParallelPipeline pipeline(popts);
    // With a pool, the caller builds system k+1's simulator while the
    // other workers reduce system k's chunks. It first counts system
    // k's ground truth and admitted alerts, so that their vectors are
    // freed before the next simulator grows: that order keeps two
    // simulators, not two simulators and an alert stream, as the peak.
    const bool overlap = pipeline.resolved_threads() > 1;
    std::unique_ptr<const sim::Simulator> next;
    for (std::size_t k = 0; k < systems.size(); ++k) {
      const std::unique_ptr<const sim::Simulator> simulator =
          next ? std::move(next)
               : std::make_unique<const sim::Simulator>(systems[k], sopts);
      std::size_t truth = 0;
      std::size_t kept = 0;
      const core::PipelineResult r = pipeline.run(*simulator, [&] {
        {
          const auto alerts = simulator->ground_truth_alerts();
          truth = alerts.size();
          // One thread: the pool's workers hold the others.
          kept = filter::apply_simultaneous_parallel(alerts, threshold_us, 1)
                     .size();
        }
        if (overlap && k + 1 < systems.size()) {
          next = std::make_unique<const sim::Simulator>(systems[k + 1], sopts);
        }
      });
      t.add_row(
          {std::string(parse::system_short_name(systems[k])),
           util::with_commas(static_cast<std::int64_t>(
               simulator->events().size())),
           util::with_commas(static_cast<std::int64_t>(r.physical_messages)),
           util::with_commas(static_cast<std::int64_t>(truth)),
           util::with_commas(static_cast<std::int64_t>(kept)),
           util::with_commas(static_cast<std::int64_t>(truth - kept)),
           util::with_commas(
               static_cast<std::int64_t>(r.corrupted_source_lines)),
           util::with_commas(
               static_cast<std::int64_t>(r.invalid_timestamp_lines))});
    }
  }
  out << t.render();
  return write_metrics(metrics, "study", err);
}

int cmd_worker(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional().empty()) {
    err << "worker requires an assignment id (wss worker <id> "
           "--manifest-dir DIR)\n";
    return 2;
  }
  const std::string& id_token = args.positional().front();
  std::uint64_t worker_id = 0;
  {
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(id_token.c_str(), &end, 10);
    if (errno != 0 || end == id_token.c_str() || *end != '\0' ||
        id_token[0] == '-') {
      err << "worker: '" << id_token << "' is not an assignment id\n";
      return 2;
    }
    worker_id = v;
  }
  const auto manifest_dir = args.get("manifest-dir");
  if (!manifest_dir || manifest_dir->empty()) {
    err << "worker requires --manifest-dir\n";
    return 2;
  }
  const double stale_after = args.get_double("stale-after", 300.0);
  int threads = 1;
  if (!parse_threads_flag(args, err, threads)) return 2;
  std::optional<std::string> metrics;
  if (!parse_metrics_flag(args, err, metrics)) return 2;
  const auto instance = args.get_or("instance", "");
  if (reject_unused(args, err)) return 2;

  dist::StudyManifest manifest;
  try {
    manifest = dist::load_manifest(*manifest_dir);
  } catch (const std::exception& e) {
    err << "worker: " << e.what() << "\n";
    return 1;
  }
  if (worker_id >= manifest.num_splits) {
    err << util::format("worker: id %llu out of range [0, %u)\n",
                        static_cast<unsigned long long>(worker_id),
                        manifest.num_splits);
    return 2;
  }

  dist::WorkerOptions wopts;
  wopts.manifest_dir = *manifest_dir;
  wopts.worker_id = static_cast<std::uint32_t>(worker_id);
  wopts.stale_after_s = stale_after;
  wopts.threads = threads;
  wopts.instance = instance;
  dist::WorkerReport report;
  try {
    obs::Span span("cmd_worker");
    report = dist::run_worker(manifest, wopts);
  } catch (const std::exception& e) {
    err << "worker: " << e.what() << "\n";
    return 1;
  }
  switch (report.outcome) {
    case dist::WorkerOutcome::kLostClaim:
      err << util::format("worker: assignment %llu is held by %s\n",
                          static_cast<unsigned long long>(worker_id),
                          report.holder.c_str());
      return 3;
    case dist::WorkerOutcome::kAlreadyComplete:
      out << util::format("assignment %llu already complete\n",
                          static_cast<unsigned long long>(worker_id));
      break;
    case dist::WorkerOutcome::kCompleted:
      out << util::format(
          "assignment %llu: processed %llu chunk(s), %llu event(s) -> %s\n",
          static_cast<unsigned long long>(worker_id),
          static_cast<unsigned long long>(report.chunks),
          static_cast<unsigned long long>(report.events),
          dist::partial_path(*manifest_dir,
                             static_cast<std::uint32_t>(worker_id))
              .c_str());
      break;
  }
  return write_metrics(metrics, "worker", err);
}

int cmd_merge(const Args& args, std::ostream& out, std::ostream& err) {
  const auto manifest_dir = args.get("manifest-dir");
  if (!manifest_dir || manifest_dir->empty()) {
    err << "merge requires --manifest-dir\n";
    return 2;
  }
  const auto out_dir = args.get_or("out", "");
  std::optional<std::string> metrics;
  if (!parse_metrics_flag(args, err, metrics)) return 2;
  if (reject_unused(args, err)) return 2;

  dist::StudyManifest manifest;
  try {
    manifest = dist::load_manifest(*manifest_dir);
  } catch (const std::exception& e) {
    err << "merge: " << e.what() << "\n";
    return 1;
  }
  dist::MergeOptions mopts;
  mopts.manifest_dir = *manifest_dir;
  mopts.out_dir = out_dir;
  dist::MergeReport report;
  try {
    obs::Span span("cmd_merge");
    report = dist::run_merge(manifest, mopts);
  } catch (const std::exception& e) {
    err << "merge: " << e.what() << "\n";
    return 1;
  }
  if (!report.ok()) {
    err << report.describe_failure() << "\n";
    return 1;
  }
  out << util::format(
      "merged %zu assignment(s): %llu chunk(s) across %zu system(s) -> %s "
      "(%zu artifact(s))\n",
      manifest.assignments.size(),
      static_cast<unsigned long long>(report.chunks), report.covered.size(),
      report.out_dir.c_str(), report.artifacts);
  return write_metrics(metrics, "merge", err);
}

int run(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string& cmd = args.command();
  try {
    if (cmd == "generate") return cmd_generate(args, out, err);
    if (cmd == "anonymize") return cmd_anonymize(args, out, err);
    if (cmd == "tables") return cmd_tables(args, out, err);
    if (cmd == "study") return cmd_study(args, out, err);
    if (cmd == "mine") return cmd_mine(args, out, err);
    if (cmd == "stream") return cmd_stream(args, out, err);
    if (cmd == "serve") return cmd_serve(args, out, err);
    if (cmd == "worker") return cmd_worker(args, out, err);
    if (cmd == "merge") return cmd_merge(args, out, err);
  } catch (const std::exception& e) {
    // Last-resort guard: no command may escape as an uncaught throw
    // (a stray exception would read as a crash, not a usage error).
    err << cmd << ": " << e.what() << "\n";
    return 2;
  }
  print_usage(cmd.empty() || cmd == "help" ? out : err);
  return cmd.empty() || cmd == "help" ? 0 : 2;
}

}  // namespace wss::cli
