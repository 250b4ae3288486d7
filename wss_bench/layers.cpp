// Traced runs: the workload's input replayed through each layer's
// public function, chunk by chunk, with one span per layer call.
//
// Every layer sees the same lines in the same order as the route, so a
// layer's self time divided by the lines (or alerts) it handled is its
// cost on this workload. Each chunk of 8192 lines (the pipeline's own
// chunk size) is one trace; the layer spans are its children.
// `accumulate` is not a call of its own: it is the route's per-line
// reducer minus the layers inside it (study: core::detail::
// process_chunk minus render, parse and tag; stream and serve:
// StreamPipeline::ingest_line minus parse, tag and filter).
#include <algorithm>
#include <atomic>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>

#include "core/pipeline.hpp"
#include "logio/reader.hpp"
#include "net/framing.hpp"
#include "parse/dispatch.hpp"
#include "sim/generator.hpp"
#include "sim/spec.hpp"
#include "simd/split.hpp"
#include "stream/online_filter.hpp"
#include "stream/predict_stage.hpp"
#include "stream/source.hpp"
#include "tag/engine.hpp"
#include "tag/rulesets.hpp"
#include "trace.hpp"
#include "util/time.hpp"
#include "workloads.hpp"

namespace wss::bench {

namespace {

constexpr std::size_t kChunkLines = 8192;
/// The per-line layers run over this many lines at a time, so the
/// parsed records the tag layer reads are still in cache, as they are
/// when the engine runs the layers line by line.
constexpr std::size_t kBatchLines = 256;
/// recv()-sized slices of the wire bytes for the frame decoder.
constexpr std::size_t kWireSlice = 64 * 1024;

/// cmd_stream's hand-off between its reader and engine threads: one
/// StreamItem (one line copy) per push into a blocking IngestRing of
/// the CLI's default capacity, popped one at a time. The consumer does
/// nothing else, so a span over pass() is the hand-off alone.
class RingHandoff {
 public:
  RingHandoff()
      : consumer_([this] {
          while (ring_.pop()) popped_.fetch_add(1, std::memory_order_release);
        }) {}
  ~RingHandoff() {
    ring_.close();
    consumer_.join();
  }
  RingHandoff(const RingHandoff&) = delete;
  RingHandoff& operator=(const RingHandoff&) = delete;

  /// Pushes every line and returns once the consumer has popped them.
  void pass(const std::vector<std::string_view>& lines) {
    for (const std::string_view line : lines) {
      ring_.push({pushed_++, sim::SimEvent{}, std::string(line)});
    }
    while (popped_.load(std::memory_order_acquire) < pushed_) {
      std::this_thread::yield();
    }
  }

 private:
  stream::IngestRing ring_{1024, stream::BackpressurePolicy::kBlock};
  std::atomic<std::uint64_t> popped_{0};
  std::uint64_t pushed_ = 0;
  std::thread consumer_;  // last: runs against the members above
};

struct Replay {
  std::int64_t wall_ns = 0;
  std::uint64_t lines = 0;
  std::uint64_t alerts = 0;
  std::uint64_t admitted = 0;
  std::uint64_t tag_lines = 0;
  std::uint64_t prefilter_rejects = 0;
  std::uint64_t dfa_scans = 0;
  std::uint64_t dfa_flushes = 0;
  std::uint64_t checkpoint_bytes = 0;
  /// Every layer saw every line, and the replayed tag and filter
  /// decisions equal the engine's own.
  bool consistent = true;
};

Replay replay(const std::vector<SimSpec>& specs, std::uint64_t seed,
              bool batch_route, Tracer& tracer) {
  Replay out;
  const std::int64_t t0 = now_ns();
  const Span root(tracer, 0, 0, "replay");
  std::uint64_t trace = 0;
  RingHandoff ring;
  for (const SimSpec& spec : specs) {
    const Span corpus_span(tracer, 0, root.id(), "corpus");
    std::optional<sim::Simulator> sim;
    {
      const Span s(tracer, 0, corpus_span.id(), "sim.build");
      sim.emplace(spec.system, sim_options(spec, seed));
    }
    const tag::TagEngine engine(tag::build_ruleset(spec.system));
    match::MatchScratch tag_scratch;
    match::MatchScratch batch_scratch;
    stream::OnlineSimultaneousFilter filter(5 * util::kUsPerSec,
                                            /*strict_order=*/false);
    stream::PredictOptions popts;
    popts.enabled = true;
    stream::PredictStage predict(popts);
    stream::StreamPipeline ingest(spec.system, engine_options(/*predict=*/false));
    core::detail::ChunkContext ctx;
    ctx.simulator = &*sim;
    ctx.engine = &engine;
    ctx.system = spec.system;
    ctx.num_categories = tag::categories_of(spec.system).size();

    // ingest_line's year inference and source interning, so the
    // replayed alerts are the ones the engine offers its filter.
    logio::YearTracker year(sim::system_spec(spec.system).start_date.year);
    std::map<std::string, std::uint32_t> sources;
    util::TimeUs watermark = 0;

    std::string text;
    std::vector<std::string_view> views;
    std::vector<parse::LogRecord> recs(kBatchLines);
    std::vector<std::optional<tag::TagResult>> tags(kBatchLines);
    std::vector<filter::Alert> alerts;
    std::uint64_t batch_lines = 0;
    const auto& events = sim->events();
    for (std::size_t b = 0; b < events.size(); b += kChunkLines) {
      const std::size_t e = std::min(events.size(), b + kChunkLines);
      const Span chunk(tracer, ++trace, corpus_span.id(), "chunk");
      const auto span = [&](const char* name) {
        return Span(tracer, trace, chunk.id(), name);
      };
      {
        const Span s = span("sim.render");
        text.clear();
        for (std::size_t i = b; i < e; ++i) {
          text += sim->renderer().render(events[i], i);
          text += '\n';
        }
      }
      {
        const Span s = span("simd.split");
        views.clear();
        simd::for_each_line(text,
                            [&views](std::string_view l) { views.push_back(l); });
      }
      std::size_t frames = 0;
      {
        const Span s = span("net.decode");
        net::FrameDecoder decoder;
        std::string_view frame;
        for (std::size_t off = 0; off < text.size(); off += kWireSlice) {
          decoder.feed(std::string_view(text).substr(off, kWireSlice));
          while (decoder.next_view(frame)) ++frames;
        }
        while (decoder.finish_view(frame)) ++frames;
      }
      {
        const Span s = span("stream.ring");
        ring.pass(views);
      }
      out.consistent = out.consistent && views.size() == e - b &&
                       frames == views.size();
      out.lines += views.size();

      alerts.clear();
      for (std::size_t m = 0; m < views.size(); m += kBatchLines) {
        const std::size_t n = std::min(kBatchLines, views.size() - m);
        {
          const Span s = span("parse");
          for (std::size_t k = 0; k < n; ++k) {
            const std::string_view line = views[m + k];
            const int month =
                line.size() >= 3 ? util::parse_month_abbrev(line.substr(0, 3)) : 0;
            const int y = month > 0 ? year.on_month(month) : year.year();
            recs[k] = parse::parse_line(spec.system, line, y);
          }
        }
        {
          const Span s = span("tag");
          for (std::size_t k = 0; k < n; ++k) {
            tags[k] = engine.tag(recs[k], tag_scratch);
          }
        }
        for (std::size_t k = 0; k < n; ++k) {
          const util::TimeUs t =
              recs[k].timestamp_valid ? recs[k].time : watermark;
          watermark = std::max(watermark, t);
          if (!tags[k]) continue;
          filter::Alert a;
          a.time = t;
          a.category = tags[k]->category;
          a.type = tags[k]->type;
          a.source = sources
                         .emplace(recs[k].source,
                                  static_cast<std::uint32_t>(sources.size()))
                         .first->second;
          alerts.push_back(a);
        }
        {
          const Span s = span("stream.ingest");
          for (std::size_t k = 0; k < n; ++k) ingest.ingest_line(views[m + k]);
        }
        if (batch_route) {
          const Span s = span("core.process");
          batch_lines += core::detail::process_chunk(ctx, b + m, b + m + n,
                                                     batch_scratch)
                             .physical_messages;
        }
      }
      // Alerts are few and small, so the alert layers take a whole
      // chunk's at once.
      out.alerts += alerts.size();
      {
        const Span s = span("filter");
        for (const filter::Alert& a : alerts) out.admitted += filter.offer(a);
      }
      {
        const Span s = span("predict");
        for (const filter::Alert& a : alerts) predict.observe(a, false);
      }
    }
    ingest.finish();
    {
      const Span s(tracer, 0, corpus_span.id(), "stream.checkpoint");
      std::ostringstream os;
      ingest.save(os);
      out.checkpoint_bytes += static_cast<std::uint64_t>(os.tellp());
    }
    const stream::StreamSnapshot snap = ingest.snapshot();
    out.consistent = out.consistent && snap.events == events.size() &&
                     snap.alerts_offered == filter.offered() &&
                     snap.alerts_admitted == filter.admitted() &&
                     (!batch_route || batch_lines == events.size());
    out.tag_lines += tag_scratch.tag_lines;
    out.prefilter_rejects += tag_scratch.prefilter_rejects;
    out.dfa_scans += tag_scratch.dfa_scans;
    out.dfa_flushes += tag_scratch.dfa_flushes;
  }
  out.wall_ns = now_ns() - t0;
  return out;
}

/// The layers each route runs in sequence for every line: their summed
/// self time against the route's wall is the attributed share.
std::vector<const char*> route_layers(const std::string& workload) {
  if (workload == "study") return {"sim.build", "core.process"};
  if (workload == "serve") return {"net.decode", "stream.ring", "stream.ingest"};
  return {"simd.split", "stream.ring", "stream.ingest", "predict"};
}

}  // namespace

void trace_layers(const std::string& workload, const RunOptions& o,
                  double route_wall_ns, RunRecord& rec) {
  const std::vector<SimSpec> specs = corpus(workload, o.smoke);
  const bool batch_route = workload == "study";

  std::map<std::string, std::vector<double>> samples;
  std::vector<double> traced_wall;
  std::vector<double> untraced_wall;
  std::uint64_t lines = 0;
  std::uint64_t checkpoint_bytes = 0;
  double prefilter_share = 0.0;
  double dfa_share = 0.0;
  double dfa_flushes = 0.0;
  double admit_share = 0.0;
  const std::int64_t t0 = now_ns();
  // Traced and untraced replays alternate; the gap between their walls
  // is what recording spans costs.
  for (int k = 0;; ++k) {
    const bool traced = k % 2 == 0;
    Tracer tracer(traced);
    const Replay r = replay(specs, o.seed, batch_route, tracer);
    const std::map<std::string, std::int64_t> self_ns = tracer.self_ns();
    rec.check(r.consistent, "replay " + std::to_string(k) +
                                ": every layer saw every line and the "
                                "replayed alerts match the engine's");
    rec.add_attempted(r.lines);
    if (!r.consistent) rec.add_failed(r.lines);
    (traced ? traced_wall : untraced_wall).push_back(static_cast<double>(r.wall_ns));
    if (traced) {
      const auto self = [&self_ns](const char* name) {
        const auto it = self_ns.find(name);
        return it == self_ns.end() ? 0.0 : static_cast<double>(it->second);
      };
      const double n = static_cast<double>(r.lines);
      const double alerts = static_cast<double>(std::max<std::uint64_t>(r.alerts, 1));
      const double accumulate =
          batch_route ? self("core.process") - self("sim.render") -
                            self("parse") - self("tag")
                      : self("stream.ingest") - self("parse") - self("tag") -
                            self("filter");
      double route = 0.0;
      for (const char* layer : route_layers(workload)) route += self(layer);

      samples["sim.build_ms"].push_back(self("sim.build") / 1e6);
      samples["sim.render_ns"].push_back(self("sim.render") / n);
      samples["simd.split_ns"].push_back(self("simd.split") / n);
      samples["net.decode_ns"].push_back(self("net.decode") / n);
      samples["stream.ring_ns"].push_back(self("stream.ring") / n);
      samples["parse.ns"].push_back(self("parse") / n);
      samples["tag.ns"].push_back(self("tag") / n);
      samples["filter.ns"].push_back(self("filter") / alerts);
      samples["accumulate.ns"].push_back(accumulate / n);
      samples["stream.ingest_ns"].push_back(self("stream.ingest") / n);
      samples["predict.ns"].push_back(self("predict") / alerts);
      samples["stream.checkpoint_ms"].push_back(self("stream.checkpoint") / 1e6);
      samples["trace.unattributed_share"].push_back(1.0 - route / route_wall_ns);

      lines = r.lines;
      checkpoint_bytes = r.checkpoint_bytes;
      const double tagged = static_cast<double>(std::max<std::uint64_t>(r.tag_lines, 1));
      prefilter_share = static_cast<double>(r.prefilter_rejects) / tagged;
      dfa_share = static_cast<double>(r.dfa_scans) / tagged;
      dfa_flushes = static_cast<double>(r.dfa_flushes);
      admit_share = static_cast<double>(r.admitted) / alerts;
      if (o.spans != nullptr && k == 0) tracer.write_jsonl(*o.spans);
    }
    if (o.smoke ? k >= 1 : (seconds_since(t0) >= o.seconds && k >= 3)) break;
  }

  const auto per = [&](const char* name, const char* unit) {
    rec.add_repeated(name, unit, samples[name]);
  };
  per("sim.build_ms", "ms");
  per("sim.render_ns", "ns/line");
  per("simd.split_ns", "ns/line");
  per("net.decode_ns", "ns/line");
  per("stream.ring_ns", "ns/line");
  per("parse.ns", "ns/line");
  per("tag.ns", "ns/line");
  rec.add_value("tag.prefilter_reject_share", "share", prefilter_share, lines);
  rec.add_value("tag.dfa_scan_share", "share", dfa_share, lines);
  rec.add_value("tag.dfa_flushes", "count", dfa_flushes, lines);
  per("filter.ns", "ns/alert");
  rec.add_value("filter.admit_share", "share", admit_share, lines);
  per("accumulate.ns", "ns/line");
  per("stream.ingest_ns", "ns/line");
  per("predict.ns", "ns/alert");
  per("stream.checkpoint_ms", "ms");
  rec.add_value("stream.checkpoint_bytes", "bytes",
                static_cast<double>(checkpoint_bytes), 1);
  rec.add_value("trace.overhead_share", "share",
                quartiles(traced_wall).median / quartiles(untraced_wall).median - 1.0,
                traced_wall.size() + untraced_wall.size());
  per("trace.unattributed_share", "share");
}

}  // namespace wss::bench
