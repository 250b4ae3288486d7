// obs::Span trace trees: nesting produces "/"-joined paths, repeated
// entries reuse nodes, per-thread trees merge by name chain in
// snapshots, and reset() zeroes counts while keeping cached node
// pointers valid.
#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace wss::obs {
namespace {

const SpanStats* find_span(const MetricsSnapshot& s, std::string_view path) {
  for (const SpanStats& sp : s.spans) {
    if (sp.path == path) return &sp;
  }
  return nullptr;
}

TEST(ObsSpan, NestedSpansMergeIntoPaths) {
  registry().reset();
  {
    Span outer("span_outer");
    { Span inner("span_inner"); }
    { Span inner("span_inner"); }
  }
  const MetricsSnapshot snap = registry().snapshot();
  const SpanStats* outer = find_span(snap, "span_outer");
  const SpanStats* inner = find_span(snap, "span_outer/span_inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(inner->count, 2u);
  // The parent's clock encloses both children's.
  EXPECT_GE(outer->total_ns, inner->total_ns);
  // The inner name never appears as a root span.
  EXPECT_EQ(find_span(snap, "span_inner"), nullptr);
}

TEST(ObsSpan, RepeatedRunsAccumulateWithoutNewPaths) {
  registry().reset();
  for (int i = 0; i < 5; ++i) {
    Span pass("span_pass");
    { Span chunk("span_chunk"); }
  }
  const MetricsSnapshot snap = registry().snapshot();
  const SpanStats* pass = find_span(snap, "span_pass");
  const SpanStats* chunk = find_span(snap, "span_pass/span_chunk");
  ASSERT_NE(pass, nullptr);
  ASSERT_NE(chunk, nullptr);
  EXPECT_EQ(pass->count, 5u);
  EXPECT_EQ(chunk->count, 5u);
}

TEST(ObsSpan, ThreadsMergeByNameChain) {
  registry().reset();
  constexpr int kThreads = 4;
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([] {
        Span worker("span_worker");
        { Span chunk("span_chunk"); }
      });
    }
  }
  const MetricsSnapshot snap = registry().snapshot();
  const SpanStats* worker = find_span(snap, "span_worker");
  const SpanStats* chunk = find_span(snap, "span_worker/span_chunk");
  ASSERT_NE(worker, nullptr);
  ASSERT_NE(chunk, nullptr);
  // One tree per thread, merged by name: counts sum across threads.
  EXPECT_EQ(worker->count, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(chunk->count, static_cast<std::uint64_t>(kThreads));
}

TEST(ObsSpan, ResetZeroesCountsInPlace) {
  { Span s("span_reset_me"); }
  registry().reset();
  const MetricsSnapshot snap = registry().snapshot();
  for (const SpanStats& sp : snap.spans) {
    EXPECT_EQ(sp.count, 0u) << sp.path;
    EXPECT_EQ(sp.total_ns, 0u) << sp.path;
  }
  // Nodes survive the reset: re-entering the span works and counts
  // from zero again.
  { Span s("span_reset_me"); }
  const MetricsSnapshot after = registry().snapshot();
  const SpanStats* again = find_span(after, "span_reset_me");
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->count, 1u);
}

TEST(ObsSpan, PrometheusFlattensSpansToCounters) {
  registry().reset();
  {
    Span outer("span_prom");
    { Span inner("span_leaf"); }
  }
  const std::string prom = to_prometheus(registry().snapshot());
  EXPECT_NE(prom.find("wss_span_hits_total{path=\"span_prom\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("wss_span_hits_total{path=\"span_prom/span_leaf\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("wss_span_nanoseconds_total{path=\"span_prom\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace wss::obs
