// Steady-state allocation contract of the observability layer: after
// warm-up (metric registration, span-node creation, stripe
// assignment), the hot instrumentation operations allocate NOTHING --
// counter incs, gauge sets, histogram observes, span enter/leave, and
// tag-tally flushes. The pipeline leans on this: obs calls sit on
// per-event and per-chunk paths that are themselves allocation-free.
//
// The counter is tests/alloc_counter.hpp.
#include <gtest/gtest.h>

#include "alloc_counter.hpp"
#include "match/scratch.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "tag/metrics.hpp"

namespace wss::obs {
namespace {

TEST(ObsAlloc, SteadyStateInstrumentationAllocatesNothing) {
  // Warm-up: registration takes the registry mutex and allocates; the
  // first visit of each span (parent, name) pair appends a node; the
  // first counter touch on this thread assigns its stripe.
  Counter& c = registry().counter("wss_alloc_c_total");
  Gauge& g = registry().gauge("wss_alloc_g");
  Histogram& h = registry().histogram("wss_alloc_h", latency_bounds_seconds());
  match::MatchScratch scratch;
  tag::TagMetricsFlusher flusher;
  c.inc();
  g.set(1);
  h.observe(1e-6);
  {
    Span outer("alloc_outer");
    { Span inner("alloc_inner"); }
  }
  flusher.flush(scratch);

  const std::uint64_t before = testing_util::allocations();
  for (int i = 0; i < 10000; ++i) {
    c.inc();
    c.inc(3);
    g.set(i);
    g.add(1);
    h.observe(static_cast<double>(i) * 1e-7);
    {
      Span outer("alloc_outer");
      { Span inner("alloc_inner"); }
    }
    flusher.flush(scratch);
  }
  const std::uint64_t after = testing_util::allocations();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations across the steady-state loop";

  // Sanity: the loop really did write through.
  EXPECT_GE(c.value(), 40001u);
  EXPECT_EQ(h.count(), 10001u);
}

}  // namespace
}  // namespace wss::obs
