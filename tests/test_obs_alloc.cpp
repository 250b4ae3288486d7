// Steady-state allocation contract of the observability layer: after
// warm-up (metric registration, span-node creation, stripe
// assignment), the hot instrumentation operations allocate NOTHING --
// counter incs, gauge sets, histogram observes, span enter/leave, and
// tag-tally flushes. The pipeline leans on this: obs calls sit on
// per-event and per-chunk paths that are themselves allocation-free.
//
// Same operator-new counting scheme as tests/test_tag_alloc.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "match/scratch.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "tag/metrics.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

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

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
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
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations across the steady-state loop";

  // Sanity: the loop really did write through.
  EXPECT_GE(c.value(), 40001u);
  EXPECT_EQ(h.count(), 10001u);
}

}  // namespace
}  // namespace wss::obs
