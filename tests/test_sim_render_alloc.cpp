// Steady-state allocation contract of the renderer: once the caller's
// buffer and the renderer's per-thread body scratch have grown to fit,
// render_into allocates NOTHING. The study renders every simulated
// line through it, so one allocation per line would be one malloc and
// one free per line on every worker thread.
//
// The counter (tests/alloc_counter.hpp) replaces this binary's global
// operator new; it counts every allocation, so the measured region is
// exactly the render loop.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "alloc_counter.hpp"
#include "sim/generator.hpp"

namespace wss::sim {
namespace {

/// Renders every event into `out`, one line at a time, as the batch
/// pipeline does. Returns the rendered bytes.
std::size_t render_pass(const Simulator& sim, std::string& out) {
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < sim.events().size(); ++i) {
    out.clear();
    sim.renderer().render_into(sim.events()[i], i, out);
    bytes += out.size();
  }
  return bytes;
}

void expect_steady_state_allocates_nothing(parse::SystemId system) {
  SimOptions opts;
  opts.category_cap = 300;
  opts.chatter_events = 4000;
  opts.inject_corruption = true;
  const Simulator sim(system, opts);

  // The corpus must reach every log path the system renders (Red Storm
  // has three: Linux syslog, DDN and the event router).
  std::set<tag::LogPath> paths;
  for (const SimEvent& e : sim.events()) {
    paths.insert(sim.renderer().path_of(e));
  }
  std::set<tag::LogPath> catalog_paths;
  for (const tag::CategoryInfo* c : tag::categories_of(system)) {
    catalog_paths.insert(c->path);
  }
  for (const ChatterTemplate& t : chatter_templates(system)) {
    catalog_paths.insert(t.path);
  }
  EXPECT_EQ(paths, catalog_paths);

  // Warm-up: grows the buffer and this thread's body scratch to their
  // high-water marks.
  std::string line;
  const std::size_t bytes = render_pass(sim, line);

  const std::uint64_t before = testing_util::allocations();
  const std::size_t bytes_again = render_pass(sim, line);
  const std::uint64_t after = testing_util::allocations();

  EXPECT_EQ(bytes_again, bytes);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations across " << sim.events().size()
      << " steady-state lines";
}

TEST(RenderAlloc, BlueGeneL) {
  expect_steady_state_allocates_nothing(parse::SystemId::kBlueGeneL);
}

TEST(RenderAlloc, RedStorm) {
  expect_steady_state_allocates_nothing(parse::SystemId::kRedStorm);
}

TEST(RenderAlloc, Liberty) {
  expect_steady_state_allocates_nothing(parse::SystemId::kLiberty);
}

}  // namespace
}  // namespace wss::sim
