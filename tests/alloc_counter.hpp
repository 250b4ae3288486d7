// Heap-allocation counter for the steady-state allocation tests.
//
// Replaces the global operator new/delete of the test binary that
// includes it, so every allocation on any thread is counted. Include it
// from exactly one translation unit per binary (each tests/test_*.cpp
// is its own executable); replacement allocation functions cannot be
// inline, so a second inclusion would define them twice.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace wss::testing_util {

inline std::atomic<std::uint64_t> g_allocation_count{0};

/// Allocations made by this binary so far.
inline std::uint64_t allocations() {
  return g_allocation_count.load(std::memory_order_relaxed);
}

}  // namespace wss::testing_util

// Not inlined: GCC would otherwise see std::malloc() and std::free()
// through them and warn (-Wmismatched-new-delete) that a pointer from
// one is released by the other, though they are replaced as a set.
[[gnu::noinline]] void* operator new(std::size_t size) {
  wss::testing_util::g_allocation_count.fetch_add(1,
                                                   std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  wss::testing_util::g_allocation_count.fetch_add(1,
                                                   std::memory_order_relaxed);
  return std::malloc(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
