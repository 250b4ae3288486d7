// RAII scoped timers that nest into the per-run trace tree.
//
//   {
//     obs::Span span("pipeline");
//     ...
//     { obs::Span chunk("chunk"); ... }   // appears as "pipeline/chunk"
//   }
//
// Each thread owns one tree (obs::ThreadTrace, kept alive by the
// registry); entering a span walks one level down, leaving walks back
// up. Registry::snapshot() merges all thread trees by name path into
// the flat SpanStats list ("a/b" style paths).
//
// Cost model: steady state is a linear scan of the parent's children
// (pointer compare, then strcmp -- span trees are a handful of nodes
// wide) plus two relaxed atomic adds and two steady_clock reads. The
// first visit of a (parent, name) pair takes the registry mutex to
// append the node; nodes are never removed, so there is no allocation
// or locking after warm-up (tests/test_obs_alloc.cpp pins this).
//
// `name` MUST be a string literal (or otherwise outlive the process):
// the tree stores the pointer. Spans are meant for stage granularity
// (a command, a pass, a chunk) -- not per-event loops; per-event data
// belongs in counters and histograms.
#pragma once

#include <chrono>
#include <cstdint>

#include "obs/metrics.hpp"

namespace wss::obs {

class Span {
 public:
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceNode* node_ = nullptr;
  ThreadTrace* trace_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace wss::obs
