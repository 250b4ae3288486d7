#include "obs/span.hpp"

#include <cstring>

namespace wss::obs {

namespace {

/// Finds `name` among the children of `parent`. Only the owning thread
/// appends to its own tree, so the unlocked scan cannot race a
/// concurrent append; snapshot() walks under the registry mutex, which
/// the append path also takes.
TraceNode* find_child(TraceNode* parent, const char* name) {
  for (const auto& child : parent->children) {
    if (child->name == name || std::strcmp(child->name, name) == 0) {
      return child.get();
    }
  }
  return nullptr;
}

}  // namespace

Span::Span(const char* name) {
  ThreadTrace& trace = Registry::global().thread_trace();
  trace_ = &trace;
  TraceNode* parent = trace.current;
  TraceNode* node = find_child(parent, name);
  if (node == nullptr) {
    auto owned = std::make_unique<TraceNode>();
    owned->name = name;
    owned->parent = parent;
    node = owned.get();
    std::lock_guard<std::mutex> lock(Registry::global().mu_);
    parent->children.push_back(std::move(owned));
  }
  trace.current = node;
  node_ = node;
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
  node_->count.fetch_add(1, std::memory_order_relaxed);
  node_->total_ns.fetch_add(static_cast<std::uint64_t>(ns),
                            std::memory_order_relaxed);
  trace_->current = node_->parent;
}

}  // namespace wss::obs
