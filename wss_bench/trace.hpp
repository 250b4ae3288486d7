// In-memory span recorder for traced runs.
//
// A span is one call into one layer: a trace id (one per chunk of
// 8192 lines; 0 for spans outside any chunk), its own id, its parent's
// id (0 for a root), a name, and start/end times in ns. Spans stay in
// memory and are written out once, when the run ends, so recording
// costs two clock reads and a vector append. A disabled tracer records
// nothing, which is how a traced run prices its own recording.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace wss::bench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::uint64_t trace = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";  ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its id (0 when disabled).
  std::uint64_t begin(std::uint64_t trace, std::uint64_t parent,
                      const char* name);
  void end(std::uint64_t id);

  /// Per name: the summed self time, i.e. each span's duration minus
  /// the part of its interval that its children cover.
  std::map<std::string, std::int64_t> self_ns() const;

  /// Appends every span as one JSON line, times relative to the first.
  void write_jsonl(std::ostream& os) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op on a disabled tracer.
class Span {
 public:
  Span(Tracer& t, std::uint64_t trace, std::uint64_t parent, const char* name)
      : tracer_(t), id_(t.begin(trace, parent, name)) {}
  ~Span() { tracer_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

}  // namespace wss::bench
