#include "trace.hpp"

#include <algorithm>
#include <ostream>

#include "dist/json.hpp"
#include "util/strings.hpp"

namespace wss::bench {

std::uint64_t Tracer::begin(std::uint64_t trace, std::uint64_t parent,
                            const char* name) {
  if (!enabled_) return 0;
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({trace, id, parent, name, now_ns(), 0});
  return id;
}

void Tracer::end(std::uint64_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = now_ns();
}

std::map<std::string, std::int64_t> Tracer::self_ns() const {
  std::vector<std::vector<const SpanRecord*>> children(spans_.size() + 1);
  for (const SpanRecord& s : spans_) children[s.parent].push_back(&s);

  std::map<std::string, std::int64_t> out;
  for (const SpanRecord& s : spans_) {
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (const SpanRecord* c : children[s.id]) {
      const std::int64_t lo = std::max(c->start_ns, s.start_ns);
      const std::int64_t hi = std::min(c->end_ns, s.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    out[s.name] += (s.end_ns - s.start_ns) - covered;
  }
  return out;
}

void Tracer::write_jsonl(std::ostream& os) const {
  if (spans_.empty()) return;
  const std::int64_t t0 = spans_.front().start_ns;
  for (const SpanRecord& s : spans_) {
    os << util::format(
        "{\"trace\":%llu,\"span\":%llu,\"parent\":%llu,\"name\":%s,"
        "\"start_ns\":%lld,\"end_ns\":%lld}\n",
        static_cast<unsigned long long>(s.trace),
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        dist::json_quote(s.name).c_str(),
        static_cast<long long>(s.start_ns - t0),
        static_cast<long long>(s.end_ns - t0));
  }
}

}  // namespace wss::bench
