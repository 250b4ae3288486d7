#include "obs/export.hpp"

#include <stdexcept>

#include "util/file.hpp"
#include "util/strings.hpp"

namespace wss::obs {

namespace {

std::string fmt_double(double v) { return util::format("%.17g", v); }

/// Splits `name{key="value"}` into (name, `key="value"`); the label
/// part is empty for plain names.
std::pair<std::string_view, std::string_view> split_label(
    std::string_view name) {
  const auto brace = name.find('{');
  if (brace == std::string_view::npos || name.back() != '}') {
    return {name, {}};
  }
  return {name.substr(0, brace),
          name.substr(brace + 1, name.size() - brace - 2)};
}

void emit_type_line(std::string& out, std::string_view full_name,
                    const char* kind, std::string& last_base) {
  const auto [base, label] = split_label(full_name);
  (void)label;
  if (last_base == base) return;  // one TYPE line per metric family
  last_base = std::string(base);
  out += util::format("# TYPE %.*s %s\n", static_cast<int>(base.size()),
                      base.data(), kind);
}

}  // namespace

std::string to_json(const MetricsSnapshot& s) {
  std::string out = "{\n  \"schema\": \"wss.obs.v1\",\n  \"counters\": {";
  for (std::size_t i = 0; i < s.counters.size(); ++i) {
    out += util::format("%s\n    %s: %llu", i == 0 ? "" : ",",
                        util::json_quote(s.counters[i].name).c_str(),
                        static_cast<unsigned long long>(s.counters[i].value));
  }
  out += s.counters.empty() ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  for (std::size_t i = 0; i < s.gauges.size(); ++i) {
    out += util::format("%s\n    %s: %lld", i == 0 ? "" : ",",
                        util::json_quote(s.gauges[i].name).c_str(),
                        static_cast<long long>(s.gauges[i].value));
  }
  out += s.gauges.empty() ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  for (std::size_t i = 0; i < s.histograms.size(); ++i) {
    const auto& h = s.histograms[i];
    out += util::format("%s\n    %s: {\"bounds\": [", i == 0 ? "" : ",",
                        util::json_quote(h.name).c_str());
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      out += (b == 0 ? "" : ", ") + fmt_double(h.bounds[b]);
    }
    out += "], \"counts\": [";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      out += util::format("%s%llu", b == 0 ? "" : ", ",
                          static_cast<unsigned long long>(h.counts[b]));
    }
    out += util::format("], \"count\": %llu, \"sum\": %s}",
                        static_cast<unsigned long long>(h.count),
                        fmt_double(h.sum).c_str());
  }
  out += s.histograms.empty() ? "},\n" : "\n  },\n";

  out += "  \"spans\": [";
  for (std::size_t i = 0; i < s.spans.size(); ++i) {
    const auto& sp = s.spans[i];
    out += util::format(
        "%s\n    {\"path\": %s, \"count\": %llu, \"total_ns\": %llu}",
        i == 0 ? "" : ",", util::json_quote(sp.path).c_str(),
        static_cast<unsigned long long>(sp.count),
        static_cast<unsigned long long>(sp.total_ns));
  }
  out += s.spans.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

std::string to_prometheus(const MetricsSnapshot& s) {
  std::string out;
  std::string last_base;

  for (const auto& c : s.counters) {
    emit_type_line(out, c.name, "counter", last_base);
    out += util::format("%s %llu\n", c.name.c_str(),
                        static_cast<unsigned long long>(c.value));
  }
  last_base.clear();
  for (const auto& g : s.gauges) {
    emit_type_line(out, g.name, "gauge", last_base);
    out += util::format("%s %lld\n", g.name.c_str(),
                        static_cast<long long>(g.value));
  }
  last_base.clear();
  for (const auto& h : s.histograms) {
    const auto [base, label] = split_label(h.name);
    emit_type_line(out, h.name, "histogram", last_base);
    const std::string base_s(base);
    const std::string label_prefix =
        label.empty() ? "" : std::string(label) + ",";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      cumulative += h.counts[b];
      const std::string le =
          b < h.bounds.size() ? fmt_double(h.bounds[b]) : "+Inf";
      out += util::format("%s_bucket{%sle=\"%s\"} %llu\n", base_s.c_str(),
                          label_prefix.c_str(), le.c_str(),
                          static_cast<unsigned long long>(cumulative));
    }
    const std::string suffix =
        label.empty() ? "" : "{" + std::string(label) + "}";
    out += util::format("%s_sum%s %s\n", base_s.c_str(), suffix.c_str(),
                        fmt_double(h.sum).c_str());
    out += util::format("%s_count%s %llu\n", base_s.c_str(), suffix.c_str(),
                        static_cast<unsigned long long>(h.count));
  }

  for (const auto& sp : s.spans) {
    out += util::format("wss_span_hits_total{path=\"%s\"} %llu\n",
                        sp.path.c_str(),
                        static_cast<unsigned long long>(sp.count));
    out += util::format("wss_span_nanoseconds_total{path=\"%s\"} %llu\n",
                        sp.path.c_str(),
                        static_cast<unsigned long long>(sp.total_ns));
  }
  return out;
}

void write_metrics_file(const std::string& path) {
  const MetricsSnapshot snap = registry().snapshot();
  const bool prom =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
  // Published atomically so a long-running server can re-export on
  // SIGHUP or per-scrape while a reader tails the file: the reader sees
  // either the old export or the new one, never a torn write.
  try {
    util::publish_file(path, prom ? to_prometheus(snap) : to_json(snap));
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string("metrics: ") + e.what());
  }
}

}  // namespace wss::obs
