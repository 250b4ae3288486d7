#include "stream/report.hpp"

#include <sstream>

#include "filter/alert.hpp"
#include "tag/rulesets.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace wss::stream {

std::string render_snapshot(const StreamSnapshot& s) {
  std::ostringstream os;
  os << util::format(
      "%s stream %s: %s events",
      std::string(parse::system_name(s.system)).c_str(),
      s.finished ? "(final)" : "(live)",
      util::with_commas(static_cast<std::int64_t>(s.events)).c_str());
  if (s.events > 0) {
    os << util::format(" spanning %s .. %s",
                       util::format_iso(s.first_time).c_str(),
                       util::format_iso(s.watermark).c_str());
  }
  os << "\n";
  if (s.dropped > 0) {
    os << util::format("  !! %s events dropped at ingestion (drop-oldest)\n",
                       util::with_commas(
                           static_cast<std::int64_t>(s.dropped)).c_str());
  }

  os << util::format(
      "  volume: %.4g weighted messages, %.3f GB, %.1f bytes/s, "
      "%d categories",
      s.messages, s.measured_gb, s.rate_bytes_per_sec, s.categories_observed);
  if (s.compressed_fraction) {
    os << util::format(", compresses to %.1f%%",
                       *s.compressed_fraction * 100.0);
  }
  os << "\n";
  os << util::format(
      "  parse: %s corrupted sources, %s invalid timestamps",
      util::with_commas(
          static_cast<std::int64_t>(s.corrupted_source_lines)).c_str(),
      util::with_commas(
          static_cast<std::int64_t>(s.invalid_timestamp_lines)).c_str());
  if (!s.has_ground_truth) {
    os << util::format(", %d year rollover(s)", s.year_rollovers);
  }
  os << "\n";

  os << util::format(
      "  filter: %s alerts -> %s after filtering (H %s / S %s / I %s)\n",
      util::with_commas(static_cast<std::int64_t>(s.alerts_offered)).c_str(),
      util::with_commas(static_cast<std::int64_t>(s.alerts_admitted)).c_str(),
      util::with_commas(
          static_cast<std::int64_t>(s.filtered_by_type[0])).c_str(),
      util::with_commas(
          static_cast<std::int64_t>(s.filtered_by_type[1])).c_str(),
      util::with_commas(
          static_cast<std::int64_t>(s.filtered_by_type[2])).c_str());

  if (s.predict_enabled) {
    os << util::format(
        "  predict%s: %s issued, %s hits / %s misses / %s false alarms "
        "(%s incidents), %zu routed\n",
        s.predict_fitted ? "" : " (training)",
        util::with_commas(
            static_cast<std::int64_t>(s.predict_issued)).c_str(),
        util::with_commas(static_cast<std::int64_t>(s.predict_hits)).c_str(),
        util::with_commas(
            static_cast<std::int64_t>(s.predict_misses)).c_str(),
        util::with_commas(
            static_cast<std::int64_t>(s.predict_false_alarms)).c_str(),
        util::with_commas(
            static_cast<std::int64_t>(s.predict_incidents)).c_str(),
        s.predict_routed);
  }

  if (s.gap_count > 0) {
    os << util::format(
        "  interarrival (admitted): mean %.1fs sd %.1fs min %.1fs "
        "p50 %.1fs p95 %.1fs p99 %.1fs max %.1fs (n=%s)\n",
        s.gap_mean_s, s.gap_stddev_s, s.gap_min_s, s.gap_p50_s, s.gap_p95_s,
        s.gap_p99_s, s.gap_max_s,
        util::with_commas(static_cast<std::int64_t>(s.gap_count)).c_str());
  }
  os << util::format(
      "  last %.0fs of stream time: %.4g messages, %.4g raw alerts, "
      "%.4g admitted\n",
      s.window_seconds, s.messages_in_window, s.raw_alerts_in_window,
      s.admitted_in_window);

  const auto cats = tag::categories_of(s.system);
  util::Table t({"Category", "Type", "Raw", "Filtered"});
  for (std::size_t c = 0; c < s.weighted_alert_counts.size(); ++c) {
    if (s.physical_alert_counts.size() > c && s.physical_alert_counts[c] == 0 &&
        (c >= s.filtered_counts.size() || s.filtered_counts[c] == 0)) {
      continue;
    }
    const std::string name =
        c < cats.size() ? cats[c]->name : util::format("cat%zu", c);
    const char type_letter =
        c < cats.size() ? filter::alert_type_letter(cats[c]->type) : '?';
    const std::uint64_t filtered =
        c < s.filtered_counts.size() ? s.filtered_counts[c] : 0;
    t.add_row({name, std::string(1, type_letter),
               util::format("%.0f", s.weighted_alert_counts[c]),
               std::to_string(filtered)});
  }
  os << t.render();
  return os.str();
}

std::string render_status_line(const StreamSnapshot& s,
                               double wall_events_per_sec) {
  std::string line = util::format(
      "[%s] %s events, %s admitted, window %.4g msg / %.4g adm",
      s.events > 0 ? util::format_iso(s.watermark).c_str() : "-",
      util::with_commas(static_cast<std::int64_t>(s.events)).c_str(),
      util::with_commas(static_cast<std::int64_t>(s.alerts_admitted)).c_str(),
      s.messages_in_window, s.admitted_in_window);
  if (wall_events_per_sec > 0.0) {
    line += util::format(", %.0f ev/s", wall_events_per_sec);
  }
  if (s.dropped > 0) {
    line += util::format(", %s dropped",
                         util::with_commas(
                             static_cast<std::int64_t>(s.dropped)).c_str());
  }
  return line;
}

}  // namespace wss::stream
