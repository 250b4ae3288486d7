#include "core/experiments.hpp"

#include <algorithm>

#include "compress/codec.hpp"
#include "filter/simultaneous.hpp"
#include "stats/changepoint.hpp"
#include "stats/correlation.hpp"
#include "stats/descriptive.hpp"
#include "tag/rulesets.hpp"
#include "tag/severity_tagger.hpp"

namespace wss::core {

namespace {

/// Number of rendered lines sampled for the compression measurement.
constexpr std::size_t kCompressionSampleLines = 20000;

}  // namespace

std::vector<filter::Alert> filtered_alerts(Study& study, parse::SystemId id) {
  // Per-segment parallel Algorithm 3.1: bit-identical to the serial
  // filter at every thread count (see filter/simultaneous.hpp).
  return filter::apply_simultaneous_parallel(
      study.simulator(id).ground_truth_alerts(), study.threshold(),
      study.options().pipeline.num_threads);
}

Table2Row table2_row(Study& study, parse::SystemId id) {
  const auto& sim = study.simulator(id);
  const auto& res = study.pipeline_result(id);
  Table2Row row;
  row.system = id;
  row.days = sim.spec().days;
  row.measured_gb = res.weighted_bytes / 1e9;
  row.rate_bytes_per_sec =
      res.weighted_bytes /
      (static_cast<double>(sim.spec().days) * 86400.0);
  row.messages = res.weighted_messages;
  for (const double w : res.weighted_alert_counts) row.alerts += w;
  row.categories = res.categories_observed;

  // Compression fraction from a sample of rendered text.
  std::string sample;
  const std::size_t n =
      std::min<std::size_t>(kCompressionSampleLines, sim.events().size());
  sample.reserve(n * 96);
  for (std::size_t i = 0; i < n; ++i) {
    sim.renderer().render_into(sim.events()[i], i, sample);
    sample.push_back('\n');
  }
  row.compressed_fraction = compress::compression_fraction(sample);
  return row;
}

Table3Data table3(Study& study) {
  Table3Data d;
  for (const auto id : parse::kAllSystems) {
    const auto cats = tag::categories_of(id);
    const auto& counts = study.pipeline_result(id).weighted_alert_counts;
    for (std::size_t c = 0; c < cats.size(); ++c) {
      d.raw[static_cast<std::size_t>(cats[c]->type)] += counts[c];
    }
    for (const filter::Alert& a : filtered_alerts(study, id)) {
      ++d.filtered[static_cast<std::size_t>(a.type)];
    }
  }
  return d;
}

std::vector<Table4Row> table4_rows(Study& study, parse::SystemId id) {
  const auto cats = tag::categories_of(id);
  const auto& counts = study.pipeline_result(id).weighted_alert_counts;

  std::vector<std::uint64_t> filtered(cats.size(), 0);
  for (const filter::Alert& a : filtered_alerts(study, id)) {
    ++filtered[a.category];
  }

  std::vector<Table4Row> rows;
  rows.reserve(cats.size());
  for (std::size_t c = 0; c < cats.size(); ++c) {
    Table4Row r;
    r.category = cats[c]->name;
    r.type = cats[c]->type;
    r.raw_weighted = counts[c];
    r.paper_raw = cats[c]->raw_count;
    r.filtered_measured = filtered[c];
    r.paper_filtered = cats[c]->filtered_count;
    rows.push_back(std::move(r));
  }
  return rows;
}

std::vector<SeverityRow> severity_distribution(Study& study,
                                               parse::SystemId id) {
  const auto& sim = study.simulator(id);
  const bool rs = id == parse::SystemId::kRedStorm;

  std::map<parse::Severity, SeverityRow> acc;
  for (const sim::SimEvent& e : sim.events()) {
    if (rs) {
      // Table 6 scope: syslog paths only (the TCP event-router path
      // has no severity analog).
      const tag::LogPath p = sim.renderer().path_of(e);
      if (p != tag::LogPath::kRsSyslog && p != tag::LogPath::kRsDdn) continue;
    }
    auto& row = acc[e.severity];
    row.severity = e.severity;
    row.messages += e.weight;
    if (e.is_alert()) row.alerts += e.weight;
  }

  std::vector<SeverityRow> out;
  for (auto& [sev, row] : acc) out.push_back(row);
  std::sort(out.begin(), out.end(),
            [](const SeverityRow& a, const SeverityRow& b) {
              return static_cast<int>(a.severity) > static_cast<int>(b.severity);
            });
  return out;
}

SeverityTaggerRates bgl_severity_tagging(Study& study) {
  const auto& sim = study.simulator(parse::SystemId::kBlueGeneL);
  // Weighted confusion counts: "tag FATAL/FAILURE messages as alerts".
  double tp = 0.0;
  double fp = 0.0;
  double fn = 0.0;
  for (const sim::SimEvent& e : sim.events()) {
    const bool predicted = e.severity == parse::Severity::kFatal ||
                           e.severity == parse::Severity::kFailure;
    if (predicted && e.is_alert()) {
      tp += e.weight;
    } else if (predicted && !e.is_alert()) {
      fp += e.weight;
    } else if (!predicted && e.is_alert()) {
      fn += e.weight;
    }
  }
  SeverityTaggerRates r;
  r.false_positive_rate = tp + fp > 0.0 ? fp / (tp + fp) : 0.0;
  r.false_negative_rate = tp + fn > 0.0 ? fn / (tp + fn) : 0.0;
  return r;
}

Fig2aData fig2a(Study& study) {
  const auto& sim = study.simulator(parse::SystemId::kLiberty);
  Fig2aData d{stats::TimeSeries::covering(sim.spec().start_time(),
                                          sim.spec().end_time(),
                                          util::kUsPerHour),
              {}};
  for (const sim::SimEvent& e : sim.events()) d.series.add(e.time, e.weight);

  // Changepoints over day-level aggregation (hourly is too noisy).
  std::vector<double> daily;
  const auto& b = d.series.buckets();
  for (std::size_t i = 0; i + 24 <= b.size(); i += 24) {
    double s = 0.0;
    for (std::size_t k = 0; k < 24; ++k) s += b[i + k];
    daily.push_back(s);
  }
  for (const auto& cp : stats::detect_changepoints(daily)) {
    d.changepoints.push_back(cp.index * 24);  // back to hourly index
  }
  return d;
}

Fig2bData fig2b(Study& study) {
  const auto& res = study.pipeline_result(parse::SystemId::kLiberty);
  Fig2bData d;
  d.corrupted_weight = res.corrupted_source_weight;
  d.sources.assign(res.messages_by_source.begin(),
                   res.messages_by_source.end());
  // Tie-break on name so the ordering (and the golden file built from
  // it) is fully determined.
  std::sort(d.sources.begin(), d.sources.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  return d;
}

Fig3Data fig3(Study& study) {
  const auto id = parse::SystemId::kLiberty;
  const auto cats = tag::categories_of(id);
  int par = -1;
  int lanai = -1;
  for (std::size_t c = 0; c < cats.size(); ++c) {
    if (cats[c]->name == "GM_PAR") par = static_cast<int>(c);
    if (cats[c]->name == "GM_LANAI") lanai = static_cast<int>(c);
  }
  Fig3Data d;
  for (const filter::Alert& a : study.simulator(id).ground_truth_alerts()) {
    if (static_cast<int>(a.category) == par) d.gm_par.push_back(a.time);
    if (static_cast<int>(a.category) == lanai) d.gm_lanai.push_back(a.time);
  }
  const util::TimeUs window = 10 * util::kUsPerMin;
  d.cooccur_par_to_lanai =
      stats::cooccurrence_fraction(d.gm_par, d.gm_lanai, window);
  d.cooccur_lanai_to_par =
      stats::cooccurrence_fraction(d.gm_lanai, d.gm_par, window);
  const auto xc = stats::cross_correlation(d.gm_par, d.gm_lanai,
                                           util::kUsPerHour, 24);
  for (const double v : xc) {
    d.peak_cross_correlation = std::max(d.peak_cross_correlation, v);
  }
  return d;
}

std::vector<Fig4Point> fig4(Study& study) {
  std::vector<Fig4Point> out;
  for (const filter::Alert& a :
       filtered_alerts(study, parse::SystemId::kLiberty)) {
    out.push_back({a.time, a.category});
  }
  return out;
}

Fig5Data fig5(Study& study) {
  const auto id = parse::SystemId::kThunderbird;
  const auto cats = tag::categories_of(id);
  int ecc = -1;
  for (std::size_t c = 0; c < cats.size(); ++c) {
    if (cats[c]->name == "ECC") ecc = static_cast<int>(c);
  }
  std::vector<util::TimeUs> times;
  for (const filter::Alert& a : filtered_alerts(study, id)) {
    if (static_cast<int>(a.category) == ecc) times.push_back(a.time);
  }
  Fig5Data d;
  d.gaps_seconds = stats::interarrival_seconds(
      std::vector<std::int64_t>(times.begin(), times.end()));
  if (d.gaps_seconds.size() >= 8) {
    d.exponential = stats::fit_exponential(d.gaps_seconds);
    d.lognormal = stats::fit_lognormal(d.gaps_seconds);
    d.ks_exponential = stats::ks_test(
        d.gaps_seconds, [&](double x) { return d.exponential.cdf(x); });
    d.ks_lognormal = stats::ks_test(
        d.gaps_seconds, [&](double x) { return d.lognormal.cdf(x); });
  }
  return d;
}

Fig6Data fig6(Study& study, parse::SystemId id) {
  // Bins: 10^0 .. 10^7 seconds, 4 per decade (the paper plots log
  // interarrival).
  Fig6Data d{stats::LogHistogram(0.0, 7.0, 4), {}};
  std::vector<std::int64_t> times;
  for (const filter::Alert& a : filtered_alerts(study, id)) {
    times.push_back(a.time);
  }
  for (const double g : stats::interarrival_seconds(std::move(times))) {
    d.hist.add(g);
  }
  d.modes = d.hist.modes();
  return d;
}

}  // namespace wss::core
