#include "core/golden.hpp"

#include <filesystem>
#include <stdexcept>

#include "core/experiments.hpp"
#include "core/report.hpp"
#include "tag/rulesets.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

namespace wss::core {

namespace {

/// Round-trip double formatting: 17 significant digits uniquely
/// identify an IEEE double, so any drift changes the golden bytes.
std::string g(double v) { return util::format("%.17g", v); }

std::string csv_escape(const std::string& s) {
  // Golden fields (category names, hostnames) contain no commas or
  // quotes today; fail loudly rather than emit an ambiguous file.
  if (s.find_first_of(",\"\n") != std::string::npos) {
    throw std::logic_error("golden: field needs CSV escaping: " + s);
  }
  return s;
}

std::string golden_table2(Study& study) {
  std::string out =
      "system,days,measured_gb,compressed_fraction,rate_bytes_per_sec,"
      "messages,alerts,categories\n";
  for (const auto id : parse::kAllSystems) {
    const auto row = table2_row(study, id);
    out += util::format(
        "%s,%d,%s,%s,%s,%s,%s,%d\n",
        std::string(parse::system_short_name(id)).c_str(), row.days,
        g(row.measured_gb).c_str(), g(row.compressed_fraction).c_str(),
        g(row.rate_bytes_per_sec).c_str(), g(row.messages).c_str(),
        g(row.alerts).c_str(), row.categories);
  }
  return out;
}

std::string golden_table3(Study& study) {
  const auto d = table3(study);
  std::string out = "type,raw_weighted,filtered\n";
  for (int i = 0; i < 3; ++i) {
    const auto type = static_cast<filter::AlertType>(i);
    out += util::format("%s,%s,%llu\n",
                        std::string(filter::alert_type_name(type)).c_str(),
                        g(d.raw[i]).c_str(),
                        static_cast<unsigned long long>(d.filtered[i]));
  }
  return out;
}

std::string golden_table4(Study& study, parse::SystemId id) {
  std::string out = "category,type,raw_weighted,filtered\n";
  for (const auto& r : table4_rows(study, id)) {
    out += util::format("%s,%c,%s,%llu\n", csv_escape(r.category).c_str(),
                        filter::alert_type_letter(r.type),
                        g(r.raw_weighted).c_str(),
                        static_cast<unsigned long long>(r.filtered_measured));
  }
  return out;
}

std::string golden_severity(Study& study, parse::SystemId id,
                            bool syslog_names) {
  std::string out = "severity,messages_weighted,alerts_weighted\n";
  for (const auto& r : severity_distribution(study, id)) {
    const auto name = syslog_names ? parse::severity_syslog_name(r.severity)
                                   : parse::severity_bgl_name(r.severity);
    out += util::format("%s,%s,%s\n", std::string(name).c_str(),
                        g(r.messages).c_str(), g(r.alerts).c_str());
  }
  return out;
}

std::string golden_table5(Study& study) {
  std::string out =
      golden_severity(study, parse::SystemId::kBlueGeneL,
                      /*syslog_names=*/false);
  const auto rates = bgl_severity_tagging(study);
  out += util::format("severity_tagger_fp_rate,%s\n",
                      g(rates.false_positive_rate).c_str());
  out += util::format("severity_tagger_fn_rate,%s\n",
                      g(rates.false_negative_rate).c_str());
  return out;
}

std::string golden_fig2a(Study& study) {
  const auto d = fig2a(study);
  std::string out = "bucket,weighted_messages\n";
  const auto& b = d.series.buckets();
  for (std::size_t i = 0; i < b.size(); ++i) {
    out += util::format("%zu,%s\n", i, g(b[i]).c_str());
  }
  out += "changepoints";
  for (const auto cp : d.changepoints) out += util::format(",%zu", cp);
  out += "\n";
  return out;
}

std::string golden_fig2b(Study& study) {
  const auto d = fig2b(study);
  std::string out = "source,weighted_messages\n";
  for (const auto& [name, w] : d.sources) {
    out += util::format("%s,%s\n", csv_escape(name).c_str(), g(w).c_str());
  }
  out += util::format("corrupted,%s\n", g(d.corrupted_weight).c_str());
  return out;
}

std::string golden_fig5(Study& study) {
  const auto d = fig5(study);
  std::string out = util::format(
      "exp_rate,%s\nlognormal_mu,%s\nlognormal_sigma,%s\n"
      "ks_exp_d,%s\nks_exp_p,%s\nks_lognormal_d,%s\nks_lognormal_p,%s\n",
      g(d.exponential.rate).c_str(), g(d.lognormal.mu).c_str(),
      g(d.lognormal.sigma).c_str(), g(d.ks_exponential.statistic).c_str(),
      g(d.ks_exponential.p_value).c_str(),
      g(d.ks_lognormal.statistic).c_str(),
      g(d.ks_lognormal.p_value).c_str());
  out += "gap_seconds\n";
  for (const double gap : d.gaps_seconds) out += g(gap) + "\n";
  return out;
}

std::string golden_fig6(Study& study, parse::SystemId id) {
  const auto d = fig6(study, id);
  std::string out = "bin,count\n";
  const auto& bins = d.hist.bins();
  for (std::size_t i = 0; i < bins.size(); ++i) {
    out += util::format("%zu,%s\n", i, g(bins[i]).c_str());
  }
  out += util::format("underflow,%s\noverflow,%s\n",
                      g(d.hist.underflow()).c_str(),
                      g(d.hist.overflow()).c_str());
  out += "modes";
  for (const auto m : d.modes) out += util::format(",%zu", m);
  out += "\n";
  return out;
}

}  // namespace

StudyOptions golden_study_options() {
  StudyOptions o;
  // Big enough that every table row and figure series is populated,
  // small enough that the golden suite runs in a few seconds. These
  // values are part of the golden identity: changing them (or the
  // seed, or corruption) requires a rebless.
  o.sim.category_cap = 2500;
  o.sim.chatter_events = 15000;
  return o;
}

const std::vector<GoldenArtifact>& golden_artifacts() {
  static const std::vector<GoldenArtifact> kArtifacts = [] {
    const std::vector<parse::SystemId> all(parse::kAllSystems.begin(),
                                           parse::kAllSystems.end());
    std::vector<GoldenArtifact> a;
    a.push_back({"table1.txt", "Table 1 system characteristics",
                 [](Study&) { return render_table1(); },
                 {}});
    a.push_back({"table2.csv", "Table 2 log characteristics",
                 golden_table2, all});
    a.push_back({"table3.csv", "Table 3 alert type distribution",
                 golden_table3, all});
    for (const auto id : parse::kAllSystems) {
      a.push_back({util::format("table4_%s.csv",
                                std::string(parse::system_short_name(id))
                                    .c_str()),
                   util::format("Table 4 per-category counts (%s)",
                                std::string(parse::system_name(id)).c_str()),
                   [id](Study& s) { return golden_table4(s, id); },
                   {id}});
    }
    a.push_back({"table5.csv", "Table 5 BG/L severity cross-tab",
                 golden_table5,
                 {parse::SystemId::kBlueGeneL}});
    a.push_back({"table6.csv", "Table 6 Red Storm severity cross-tab",
                 [](Study& s) {
                   return golden_severity(s, parse::SystemId::kRedStorm,
                                          /*syslog_names=*/true);
                 },
                 {parse::SystemId::kRedStorm}});
    a.push_back({"fig2a.csv", "Figure 2(a) Liberty hourly rate series",
                 golden_fig2a,
                 {parse::SystemId::kLiberty}});
    a.push_back({"fig2b.csv", "Figure 2(b) Liberty per-source counts",
                 golden_fig2b,
                 {parse::SystemId::kLiberty}});
    a.push_back({"fig5.csv", "Figure 5 ECC interarrivals and fits",
                 golden_fig5,
                 {parse::SystemId::kThunderbird}});
    a.push_back({"fig6_bgl.csv", "Figure 6 BG/L interarrival histogram",
                 [](Study& s) {
                   return golden_fig6(s, parse::SystemId::kBlueGeneL);
                 },
                 {parse::SystemId::kBlueGeneL}});
    a.push_back({"fig6_spirit.csv", "Figure 6 Spirit interarrival histogram",
                 [](Study& s) {
                   return golden_fig6(s, parse::SystemId::kSpirit);
                 },
                 {parse::SystemId::kSpirit}});
    return a;
  }();
  return kArtifacts;
}

std::size_t write_artifacts(
    Study& study, const std::string& dir,
    const std::function<bool(const GoldenArtifact&)>& want) {
  std::filesystem::create_directories(dir);
  std::size_t written = 0;
  for (const auto& artifact : golden_artifacts()) {
    if (want && !want(artifact)) continue;
    util::publish_file(dir + "/" + artifact.file, artifact.produce(study));
    ++written;
  }
  return written;
}

std::size_t write_goldens(const std::string& dir) {
  Study study(golden_study_options());
  return write_artifacts(study, dir, [](const GoldenArtifact&) {
    return true;
  });
}

}  // namespace wss::core
