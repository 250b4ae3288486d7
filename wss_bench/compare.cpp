// `wss_bench compare BASE.jsonl HEAD.jsonl`.
//
// The verdict for one workload and metric, over runs paired in file
// order (run the two sides alternately so pairs share conditions):
//   improved    at least 10 pairs, head wins at least 9 in 10 of them
//               (ties count for neither side), and the medians differ
//               by more than the base runs' interquartile range;
//   regressed   head's median is worse than base's by more than the
//               metric's bound in BENCHMARK.json (a metric without a
//               bound: the improved rule with the sides swapped);
//   unresolved  base's own spread is wider than the bound and head does
//               not beat every base run; for a metric without a bound,
//               any pair differs and neither side met the rule;
//   unchanged   otherwise.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>

#include "dist/json.hpp"
#include "report.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace wss::bench {

namespace {

constexpr std::size_t kMinPairs = 10;
constexpr double kWinShare = 0.9;

struct Series {
  std::string unit;
  std::vector<double> values;  ///< one per run, file order
};

/// workload -> metric -> values of its end-to-end records.
using Runs = std::map<std::string, std::map<std::string, Series>>;

Runs read_runs(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  Runs runs;
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    ++n;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    dist::JsonValue rec;
    try {
      rec = dist::parse_json(line);
    } catch (const std::exception& e) {
      throw std::runtime_error(util::format("%s:%zu: %s", path.c_str(), n, e.what()));
    }
    if (rec.at("mode").as_string() != "e2e") continue;
    auto& metrics = runs[rec.at("workload").as_string()];
    for (const auto& [name, m] : rec.at("metrics").as_object()) {
      Series& s = metrics[name];
      s.unit = m.at("unit").as_string();
      s.values.push_back(m.at("value").as_double());
    }
  }
  return runs;
}

struct Rule {
  bool higher_is_better = false;
  std::optional<double> bound;  ///< relative to the base median
};

/// Directions and bounds of the metrics BENCHMARK.json names.
std::map<std::string, Rule> read_rules(const std::string& path, std::ostream& err) {
  std::map<std::string, Rule> rules;
  std::ifstream in(path);
  if (!in) {
    err << "compare: no " << path << "; every metric is compared without a bound\n";
    return rules;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const dist::JsonValue doc = dist::parse_json(text);
  for (const char* list : {"end_to_end", "per_layer"}) {
    const dist::JsonValue* arr = doc.find(list);
    if (arr == nullptr) continue;
    for (const dist::JsonValue& m : arr->as_array()) {
      Rule r;
      r.higher_is_better = m.at("better").as_string() == "higher";
      if (const dist::JsonValue* b = m.find("bound")) r.bound = b->as_double();
      rules[m.at("name").as_string()] = r;
    }
  }
  return rules;
}

std::string verdict(const std::vector<double>& base, const std::vector<double>& head,
                    const Rule& rule, std::size_t& wins, std::size_t& pairs) {
  const double sign = rule.higher_is_better ? 1.0 : -1.0;
  pairs = std::min(base.size(), head.size());
  wins = 0;
  std::size_t losses = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    const double d = sign * (head[i] - base[i]);
    if (d > 0) ++wins;
    if (d < 0) ++losses;
  }
  const Quartiles b = quartiles(base);
  const Quartiles h = quartiles(head);
  const double gain = sign * (h.median - b.median);  // > 0: head better
  const double iqr = b.q3 - b.q1;
  const bool enough = pairs >= kMinPairs;
  if (enough && wins >= kWinShare * static_cast<double>(pairs) && gain > iqr) {
    return "improved";
  }
  if (!rule.bound) {
    if (enough && losses >= kWinShare * static_cast<double>(pairs) && -gain > iqr) {
      return "regressed";
    }
    return wins == 0 && losses == 0 && pairs > 0 ? "unchanged" : "unresolved";
  }
  const double scale = std::fabs(b.median);
  if (-gain > *rule.bound * scale) return "regressed";
  if (iqr > *rule.bound * scale) {
    // Spread wider than the bound: only a clean sweep resolves it.
    double worst_head = HUGE_VAL;
    double best_base = -HUGE_VAL;
    for (const double v : head) worst_head = std::min(worst_head, sign * v);
    for (const double v : base) best_base = std::max(best_base, sign * v);
    if (worst_head <= best_base) return "unresolved";
  }
  return "unchanged";
}

std::string cell(const std::vector<double>& v) {
  const Quartiles q = quartiles(v);
  return util::format("%.6g [%.6g, %.6g]", q.median, q.q1, q.q3);
}

}  // namespace

int compare_records(const std::string& base_path, const std::string& head_path,
                    const std::string& bounds_path, std::ostream& out,
                    std::ostream& err) {
  Runs base;
  Runs head;
  std::map<std::string, Rule> rules;
  try {
    base = read_runs(base_path);
    head = read_runs(head_path);
    rules = read_rules(bounds_path, err);
  } catch (const std::exception& e) {
    err << "compare: " << e.what() << "\n";
    return 2;
  }

  util::Table t({"Workload", "Metric", "Unit", "Base median [q1, q3]",
                 "Head median [q1, q3]", "Won", "Verdict"});
  for (const auto& [workload, metrics] : base) {
    const auto hw = head.find(workload);
    if (hw == head.end()) continue;
    for (const auto& [name, b] : metrics) {
      const auto hm = hw->second.find(name);
      if (hm == hw->second.end()) continue;
      Rule rule;
      if (const auto r = rules.find(name); r != rules.end()) {
        rule = r->second;
      } else {
        // Not in BENCHMARK.json: rates are better higher, the rest
        // (times, sizes, counts of trouble) lower.
        rule.higher_is_better = b.unit.size() >= 2 &&
                                b.unit.compare(b.unit.size() - 2, 2, "/s") == 0;
      }
      std::size_t wins = 0;
      std::size_t pairs = 0;
      const std::string v = verdict(b.values, hm->second.values, rule, wins, pairs);
      t.add_row({workload, name, b.unit, cell(b.values), cell(hm->second.values),
                 util::format("%zu/%zu", wins, pairs), v});
    }
  }
  out << t.render();
  return 0;
}

}  // namespace wss::bench
