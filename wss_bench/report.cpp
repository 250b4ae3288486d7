#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <thread>

#include "dist/json.hpp"
#include "simd/dispatch.hpp"
#include "util/strings.hpp"

namespace wss::bench {

namespace {

/// Every digit a double carries; non-finite values (a ratio over an
/// empty base) are written as 0 so the record stays valid JSON.
std::string number(double v) {
  return std::isfinite(v) ? util::format("%.17g", v) : std::string("0");
}

}  // namespace

Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  Quartiles q;
  q.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n == 1) {
    q.q1 = q.q3 = values[0];
    return q;
  }
  // statistics.quantiles(..., n=4, method="exclusive"): m = n + 1,
  // j = i*m // 4 clamped to [1, n-1], delta = i*m - j*4.
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

double percentile(std::vector<float>& samples, double p) {
  if (samples.empty()) return 0.0;
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const std::size_t k = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(samples.size()))) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

Machine this_machine() {
  Machine m;
  m.cores = std::thread::hardware_concurrency();
  m.simd = simd::level_name(simd::active_level());
#if defined(__clang__)
  m.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  m.compiler = "gcc " __VERSION__;
#else
  m.compiler = "unknown";
#endif
  m.build_type = WSS_BENCH_BUILD_TYPE;
  return m;
}

RunRecord::RunRecord(std::string workload, std::uint64_t seed, bool trace,
                     double seconds)
    : workload_(std::move(workload)),
      seed_(seed),
      trace_(trace),
      seconds_(seconds) {}

void RunRecord::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) failures_.push_back(what);
}

void RunRecord::add_repeated(const std::string& name, const std::string& unit,
                             const std::vector<double>& samples) {
  const Quartiles q = quartiles(samples);
  metrics_.push_back({name, unit, q.median, samples.size(), q.q1, q.q3, samples});
}

void RunRecord::add_best(const std::string& name, const std::string& unit,
                         const std::vector<double>& samples,
                         bool higher_is_better) {
  const Quartiles q = quartiles(samples);
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  const double best = samples.empty() ? 0.0 : higher_is_better ? *hi : *lo;
  metrics_.push_back({name, unit, best, samples.size(), q.q1, q.q3, samples});
}

void RunRecord::add_value(const std::string& name, const std::string& unit,
                          double value, std::uint64_t n) {
  metrics_.push_back({name, unit, value, n, value, value, {}});
}

void RunRecord::print_lines(std::ostream& os) const {
  for (const Metric& m : metrics_) {
    os << workload_ << ' ' << m.name << ' ' << number(m.value) << ' '
       << m.unit << '\n';
  }
}

std::string RunRecord::to_json(const Machine& m) const {
  std::string out = util::format(
      "{\"schema\":\"wss_bench.v1\",\"workload\":%s,\"seed\":%llu,"
      "\"mode\":\"%s\",\"seconds\":%s,",
      dist::json_quote(workload_).c_str(),
      static_cast<unsigned long long>(seed_), trace_ ? "trace" : "e2e",
      number(seconds_).c_str());
  out += util::format(
      "\"machine\":{\"cores\":%u,\"simd\":%s,\"compiler\":%s,"
      "\"build_type\":%s},",
      m.cores, dist::json_quote(m.simd).c_str(),
      dist::json_quote(m.compiler).c_str(),
      dist::json_quote(m.build_type).c_str());
  out += util::format("\"attempted\":%llu,\"failed\":%llu,",
                      static_cast<unsigned long long>(attempted_),
                      static_cast<unsigned long long>(failed_));
  out += util::format("\"checks\":{\"run\":%llu,\"failed\":[",
                      static_cast<unsigned long long>(checks_));
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) out += ',';
    out += dist::json_quote(failures_[i]);
  }
  out += "]},\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& x = metrics_[i];
    if (i > 0) out += ',';
    out += util::format(
        "%s:{\"value\":%s,\"unit\":%s,\"n\":%llu,\"q1\":%s,\"q3\":%s",
        dist::json_quote(x.name).c_str(), number(x.value).c_str(),
        dist::json_quote(x.unit).c_str(),
        static_cast<unsigned long long>(x.n), number(x.q1).c_str(),
        number(x.q3).c_str());
    if (!x.samples.empty()) {
      out += ",\"samples\":[";
      for (std::size_t k = 0; k < x.samples.size(); ++k) {
        if (k > 0) out += ',';
        out += number(x.samples[k]);
      }
      out += ']';
    }
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace wss::bench
