// Run records: named metrics with units, sample counts and quartiles,
// the outcome of every correctness check, and the machine they ran
// on. One record is one JSON line; `compare` reads them back.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace wss::bench {

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// First quartile, median and third quartile with the interpolation
/// of Python's statistics.quantiles(values, n=4) (its default
/// "exclusive" method), so the harness and any Python reader agree.
/// One value is its own quartiles; no values gives zeros.
Quartiles quartiles(std::vector<double> values);

/// Nearest-rank percentile (0 < p <= 1) of `samples`; reorders them.
double percentile(std::vector<float>& samples, double p);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;     ///< the reported number
  std::uint64_t n = 0;    ///< samples behind `value`
  double q1 = 0.0;        ///< quartiles of the repeated samples
  double q3 = 0.0;        ///< (equal to value when n == 1)
  std::vector<double> samples;  ///< the repetitions, in run order
};

/// The machine line every record carries.
struct Machine {
  unsigned cores = 0;
  std::string simd;        ///< simd::active_level() spelling
  std::string compiler;
  std::string build_type;
};

Machine this_machine();

class RunRecord {
 public:
  RunRecord(std::string workload, std::uint64_t seed, bool trace,
            double seconds);

  /// Records one correctness check; a failure is kept by name.
  void check(bool ok, const std::string& what);
  bool all_checks_passed() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  /// A metric measured once per repetition: reported as the median,
  /// with the repetitions' quartiles.
  void add_repeated(const std::string& name, const std::string& unit,
                    const std::vector<double>& samples);
  /// A metric measured once per repetition, reported as the best one
  /// (the highest when `higher_is_better`, else the lowest). Other
  /// processes sharing the host can only slow a repetition down, so the
  /// best is the steadiest estimate of what the code does; the quartiles
  /// and samples keep the rest.
  void add_best(const std::string& name, const std::string& unit,
                const std::vector<double>& samples, bool higher_is_better);
  /// A metric computed once over `n` samples (a percentile, a count).
  void add_value(const std::string& name, const std::string& unit,
                 double value, std::uint64_t n);

  /// Lines (or operations) the run attempted, and how many of them
  /// failed: not ingested, dropped, refused, or in a pass whose output
  /// check failed.
  void add_attempted(std::uint64_t n) { attempted_ += n; }
  void add_failed(std::uint64_t n) { failed_ += n; }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// `workload metric value unit` lines.
  void print_lines(std::ostream& os) const;
  /// One JSON object, no trailing newline.
  std::string to_json(const Machine& m) const;

 private:
  std::string workload_;
  std::uint64_t seed_;
  bool trace_;
  double seconds_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_ = 0;
  std::vector<std::string> failures_;
  std::vector<Metric> metrics_;
};

/// `wss_bench compare`: reads two files of records, pairs the
/// end-to-end runs of each workload in file order, and prints one row
/// per workload and metric with a verdict. `bounds_path` is the
/// BENCHMARK.json holding each metric's direction and bound. Returns
/// the exit code: 0, or 2 on unreadable input.
int compare_records(const std::string& base_path, const std::string& head_path,
                    const std::string& bounds_path, std::ostream& out,
                    std::ostream& err);

}  // namespace wss::bench
