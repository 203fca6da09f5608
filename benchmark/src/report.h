// Metric and check collection for one benchmark run. Every metric prints as
// a `workload metric value unit` line as it is recorded; the ones named in
// BENCHMARK.json also go into the JSON object printed as the run's last
// line.
#ifndef ISRL_BENCHMARK_REPORT_H_
#define ISRL_BENCHMARK_REPORT_H_

#include <cstddef>
#include <string>
#include <vector>

namespace isrl::e2e {

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// A metric that is part of the run's JSON result.
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A metric printed for people only (diagnostics, e2e-run layer numbers).
  void Info(const std::string& name, double value, const std::string& unit);
  /// A free-form `# ...` line.
  void Note(const std::string& text);

  /// Records a correctness check; a failure makes the run incorrect.
  void Check(bool ok, const std::string& what);

  /// Boundary calls attempted and failed (sessions admitted, answers
  /// posted); aborted sessions count as failures too.
  void CountAttempts(size_t attempted, size_t failed);

  bool correct() const { return correct_; }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

  /// The single-line JSON result: correct, attempted, failed, metrics.
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };

  std::string workload_;
  std::vector<Entry> metrics_;
  bool correct_ = true;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

}  // namespace isrl::e2e

#endif  // ISRL_BENCHMARK_REPORT_H_
