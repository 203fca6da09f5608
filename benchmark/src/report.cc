#include "report.h"

#include <cmath>
#include <cstdio>

namespace isrl::e2e {

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  Info(name, value, unit);
  if (!std::isfinite(value)) {
    Check(false, name + " is not a finite number");
    value = 0.0;
  }
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit) {
  std::printf("%s %s %.6g %s\n", workload_.c_str(), name.c_str(), value,
              unit.c_str());
  std::fflush(stdout);
}

void Report::Note(const std::string& text) {
  std::printf("# %s\n", text.c_str());
  std::fflush(stdout);
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::printf("# CHECK FAILED [%s]: %s\n", workload_.c_str(), what.c_str());
  std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", workload_.c_str(),
               what.c_str());
  std::fflush(stdout);
}

void Report::CountAttempts(size_t attempted, size_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace isrl::e2e
