// Small shared helpers of the end-to-end benchmark: a monotonic clock,
// order statistics, and the per-session outcome digest the correctness gate
// compares across runs.
#ifndef ISRL_BENCHMARK_COMMON_H_
#define ISRL_BENCHMARK_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/budget.h"
#include "core/algorithm.h"

namespace isrl::e2e {

/// Seconds on the steady clock since an arbitrary fixed origin.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nanoseconds on the steady clock (span timestamps).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The q-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// What the correctness gate compares per session: the recommendation, the
/// number of questions, and how the episode ended. Seeded sessions are a
/// pure function of their seed and answers, so every run of the same users
/// must produce identical outcomes (DESIGN.md §13–§15).
struct Outcome {
  size_t best_index = 0;
  size_t rounds = 0;
  Termination termination = Termination::kConverged;
  bool valid = false;  ///< set once the session's result was collected

  bool operator==(const Outcome& other) const {
    return best_index == other.best_index && rounds == other.rounds &&
           termination == other.termination && valid == other.valid;
  }
};

inline Outcome ToOutcome(const InteractionResult& result) {
  return Outcome{result.best_index, result.rounds, result.termination, true};
}

/// FNV-1a over the outcomes of sessions [0, count), in id order.
inline uint64_t Digest(const std::vector<Outcome>& outcomes, size_t count) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (size_t i = 0; i < count && i < outcomes.size(); ++i) {
    mix(outcomes[i].best_index);
    mix(outcomes[i].rounds);
    mix(static_cast<uint64_t>(outcomes[i].termination));
    mix(outcomes[i].valid ? 1 : 0);
  }
  return h;
}

}  // namespace isrl::e2e

#endif  // ISRL_BENCHMARK_COMMON_H_
