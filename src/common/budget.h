// Run budgets and terminal outcomes for the interaction engine.
//
// Every interactive session runs under a RunBudget: a round cap, a wall-clock
// deadline, and a per-round LP iteration cap. Budgets are how the serving
// layer guarantees that no user answer, LP outcome, or geometry degeneracy
// can hang a session — when a budget is exhausted the algorithm stops and
// returns its best-so-far recommendation with Termination::kBudgetExhausted
// instead of looping.
#ifndef ISRL_COMMON_BUDGET_H_
#define ISRL_COMMON_BUDGET_H_

#include <algorithm>
#include <chrono>
#include <cstddef>

namespace isrl {

/// Resource limits for one interactive session. Zero means "no limit from
/// the budget" — the algorithm's own safety caps still apply.
struct RunBudget {
  size_t max_rounds = 0;         ///< questions asked (incl. unanswered ones)
  double max_seconds = 0.0;      ///< wall-clock deadline for the interaction
  size_t max_lp_iterations = 0;  ///< simplex iteration cap per LP solve

  /// The round cap actually in force: the tighter of the budget and the
  /// algorithm's own default cap (either may be 0 = unlimited).
  size_t EffectiveMaxRounds(size_t algorithm_default) const {
    if (max_rounds == 0) return algorithm_default;
    if (algorithm_default == 0) return max_rounds;
    return std::min(max_rounds, algorithm_default);
  }
};

/// A wall-clock deadline. Default-constructed deadlines never expire.
class Deadline {
 public:
  Deadline() = default;

  /// Expires `seconds` from now; non-positive values make an already-expired
  /// deadline.
  static Deadline After(double seconds) {
    Deadline d;
    d.armed_ = true;
    d.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
    return d;
  }

  /// Deadline from a budget: max_seconds when set, never otherwise.
  static Deadline FromBudget(const RunBudget& budget) {
    return budget.max_seconds > 0.0 ? After(budget.max_seconds) : Deadline();
  }

  bool armed() const { return armed_; }
  bool Expired() const { return armed_ && Clock::now() >= at_; }

  /// Seconds until expiry (negative once expired; 0 when unarmed). The
  /// checkpoint codec persists deadlines as remaining time and re-arms them
  /// with After() at restore, so wall-clock pauses while a session sits in
  /// a snapshot — a restored dialogue does not owe the crash its downtime.
  double RemainingSeconds() const {
    if (!armed_) return 0.0;
    return std::chrono::duration<double>(at_ - Clock::now()).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  bool armed_ = false;
  Clock::time_point at_;
};

/// How an interactive session ended. Every session ends in exactly one of
/// these states; none of them aborts the process.
enum class Termination {
  kConverged = 0,     ///< normal stop certificate, no degradation needed
  kDegraded,          ///< finished after dropping conflicting answers
                      ///< (inconsistent/noisy user) or stalling on conflicts
  kBudgetExhausted,   ///< round cap or deadline hit; best-so-far returned
  kAborted,           ///< unrecoverable internal failure (see result.status)
};

}  // namespace isrl

#endif  // ISRL_COMMON_BUDGET_H_
