// User simulation.
//
// The paper evaluates by hiding a utility vector u* and answering every
// question ⟨p_i, p_j⟩ with the comparison f_{u*}(p_i) vs f_{u*}(p_j). The
// oracle interface also admits the noisy user named in the paper's
// future-work section (answers flipped with a fixed error probability).
#ifndef ISRL_USER_USER_H_
#define ISRL_USER_USER_H_

#include <memory>

#include "common/rng.h"
#include "common/vec.h"

namespace isrl {

/// A user's reply to one pairwise question. Real users sometimes fail to
/// answer at all (timeouts, skipped questions); the interaction engine must
/// survive that, so the reply is three-valued.
enum class Answer {
  kFirst = 0,   ///< prefers the first point
  kSecond,      ///< prefers the second point
  kNoAnswer,    ///< timed out / declined — the engine learns nothing
};

/// Answers pairwise-preference questions. Implementations must be consistent
/// with *some* underlying preference for evaluation to be meaningful, but the
/// algorithms only ever see the answers.
class UserOracle {
 public:
  virtual ~UserOracle() = default;

  /// True when the user prefers `a` to `b` (ties broken towards `a`).
  virtual bool Prefers(const Vec& a, const Vec& b) = 0;

  /// Three-valued form of Prefers(); the interaction engines ask through
  /// this entry point. The default never declines to answer — only faulty
  /// oracles (FaultyUser) return kNoAnswer.
  virtual Answer Ask(const Vec& a, const Vec& b) {
    return Prefers(a, b) ? Answer::kFirst : Answer::kSecond;
  }

  /// Number of questions answered so far.
  size_t questions_asked() const { return questions_asked_; }
  void ResetQuestionCount() { questions_asked_ = 0; }

 protected:
  size_t questions_asked_ = 0;
};

/// Deterministic linear-utility user (the paper's evaluation protocol).
class LinearUser : public UserOracle {
 public:
  /// `utility` must be a non-negative vector summing to 1 (the utility
  /// space U of Section III).
  explicit LinearUser(Vec utility);

  bool Prefers(const Vec& a, const Vec& b) override;

  const Vec& utility() const { return utility_; }

 private:
  Vec utility_;
};

/// Linear user whose answer is flipped with probability `error_rate`
/// (future-work extension; see DESIGN.md §7).
class NoisyUser : public UserOracle {
 public:
  /// Owns its flip generator, seeded with `seed`: the fault stream is a
  /// pure function of the seed, independent of any other oracle — what the
  /// deterministic parallel evaluation layer requires.
  NoisyUser(Vec utility, double error_rate, uint64_t seed);

  bool Prefers(const Vec& a, const Vec& b) override;

  const Vec& utility() const { return inner_.utility(); }
  double error_rate() const { return error_rate_; }

 private:
  LinearUser inner_;
  double error_rate_;
  Rng rng_;
};

/// Decorator that re-asks each question `votes` times (odd) and returns the
/// majority answer — the standard mitigation for noisy oracles. Each re-ask
/// counts as a question for round-accounting purposes.
class MajorityVoteUser : public UserOracle {
 public:
  /// Owns `inner`, so a UserFactory can return a self-contained oracle.
  MajorityVoteUser(std::unique_ptr<UserOracle> inner, size_t votes);

  bool Prefers(const Vec& a, const Vec& b) override;

 private:
  std::unique_ptr<UserOracle> inner_;
  size_t votes_;
};

}  // namespace isrl

#endif  // ISRL_USER_USER_H_
