// Algorithm AA — the approximate, scalable RL-driven interactive algorithm
// (Section IV-C).
//
// AA keeps only the learned half-space set H; its state is the LP-computed
// inner sphere + outer rectangle, its actions are centre-splitting feasible
// pairs, and it stops when the outer rectangle collapses to
// ‖e_min − e_max‖ ≤ 2√d·ε, returning the top point w.r.t. the rectangle
// midpoint (regret ≤ d²·ε by Lemma 9, and below ε empirically — §V).
// Note: Algorithms 3/4 print the loop guard with the comparison inverted;
// we implement the prose semantics (loop while the distance exceeds the
// bound). See DESIGN.md §2.
#ifndef ISRL_CORE_AA_H_
#define ISRL_CORE_AA_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/aa_actions.h"
#include "core/aa_state.h"
#include "core/algorithm.h"
#include "core/ea.h"
#include "data/dataset.h"
#include "nn/registry.h"
#include "rl/dqn.h"

namespace isrl {

/// AA configuration (defaults follow §V).
struct AaOptions {
  double epsilon = 0.1;        ///< threshold; stop at ‖e_min−e_max‖ ≤ 2√d·ε
  AaActionOptions actions;     ///< m_h, pool sampling
  rl::DqnOptions dqn;          ///< agent hyper-parameters
  size_t max_rounds = 2000;    ///< safety cap (Lemma 10 gives O(n²))
  size_t updates_per_round = 1;
  size_t updates_per_episode = 1;
  uint64_t seed = 42;
};

/// The AA interactive algorithm bound to a (normalised, skyline) dataset.
class Aa : public InteractiveAlgorithm {
 public:
  Aa(const Dataset& data, const AaOptions& options);

  /// Explicit copy (CloneForEval): same dataset binding and weights, but
  /// the live serving snapshot is NOT shared (see Ea's copy constructor).
  Aa(const Aa& other);

  /// Algorithm 3: one ε-greedy training episode per utility vector, played
  /// through the serving Session (core/episode_engine.h).
  TrainStats Train(const std::vector<Vec>& training_utilities);

  std::string name() const override { return "AA"; }

  /// Deep copy sharing the dataset binding (see Ea::CloneForEval).
  std::unique_ptr<InteractiveAlgorithm> CloneForEval() const override {
    return std::make_unique<Aa>(*this);
  }

  /// Reseeds the action-sampling Rng (per-user derived seed during
  /// evaluation; see core/session.cc).
  void Reseed(uint64_t seed) override { rng_ = Rng(seed); }

  rl::DqnAgent& agent() { return agent_; }
  const AaOptions& options() const { return options_; }
  size_t input_dim() const { return input_dim_; }
  /// Number of scalar geometric descriptors appended to each action's
  /// features (balance, alignment, centre distance).
  static constexpr size_t kActionDescriptors = 3;

  /// The live serving snapshot of this instance's Q-network (version 0 —
  /// unregistered; see Ea::ServingModel). Sessions started without an
  /// explicit SessionConfig::model pin this snapshot (DESIGN.md §18).
  std::shared_ptr<const nn::ModelSnapshot> ServingModel();

  /// Persists the trained Q-network (extension; DESIGN.md §7).
  Status SaveAgent(const std::string& path);
  /// Restores a Q-network saved by SaveAgent; the target network is
  /// synchronised to it.
  Status LoadAgent(const std::string& path);

  /// The stopping bound 2√d·ε for this instance.
  double StopDistance() const;

  /// Algorithm 4 as a resumable sans-IO session (DESIGN.md §13), hardened —
  /// when noisy answers make H infeasible the minimal most-recent suffix of
  /// half-spaces is dropped, unanswered questions are skipped, and the
  /// config's budget caps rounds and wall-clock time. Exposes the
  /// batched-scoring protocol so the SessionScheduler can coalesce
  /// candidate scoring across sessions.
  std::unique_ptr<InteractionSession> StartSession(
      const SessionConfig& config) override;

  /// Reopens a checkpointed AA session (DESIGN.md §14). Snapshots carry the
  /// Q-network's fingerprint, not its weights; restore fails with
  /// FailedPrecondition when this instance's network differs.
  Result<std::unique_ptr<InteractionSession>> RestoreSession(
      const std::string& bytes, const SessionConfig& config) override;

 private:
  class Session;
  template <typename Algorithm>
  friend TrainStats TrainEpisodes(Algorithm& algorithm,
                                  const std::vector<Vec>& utilities);
  template <typename Derived, typename Algorithm>
  friend class RlSession;

  /// Row-stacked candidate features (see Ea::FeaturizeCandidates).
  Matrix FeaturizeCandidates(const Vec& state,
                             const std::vector<AaAction>& actions) const;
  /// Top point w.r.t. the rectangle midpoint (e_min + e_max)/2.
  size_t MidpointBest(const AaGeometry& geometry) const;

  const Dataset& data_;
  AaOptions options_;
  Rng rng_;
  size_t input_dim_;
  rl::DqnAgent agent_;
  size_t episodes_trained_ = 0;
  /// Lazily built by ServingModel(); reset whenever the weights change.
  std::shared_ptr<const nn::ModelSnapshot> live_model_;
};

}  // namespace isrl

#endif  // ISRL_CORE_AA_H_
