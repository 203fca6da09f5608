// Algorithm EA — the exact RL-driven interactive algorithm (Section IV-B).
//
// EA maintains the utility range R as an explicit polyhedron, encodes it with
// representative extreme vectors + the outer sphere, restricts actions to
// pairs over P_R (terminal-polyhedron winners), and trains a DQN so that
// question selection maximises the discounted terminal reward — i.e.
// minimises the number of rounds over the whole interaction (Algorithm 1).
// Inference (Algorithm 2) plays the greedy policy and returns a point whose
// regret ratio is strictly below ε (Lemma 4).
#ifndef ISRL_CORE_EA_H_
#define ISRL_CORE_EA_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/algorithm.h"
#include "core/ea_actions.h"
#include "core/ea_state.h"
#include "data/dataset.h"
#include "nn/registry.h"
#include "rl/dqn.h"

namespace isrl {

/// EA configuration (defaults follow §V).
struct EaOptions {
  double epsilon = 0.1;        ///< regret-ratio threshold
  EaStateOptions state;        ///< m_e, d_eps
  EaActionOptions actions;     ///< m_h, interior-sample count
  rl::DqnOptions dqn;          ///< agent hyper-parameters
  size_t max_rounds = 1000;    ///< safety cap (Theorem 1 gives O(n))
  size_t updates_per_round = 1;   ///< DQN updates after each training round
  size_t updates_per_episode = 1; ///< extra updates at episode end (Alg. 1 l.19)
  uint64_t seed = 42;          ///< master seed for all stochastic pieces
};

/// Training statistics (per call to Train).
struct TrainStats {
  size_t episodes = 0;
  double mean_rounds = 0.0;  ///< average episode length during training
  double final_loss = 0.0;   ///< batch MSE of the last update
};

/// The EA interactive algorithm bound to a (normalised, skyline) dataset.
class Ea : public InteractiveAlgorithm {
 public:
  Ea(const Dataset& data, const EaOptions& options);

  /// Explicit copy (CloneForEval): same dataset binding, same Q-network
  /// weights (Adam moments reset), but the live serving snapshot is
  /// deliberately NOT shared — each clone lazily builds its own, so model
  /// inference scratch is never shared across evaluation threads.
  Ea(const Ea& other);

  /// Algorithm 1: one ε-greedy training episode per utility vector, played
  /// through the serving Session (core/episode_engine.h).
  TrainStats Train(const std::vector<Vec>& training_utilities);

  std::string name() const override { return "EA"; }

  /// Deep copy sharing the dataset binding; the copy's Q-network weights
  /// equal this instance's at clone time (Adam moments reset — see
  /// DqnAgent's copy constructor), so cloned inference is identical.
  std::unique_ptr<InteractiveAlgorithm> CloneForEval() const override {
    return std::make_unique<Ea>(*this);
  }

  /// Reseeds the action-sampling Rng (per-user derived seed during
  /// evaluation; see core/session.cc).
  void Reseed(uint64_t seed) override { rng_ = Rng(seed); }

  rl::DqnAgent& agent() { return agent_; }
  const EaOptions& options() const { return options_; }
  /// Featurised (state, action) input dimension of the Q-network.
  size_t input_dim() const { return input_dim_; }
  /// Number of scalar geometric descriptors appended to each action's
  /// features (balance, centroid distance).
  static constexpr size_t kActionDescriptors = 2;

  /// The live serving snapshot of this instance's Q-network (version 0 —
  /// unregistered), built lazily and refreshed whenever the weights change
  /// (Train, LoadAgent, or direct agent() mutation, caught by a fingerprint
  /// check). Sessions started without an explicit SessionConfig::model pin
  /// this snapshot, so retraining never affects an in-flight episode
  /// (DESIGN.md §18).
  std::shared_ptr<const nn::ModelSnapshot> ServingModel();

  /// Persists the trained Q-network so a later process can skip Train()
  /// (extension; DESIGN.md §7).
  Status SaveAgent(const std::string& path);
  /// Restores a Q-network saved by SaveAgent (architecture must match this
  /// instance's input_dim); the target network is synchronised to it.
  Status LoadAgent(const std::string& path);

  /// Algorithm 2 as a resumable sans-IO session (DESIGN.md §13), hardened —
  /// conflicting (noisy) answers are dropped most-recent-first instead of
  /// emptying R, unanswered questions are skipped, and the config's budget
  /// caps rounds and time. Exposes the batched-scoring protocol so the
  /// SessionScheduler can coalesce candidate scoring across sessions.
  std::unique_ptr<InteractionSession> StartSession(
      const SessionConfig& config) override;

  /// Reopens a checkpointed EA session (DESIGN.md §14). The snapshot stores
  /// the Q-network's fingerprint, not its weights: restore fails with
  /// FailedPrecondition when this instance's network differs from the one
  /// the session was saved under (e.g. it has been retrained since).
  Result<std::unique_ptr<InteractionSession>> RestoreSession(
      const std::string& bytes, const SessionConfig& config) override;

 private:
  class Session;
  template <typename Algorithm>
  friend TrainStats TrainEpisodes(Algorithm& algorithm,
                                  const std::vector<Vec>& utilities);
  template <typename Derived, typename Algorithm>
  friend class RlSession;

  /// One round's decision basis: a terminal certificate, candidate actions,
  /// or a stall (degenerate data — no winners and no questions left).
  struct RoundPlan {
    bool terminal = false;
    bool stalled = false;
    size_t winner = 0;
    std::vector<EaAction> actions;
  };

  RoundPlan PlanRound(const Polyhedron& range, Rng& rng);
  /// Row-stacked candidate features (core/episode_engine.h): the round
  /// scores all actions with one GEMM.
  Matrix FeaturizeCandidates(const Vec& state,
                             const std::vector<EaAction>& actions) const;

  const Dataset& data_;
  EaOptions options_;
  Rng rng_;
  size_t input_dim_;
  rl::DqnAgent agent_;
  size_t episodes_trained_ = 0;
  /// Lazily built by ServingModel(); reset whenever the weights change.
  std::shared_ptr<const nn::ModelSnapshot> live_model_;
};

}  // namespace isrl

#endif  // ISRL_CORE_EA_H_
