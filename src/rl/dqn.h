// Deep Q-Network agent with experience replay and a periodically synchronised
// target network — the learning machinery shared by Algorithms 1–4.
//
// The interactive regret query has a state-dependent action set (the m_h
// candidate pairs differ per utility range), so instead of one output head
// per action the network scores a featurised (state, action) concatenation
// and action selection is an argmax over the candidate features. The
// featurisation itself lives in core/ (EA and AA encode states differently).
#ifndef ISRL_RL_DQN_H_
#define ISRL_RL_DQN_H_

#include <memory>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/vec.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "rl/prioritized_replay.h"
#include "rl/replay.h"

namespace isrl::rl {

/// Optimiser choice for the Q-network update.
enum class OptimizerKind { kSgd, kAdam };

/// Regression loss for the TD fit.
enum class LossKind { kMse, kHuber };

/// Hyper-parameters; defaults are the paper's §V settings. The fields below
/// the separator are opt-in extensions (DESIGN.md §6/§7 ablations) that
/// leave the paper's algorithm untouched when defaulted.
struct DqnOptions {
  size_t hidden_neurons = 64;          ///< 1 hidden layer × 64 (paper)
  nn::Activation activation = nn::Activation::kSelu;  ///< SELU (paper)
  double learning_rate = 0.003;        ///< paper
  double gamma = 0.8;                  ///< discount factor (paper)
  size_t replay_capacity = 5000;       ///< paper
  size_t batch_size = 64;              ///< paper
  size_t target_sync_every = 20;       ///< main-net updates between syncs (paper)
  double reward_constant = 100.0;      ///< terminal reward c (paper)
  double epsilon_start = 0.9;          ///< ε-greedy exploration (paper)
  double epsilon_end = 0.9;            ///< equal to start = constant ε
  size_t epsilon_decay_episodes = 0;
  OptimizerKind optimizer = OptimizerKind::kSgd;  ///< "gradient descent" (paper)
  size_t min_replay_before_update = 64;
  // ---- extensions (default off) ----
  bool double_dqn = false;             ///< decouple argmax (main) from eval (target)
  bool prioritized_replay = false;     ///< proportional PER instead of uniform
  PrioritizedOptions prioritized;      ///< PER knobs when enabled
  LossKind loss = LossKind::kMse;      ///< paper fits MSE; Huber is robust
  double huber_delta = 1.0;            ///< Huber transition point
  /// Reward shaping: cost charged per non-terminal round. The paper's
  /// terminal-only reward c·γ^rounds collapses towards zero on long
  /// episodes (γ=0.8 ⇒ Q ≈ 0.1 after 30 rounds), leaving no ranking signal;
  /// a per-round penalty keeps Q linear in the remaining rounds. Pair with
  /// a discount near 1.
  double step_penalty = 0.0;
};

/// DQN agent over featurised (state, action) inputs.
class DqnAgent {
 public:
  /// `input_dim` is the dimension of the featurised (state, action) vector.
  DqnAgent(size_t input_dim, const DqnOptions& options, Rng& rng);

  /// Deep copy: networks (current weights) and replay contents are copied;
  /// the optimiser is recreated fresh for the copy's parameters, so Adam
  /// moment estimates do NOT carry over. Intended for evaluation-time
  /// clones (core/algorithm.h CloneForEval), where no further training
  /// happens.
  DqnAgent(const DqnAgent& other);
  DqnAgent& operator=(const DqnAgent&) = delete;

  /// Q(s,a;Θ) for one featurised input.
  double QValue(const Vec& state_action);

  /// Q-values of a whole candidate pool in one batched inference pass.
  Vec QValues(const std::vector<Vec>& candidate_features);

  /// Index of the action with the largest main-network Q-value.
  size_t SelectGreedy(const std::vector<Vec>& candidate_features) {
    return QValues(candidate_features).ArgMax();
  }

  /// ε-greedy: uniform-random candidate with probability `epsilon`, greedy
  /// otherwise.
  size_t SelectEpsilonGreedy(const std::vector<Vec>& candidate_features,
                             double epsilon, Rng& rng);

  /// Current ε for episode `episode` under the configured schedule.
  double EpsilonAt(size_t episode) const;

  /// Stores a transition in the replay memory.
  void Remember(Transition t);

  /// One DQN update: sample a batch, fit the main network towards
  /// r + γ·max_{a'} Q̂(s',a';Θ'), and periodically synchronise the target
  /// network. No-op until the replay holds min_replay_before_update
  /// transitions. Returns the batch MSE (0 when skipped). Target computation
  /// and the fit run as blocked-GEMM batches (DESIGN.md §12), bit-identical
  /// to a per-sample loop of Infer/AccumulateRegressionSample calls followed
  /// by one optimiser Step.
  double Update(Rng& rng);

  /// Forces Θ' ← Θ (also done automatically every target_sync_every updates).
  void SyncTarget();

  size_t num_updates() const { return num_updates_; }
  const DqnOptions& options() const { return options_; }
  nn::Network& main_network() { return main_; }
  nn::Network& target_network() { return target_; }
  /// Uniform replay buffer (tracks size even when PER is enabled).
  ReplayMemory& replay() { return replay_; }
  PrioritizedReplayMemory& prioritized_replay() { return prioritized_; }
  size_t input_dim() const { return input_dim_; }

 private:
  /// TD targets for a whole sampled batch under the configured (double-)DQN
  /// rule: stacks every next-candidate row of every transition into one
  /// matrix and runs one target-net (and, for double DQN, one main-net)
  /// batched forward for the per-transition argmax/max.
  Vec TargetsFor(const std::vector<const Transition*>& batch);
  /// Samples a batch from the configured replay, fits the main network to
  /// its TD targets with one optimiser step, and returns the batch MSE.
  double FitSampledBatch(Rng& rng);

  size_t input_dim_;
  DqnOptions options_;
  nn::Network main_;
  nn::Network target_;
  std::unique_ptr<nn::Optimizer> optimizer_;
  ReplayMemory replay_;
  PrioritizedReplayMemory prioritized_;
  size_t num_updates_ = 0;
};

}  // namespace isrl::rl

#endif  // ISRL_RL_DQN_H_
