// The episode engine EA and AA share (internal to core/: only ea.cc and
// aa.cc include it).
//
// Training (Algorithms 1 and 3) and inference (Algorithms 2 and 4) play the
// same round: encode R, build the action space, ask, cut, re-plan. So Train
// drives the algorithm's own serving Session through TrainEpisodes below.
// It differs from inference only in the pick (ε-greedy through the live
// agent instead of greedy through a pinned snapshot) and in the replay
// bookkeeping (DESIGN.md §13). After it come the pieces the two algorithms
// would otherwise each repeat: RlSession, the step-API half of both
// sessions, and the feature, model and restore helpers.
#ifndef ISRL_CORE_EPISODE_ENGINE_H_
#define ISRL_CORE_EPISODE_ENGINE_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "audit/checkers.h"
#include "common/budget.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/algorithm.h"
#include "core/ea.h"
#include "core/snapshot.h"
#include "data/dataset.h"
#include "nn/registry.h"
#include "nn/serialize.h"
#include "rl/dqn.h"

namespace isrl {

/// Algorithms 1 and 3: one ε-greedy training episode per utility vector,
/// each played through a fresh `Algorithm::Session` built with its TrainTag
/// (no model snapshot pinned: picks go through the live agent). Each round
/// runs in the RNG order the trained weights depend on:
///   1. read the session's staged candidate rows;
///   2. pick ε-greedily with the live agent;
///   3. hand the pick to the session;
///   4. post the simulated answer: kFirst iff u·p_i ≥ u·p_j;
///   5. build the transition from what the session re-planned. It is
///      terminal when a certificate or a stall ended the episode; otherwise
///      (the round cap included) it bootstraps from the next round's rows;
///   6. run updates_per_round DQN updates.
/// An episode whose session aborts (AA's LP failing even on H = ∅) records
/// nothing further. `Algorithm` befriends this template.
template <typename Algorithm>
TrainStats TrainEpisodes(Algorithm& algorithm,
                         const std::vector<Vec>& utilities) {
  using Session = typename Algorithm::Session;
  rl::DqnAgent& agent = algorithm.agent_;
  Rng& rng = algorithm.rng_;
  const Dataset& data = algorithm.data_;
  TrainStats stats;
  stats.episodes = utilities.size();
  size_t total_rounds = 0;
  for (const Vec& u : utilities) {
    const double epsilon = agent.EpsilonAt(algorithm.episodes_trained_++);
    Session session(algorithm, typename Session::TrainTag{});
    if (session.Finished() &&
        session.Finish().termination == Termination::kAborted) {
      continue;  // a numerical fluke on the trivial model: skip the episode
    }
    while (!session.Finished()) {
      const Matrix& candidates = session.StagedCandidates();
      const size_t pick = agent.SelectEpsilonGreedy(candidates, epsilon, rng);
      rl::Transition t;
      t.state_action = candidates.RowVec(pick);
      const Question q = session.TakePick(pick);
      session.PostAnswer(Dot(u, data.point(q.i)) >= Dot(u, data.point(q.j))
                             ? Answer::kFirst
                             : Answer::kSecond);
      ++total_rounds;
      if (session.Finished()) {
        const Termination why = session.Finish().termination;
        if (why == Termination::kAborted) break;
        // The round cap ends the episode, not the MDP.
        t.terminal = why != Termination::kBudgetExhausted;
      }
      t.reward = t.terminal ? agent.options().reward_constant
                            : -agent.options().step_penalty;
      if (!t.terminal) {
        const Matrix& next = session.StagedCandidates();
        t.next_candidates.reserve(next.rows());
        for (size_t r = 0; r < next.rows(); ++r) {
          t.next_candidates.push_back(next.RowVec(r));
        }
      }
      agent.Remember(std::move(t));
      for (size_t k = 0; k < algorithm.options_.updates_per_round; ++k) {
        stats.final_loss = agent.Update(rng);
      }
    }
    for (size_t k = 0; k < algorithm.options_.updates_per_episode; ++k) {
      stats.final_loss = agent.Update(rng);
    }
  }
  if (!utilities.empty()) {
    stats.mean_rounds = static_cast<double>(total_rounds) /
                        static_cast<double>(utilities.size());
  }
  // The weights changed: the next session re-snapshots.
  algorithm.live_model_.reset();
  return stats;
}

/// Re-pins the exact model a checkpointed session was saved under: the
/// restore-time provider by `version`, else the caller's explicit pin, else
/// `algorithm`'s live model, always verified against the §14 fingerprint.
template <typename Algorithm>
Result<std::shared_ptr<const nn::ModelSnapshot>> RepinSnapshotModel(
    Algorithm& algorithm, const SessionConfig& config, uint64_t fingerprint,
    uint64_t version) {
  const std::string name = algorithm.name();
  std::shared_ptr<const nn::ModelSnapshot> model;
  if (config.models != nullptr) {
    model = config.models->Pin(version);
    if (model == nullptr && config.model == nullptr) {
      return Status::FailedPrecondition(Format(
          "%s snapshot is pinned to model version %llu, which the "
          "restore-time model provider does not serve",
          name.c_str(), static_cast<unsigned long long>(version)));
    }
  }
  if (model == nullptr) model = config.model;
  if (model == nullptr) model = algorithm.ServingModel();
  if (fingerprint != model->fingerprint()) {
    return Status::FailedPrecondition(Format(
        "%s snapshot is bound to Q-network %016llx but this instance "
        "serves %016llx (retrained or different model)",
        name.c_str(), static_cast<unsigned long long>(fingerprint),
        static_cast<unsigned long long>(model->fingerprint())));
  }
  return model;
}

/// The step-API half of EA's and AA's sessions (DESIGN.md §13): the pinned
/// model, the staged candidate rows, the question in flight, the outcome,
/// and the budget, Rng and trace bindings. `Derived` plays the round itself
/// (its Prepare() stages pending_features_ and sets scoring_pending_) and
/// names a candidate's pair through `Question CandidatePair(size_t) const`.
/// `Algorithm` befriends this template.
template <typename Derived, typename Algorithm>
class RlSession : public InteractionSession {
 public:
  std::optional<SessionQuestion> NextQuestion() override {
    if (finished_) return std::nullopt;
    if (scoring_pending_) {
      // No driver scored the candidates for us: score them here. Same
      // matrix, same weights, same argmax — bit-identical either way.
      TakePick(model_->Score(pending_features_).ArgMax());
    }
    return question_;
  }

  void Cancel() override {
    if (finished_) return;
    // Prepare() already terminated every certificate/stall state, so the
    // session is mid-question: best-so-far, budget semantics.
    End(best_, Termination::kBudgetExhausted);
  }

  bool Finished() const override { return finished_; }

  InteractionResult Finish() override {
    ISRL_CHECK(finished_);
    InteractionResult result = result_;
    result.converged = result.termination == Termination::kConverged;
    return result;
  }

  const Matrix* PendingCandidateFeatures() const override {
    return scoring_pending_ ? &pending_features_ : nullptr;
  }

  const nn::ModelSnapshot* ScoringModel() const override {
    return scoring_pending_ ? model_.get() : nullptr;
  }

  void PostCandidateScores(const double* scores, size_t count) override {
    ISRL_CHECK(scoring_pending_);
    ISRL_CHECK_EQ(count, pending_features_.rows());
    // First-max argmax, exactly Vec::ArgMax over a PredictBatch row — the
    // coalesced scores pick the same action the self-scoring path would.
    size_t pick = 0;
    for (size_t i = 1; i < count; ++i) {
      if (scores[i] > scores[pick]) pick = i;
    }
    TakePick(pick);
  }

  uint64_t ModelVersion() const override {
    return model_ == nullptr ? 0 : model_->version();
  }

  // ---- Training hook (TrainEpisodes). -------------------------------------

  /// The candidate rows staged for this round's pick. They stay staged when
  /// the round cap ends the episode: training bootstraps from them.
  const Matrix& StagedCandidates() const { return pending_features_; }

  /// Takes candidate `pick` as this round's question and returns its pair.
  Question TakePick(size_t pick) {
    const Question q = static_cast<const Derived&>(*this).CandidatePair(pick);
    question_.first = owner_.data_.point(q.i);
    question_.second = owner_.data_.point(q.j);
    question_.pair = q;
    question_.synthetic = false;
    scoring_pending_ = false;
    asking_ = true;
    return q;
  }

 protected:
  /// A live session scoring through `model` (null for training sessions,
  /// which pick through the live agent instead).
  RlSession(Algorithm& owner, const SessionConfig& config,
            std::shared_ptr<const nn::ModelSnapshot> model)
      : owner_(owner),
        trace_(config.trace),
        max_rounds_(
            config.budget.EffectiveMaxRounds(owner.options_.max_rounds)),
        deadline_(Deadline::FromBudget(config.budget)),
        owned_rng_(config.seed ? std::optional<Rng>(Rng(*config.seed))
                               : std::nullopt),
        model_(std::move(model)) {}

  /// The empty shell RestoreSession decodes into (no planning, no Rng
  /// draws).
  RlSession(Algorithm& owner, InteractionTrace* trace)
      : owner_(owner), trace_(trace), max_rounds_(0) {}

  /// Ends the episode with recommendation `best` for reason `why`.
  void End(size_t best, Termination why) {
    result_.best_index = best;
    result_.termination = why;
    result_.seconds += watch_.ElapsedSeconds();
    scoring_pending_ = false;
    asking_ = false;
    finished_ = true;
  }

  /// Writes the prefix both snapshot formats share: the SessionCore, then
  /// the pinned model's identity. Model identity, not model weights: the
  /// §14 fingerprint plus the registry version (0 = unregistered live
  /// model); weights are persisted separately (nn/serialize, nn/registry).
  void EncodeCommon(snapshot::Writer* w) const {
    snapshot::SessionCore core;
    core.algorithm = owner_.name();
    core.data_size = owner_.data_.size();
    core.data_dim = owner_.data_.dim();
    core.result = result_;
    // Fold the live stopwatch into the persisted seconds; a fresh stopwatch
    // starts at restore, so snapshot downtime never counts as algorithm time.
    if (!finished_) core.result.seconds += watch_.ElapsedSeconds();
    core.max_rounds = max_rounds_;
    core.deadline = deadline_;
    core.stage = finished_ ? snapshot::kStageFinished
                           : (asking_ ? snapshot::kStageAsking
                                      : snapshot::kStageScoring);
    core.question = question_;
    core.has_rng = true;
    core.rng = rng();
    core.trace = trace_;  // figure vectors ride along (may be null)
    snapshot::EncodeSessionCore(core, w);
    w->U64(model_->fingerprint());
    w->U64(model_->version());
  }

  /// Reads and validates what EncodeCommon wrote, re-pinning the model,
  /// without touching the session: a failure leaves the shell unusable but
  /// the caller's trace unharmed.
  Status DecodeCommon(snapshot::Reader* r, const SessionConfig& config,
                      snapshot::SessionCore* core,
                      std::shared_ptr<const nn::ModelSnapshot>* model) {
    ISRL_RETURN_IF_ERROR(snapshot::DecodeSessionCore(r, core));
    ISRL_RETURN_IF_ERROR(snapshot::ValidateSessionCore(
        *core, owner_.name(), owner_.data_.size(), owner_.data_.dim()));
    if (!core->has_rng) {
      return Status::InvalidArgument(owner_.name() +
                                     " snapshot: missing rng state");
    }
    const uint64_t fingerprint = r->U64();
    const uint64_t model_version = r->U64();
    if (r->failed()) return Status::Ok();  // the caller's r.status() reports it
    ISRL_ASSIGN_OR_RETURN(*model, RepinSnapshotModel(owner_, config,
                                                     fingerprint,
                                                     model_version));
    return Status::Ok();
  }

  /// Applies a fully validated DecodeCommon result. The caller then
  /// restores its own state and, in the scoring stage, re-stages the
  /// candidate rows.
  void CommitCommon(snapshot::SessionCore* core,
                    std::shared_ptr<const nn::ModelSnapshot> model) {
    result_ = core->result;
    model_ = std::move(model);
    max_rounds_ = static_cast<size_t>(core->max_rounds);
    deadline_ = core->deadline;
    owned_rng_ = core->rng;
    if (core->has_trace && trace_ != nullptr) {
      trace_->RestoreHistory(std::move(core->trace_max_regret),
                             std::move(core->trace_seconds),
                             std::move(core->trace_best_index));
    }
    question_ = core->question;
    finished_ = core->stage == snapshot::kStageFinished;
    asking_ = core->stage == snapshot::kStageAsking;
    scoring_pending_ = false;
    watch_.Restart();
  }

  Rng& rng() { return owned_rng_ ? *owned_rng_ : owner_.rng_; }
  const Rng& rng() const { return owned_rng_ ? *owned_rng_ : owner_.rng_; }

  Algorithm& owner_;
  InteractionTrace* trace_;
  InteractionResult result_;
  Stopwatch watch_;
  size_t max_rounds_;
  Deadline deadline_;
  std::optional<Rng> owned_rng_;
  /// Best-so-far recommendation, returned when the budget ends the episode.
  size_t best_ = 0;

  /// The immutable model snapshot pinned at start (or re-pinned at
  /// restore); every score this session computes goes through it. It never
  /// changes mid-session (DESIGN.md §18).
  std::shared_ptr<const nn::ModelSnapshot> model_;
  Matrix pending_features_;
  SessionQuestion question_;
  bool scoring_pending_ = false;
  bool asking_ = false;
  bool finished_ = false;
};

/// Row-stacked Q-network inputs, one row per candidate action:
/// state ⊕ p_i ⊕ p_j ⊕ (p_i − p_j) ⊕ descriptors(action), where the
/// descriptors are the algorithm's geometric split-quality signals (a
/// std::array). The greedy round scores the whole matrix with one GEMM.
template <typename Action, typename Descriptors>
Matrix StackCandidateFeatures(const Dataset& data, const Vec& state,
                              const std::vector<Action>& actions,
                              size_t input_dim, Descriptors descriptors) {
  const size_t d = data.dim();
  Matrix m(actions.size(), input_dim);
  for (size_t r = 0; r < actions.size(); ++r) {
    const auto extra = descriptors(actions[r]);
    ISRL_CHECK_EQ(state.dim() + 3 * d + extra.size(), input_dim);
    double* row = std::copy(state.raw(), state.raw() + state.dim(), m.row(r));
    const Vec& pi = data.point(actions[r].q.i);
    const Vec& pj = data.point(actions[r].q.j);
    for (size_t k = 0; k < d; ++k) {
      row[k] = pi[k];
      row[d + k] = pj[k];
      row[2 * d + k] = pi[k] - pj[k];
    }
    std::copy(extra.begin(), extra.end(), row + 3 * d);
  }
  return m;
}

/// The live serving snapshot of `agent`'s main network (version 0:
/// unregistered), cached in `*live` and rebuilt whenever the weights differ
/// from it. The weight comparison also catches out-of-band mutation through
/// agent(): a stale snapshot would silently serve old weights.
inline std::shared_ptr<const nn::ModelSnapshot> LiveServingModel(
    rl::DqnAgent& agent, std::shared_ptr<const nn::ModelSnapshot>* live) {
  if (*live == nullptr || !(*live)->SameWeights(agent.main_network())) {
    *live = std::make_shared<const nn::ModelSnapshot>(0, agent.main_network());
  }
  return *live;
}

/// Restores weights written by nn::SaveNetwork into `agent`'s main network
/// (the architecture must match) and synchronises the target network.
inline Status LoadAgentWeights(rl::DqnAgent& agent, const std::string& path) {
  ISRL_ASSIGN_OR_RETURN(nn::Network loaded, nn::LoadNetwork(path));
  std::vector<nn::ParamBlock> theirs = loaded.Params();
  std::vector<nn::ParamBlock> mine = agent.main_network().Params();
  if (theirs.size() != mine.size()) {
    return Status::InvalidArgument("network architecture mismatch");
  }
  for (size_t i = 0; i < mine.size(); ++i) {
    if (mine[i].values->size() != theirs[i].values->size()) {
      return Status::InvalidArgument("network layer shape mismatch");
    }
  }
  agent.main_network().CopyParamsFrom(loaded);
  agent.SyncTarget();
  return Status::Ok();
}

/// Audit at the inference call site: a session served from a NaN-weighted
/// Q-network asks arbitrary questions yet terminates "normally". Checks the
/// network the session will actually score through.
inline void AuditSessionNetwork(rl::DqnAgent& agent,
                                const SessionConfig& config,
                                const char* site) {
  if (!audit::ShouldCheck(audit::Checker::kNnFinite)) return;
  nn::Network& network = config.model != nullptr ? config.model->network()
                                                 : agent.main_network();
  audit::Auditor().Record(audit::Checker::kNnFinite, site,
                          audit::CheckNetworkFinite(network, "main"));
}

/// RestoreSession for both algorithms: unwraps the `kind`/`version` frame,
/// builds an empty Session shell (no planning, no Rng draws) and decodes
/// the payload into it.
template <typename Session, typename Algorithm>
Result<std::unique_ptr<InteractionSession>> RestoreFromFrame(
    Algorithm& algorithm, const char* kind, uint32_t version,
    const std::string& bytes, const SessionConfig& config) {
  ISRL_ASSIGN_OR_RETURN(std::string payload,
                        snapshot::UnwrapFrame(kind, version, bytes));
  auto session = std::make_unique<Session>(algorithm, config.trace,
                                           typename Session::RestoreTag{});
  ISRL_RETURN_IF_ERROR(session->Decode(payload, config));
  return std::unique_ptr<InteractionSession>(std::move(session));
}

}  // namespace isrl

#endif  // ISRL_CORE_EPISODE_ENGINE_H_
