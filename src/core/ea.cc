#include "core/ea.h"

#include "nn/serialize.h"

#include <algorithm>
#include <optional>

#include "audit/audit.h"
#include "audit/checkers.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/snapshot.h"
#include "core/terminal.h"
#include "geometry/halfspace.h"

namespace isrl {

namespace {
constexpr char kEaSnapshotKind[] = "ea-session";
// v2 added the pinned model's registry version next to its fingerprint.
// v3 stores the session Rng as raw engine words (snapshot::EncodeRng).
constexpr uint32_t kEaSnapshotVersion = 3;
}  // namespace

Ea::Ea(const Dataset& data, const EaOptions& options)
    : data_(data),
      options_(options),
      rng_(options.seed),
      input_dim_(EaStateDim(data.dim(), options.state) + 3 * data.dim() +
                 kActionDescriptors),
      agent_(input_dim_, options.dqn, rng_) {
  ISRL_CHECK(!data.empty());
  ISRL_CHECK_GT(options.epsilon, 0.0);
  ISRL_CHECK_LT(options.epsilon, 1.0);
}

Ea::Ea(const Ea& other)
    : data_(other.data_),
      options_(other.options_),
      rng_(other.rng_),
      input_dim_(other.input_dim_),
      agent_(other.agent_),
      episodes_trained_(other.episodes_trained_) {}

std::shared_ptr<const nn::ModelSnapshot> Ea::ServingModel() {
  // The weight comparison also catches out-of-band mutation through
  // agent(): a stale snapshot would silently serve old weights.
  if (live_model_ == nullptr ||
      !live_model_->SameWeights(agent_.main_network())) {
    live_model_ =
        std::make_shared<const nn::ModelSnapshot>(0, agent_.main_network());
  }
  return live_model_;
}

Ea::RoundPlan Ea::PlanRound(const Polyhedron& range, Rng& rng) {
  RoundPlan plan;
  if (range.IsEmpty()) {
    // Callers keep R non-empty (TryCut); an empty R here is a numeric
    // degeneracy — stall instead of aborting.
    plan.stalled = true;
    return plan;
  }
  // Lemma 6 first: a single terminal polyhedron over the extreme vectors
  // certifies termination.
  if (IsTerminalRange(data_, range.vertices(), options_.epsilon,
                      &plan.winner)) {
    plan.terminal = true;
    return plan;
  }
  EaActionSpace space = BuildEaActionSpace(data_, range, options_.epsilon,
                                           options_.actions, rng);
  if (space.actions.empty()) {
    if (space.winners.empty()) {
      // Degenerate data (no utility vector of V had a positive top score):
      // no certificate and no question can make progress.
      plan.stalled = true;
      return plan;
    }
    // A single winner covered all of V ⊇ E — also a valid terminal
    // certificate (coverage of every extreme vector implies coverage of R
    // by convexity); return that winner.
    plan.terminal = true;
    plan.winner = space.winners.front();
    return plan;
  }
  plan.actions = std::move(space.actions);
  return plan;
}

Vec Ea::FeaturizeAction(const EaAction& action) const {
  const Vec& pi = data_.point(action.q.i);
  const Vec& pj = data_.point(action.q.j);
  Vec f = pi;
  f.Append(pj);
  f.Append(pi - pj);
  // Geometric descriptors: the split-quality signals the policy ranks on.
  f.PushBack(action.balance);
  f.PushBack(action.center_dist);
  return f;
}

std::vector<Vec> Ea::FeaturizeCandidates(
    const Vec& state, const std::vector<EaAction>& actions) const {
  std::vector<Vec> out;
  out.reserve(actions.size());
  for (const EaAction& action : actions) {
    out.push_back(Concat(state, FeaturizeAction(action)));
  }
  return out;
}

Matrix Ea::FeaturizeCandidatesMatrix(
    const Vec& state, const std::vector<EaAction>& actions) const {
  Matrix m(actions.size(), input_dim_);
  for (size_t r = 0; r < actions.size(); ++r) {
    double* row = m.row(r);
    std::copy(state.raw(), state.raw() + state.dim(), row);
    const Vec f = FeaturizeAction(actions[r]);
    ISRL_CHECK_EQ(state.dim() + f.dim(), input_dim_);
    std::copy(f.raw(), f.raw() + f.dim(), row + state.dim());
  }
  return m;
}

TrainStats Ea::Train(const std::vector<Vec>& training_utilities) {
  TrainStats stats;
  stats.episodes = training_utilities.size();
  size_t total_rounds = 0;
  double last_loss = 0.0;

  for (const Vec& u : training_utilities) {
    const double epsilon_greedy = agent_.EpsilonAt(episodes_trained_);
    Polyhedron range = Polyhedron::UnitSimplex(data_.dim());
    RoundPlan plan = PlanRound(range, rng_);
    Vec state = EncodeEaState(range, options_.state);

    size_t rounds = 0;
    while (!plan.terminal && !plan.stalled && rounds < options_.max_rounds) {
      std::vector<Vec> features = FeaturizeCandidates(state, plan.actions);
      size_t pick = agent_.SelectEpsilonGreedy(features, epsilon_greedy, rng_);
      const Question q = plan.actions[pick].q;

      // Simulated answer (Algorithm 1 lines 9-12): prefer p_i iff
      // u·p_i ≥ u·p_j, then keep the matching half-space.
      const bool prefers_i = Dot(u, data_.point(q.i)) >= Dot(u, data_.point(q.j));
      const Vec& winner = data_.point(prefers_i ? q.i : q.j);
      const Vec& loser = data_.point(prefers_i ? q.j : q.i);
      range.Cut(PreferenceHalfspace(winner, loser));
      ++rounds;
      if (range.IsEmpty()) break;  // numeric degeneracy guard

      RoundPlan next_plan = PlanRound(range, rng_);
      Vec next_state = EncodeEaState(range, options_.state);

      const bool episode_over = next_plan.terminal || next_plan.stalled;
      rl::Transition t;
      t.state_action = std::move(features[pick]);
      t.terminal = episode_over;
      t.reward = episode_over
                     ? agent_.options().reward_constant
                     : -agent_.options().step_penalty;
      if (!episode_over) {
        t.next_candidates = FeaturizeCandidates(next_state, next_plan.actions);
      }
      agent_.Remember(std::move(t));
      for (size_t k = 0; k < options_.updates_per_round; ++k) {
        last_loss = agent_.Update(rng_);
      }

      plan = std::move(next_plan);
      state = std::move(next_state);
    }
    for (size_t k = 0; k < options_.updates_per_episode; ++k) {
      last_loss = agent_.Update(rng_);
    }
    total_rounds += rounds;
    ++episodes_trained_;
  }

  stats.mean_rounds = training_utilities.empty()
                          ? 0.0
                          : static_cast<double>(total_rounds) /
                                static_cast<double>(training_utilities.size());
  stats.final_loss = last_loss;
  live_model_.reset();  // weights changed; the next session re-snapshots
  return stats;
}

// Algorithm 2 inverted into a sans-IO state machine (DESIGN.md §13). The
// per-round sequence of the old blocking loop — guard, deadline, score,
// ask, cut, re-plan, record — is preserved exactly, split across the step
// API: Prepare() is the loop top (guards + candidate featurisation),
// NextQuestion()/PostCandidateScores() is the greedy pick, PostAnswer() is
// the loop body. Every geometric/RNG operation runs in the original order,
// so stepped episodes are bit-identical to Interact().
class Ea::Session final : public InteractionSession {
 public:
  Session(Ea& owner, const SessionConfig& config)
      : owner_(owner),
        trace_(config.trace),
        max_rounds_(config.budget.EffectiveMaxRounds(owner.options_.max_rounds)),
        deadline_(Deadline::FromBudget(config.budget)),
        owned_rng_(config.seed ? std::optional<Rng>(Rng(*config.seed))
                               : std::nullopt),
        range_(Polyhedron::UnitSimplex(owner.data_.dim())) {
    model_ = config.model != nullptr ? config.model : owner.ServingModel();
    plan_ = owner_.PlanRound(range_, rng());
    state_ = EncodeEaState(range_, owner_.options_.state);
    fallback_best_ = owner_.data_.TopIndex(range_.Centroid());
    Prepare();
  }

  std::optional<SessionQuestion> NextQuestion() override {
    if (finished_) return std::nullopt;
    if (scoring_pending_) {
      // No driver scored the candidates for us: score them here. Same
      // matrix, same weights, same argmax — bit-identical either way.
      TakePick(model_->Score(pending_features_).ArgMax());
    }
    return question_;
  }

  void PostAnswer(Answer answer) override {
    ISRL_CHECK(asking_);
    asking_ = false;
    ++result_.rounds;
    if (answer == Answer::kNoAnswer) {
      // Timed-out question: learn nothing, re-plan (the action sampler is
      // stochastic, so the next round asks a fresh set of questions).
      ++result_.no_answers;
      plan_ = owner_.PlanRound(range_, rng());
      RecordRound();
      Prepare();
      return;
    }
    const bool prefers_i = answer == Answer::kFirst;
    const Question q = question_.pair;
    const Vec& winner = owner_.data_.point(prefers_i ? q.i : q.j);
    const Vec& loser = owner_.data_.point(prefers_i ? q.j : q.i);
    if (!range_.TryCut(PreferenceHalfspace(winner, loser))) {
      // The answer contradicts everything learned so far (inconsistent
      // noisy user): dropping the minimal most-recent suffix of conflicting
      // half-spaces — here exactly this one, since R was non-empty before —
      // keeps the session alive.
      ++result_.dropped_answers;
      plan_ = owner_.PlanRound(range_, rng());
      RecordRound();
      Prepare();
      return;
    }

    plan_ = owner_.PlanRound(range_, rng());
    if (!plan_.terminal && !plan_.stalled) {
      state_ = EncodeEaState(range_, owner_.options_.state);
    }
    fallback_best_ = plan_.terminal
                         ? plan_.winner
                         : owner_.data_.TopIndex(range_.Centroid());
    RecordRound();
    Prepare();
  }

  void Cancel() override {
    if (finished_) return;
    // Prepare() already terminated every certificate/stall state, so the
    // session is mid-question: best-so-far, budget semantics.
    result_.best_index = fallback_best_;
    result_.termination = Termination::kBudgetExhausted;
    result_.seconds += watch_.ElapsedSeconds();
    scoring_pending_ = false;
    asking_ = false;
    finished_ = true;
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

  std::optional<Vec> HarvestUtility() const override {
    if (range_.IsEmpty()) return std::nullopt;
    return range_.Centroid();
  }

  // ---- Durability (DESIGN.md §14). ---------------------------------------

  /// Tag ctor for RestoreSession: builds an empty shell (no planning, no
  /// Rng draws) that Decode() then fills from snapshot bytes.
  struct RestoreTag {};
  Session(Ea& owner, InteractionTrace* trace, RestoreTag)
      : owner_(owner),
        trace_(trace),
        max_rounds_(0),
        owned_rng_(std::nullopt),
        range_(Polyhedron::UnitSimplex(owner.data_.dim())) {}

  Result<std::string> SaveState() const override {
    snapshot::Writer w;
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
    snapshot::EncodeSessionCore(core, &w);
    // Model identity, not model weights: the pinned snapshot's §14
    // fingerprint plus its registry version (0 = unregistered live model);
    // weights are persisted separately (nn/serialize, nn/registry).
    w.U64(model_->fingerprint());
    w.U64(model_->version());
    snapshot::EncodePolyhedron(range_, &w);
    w.Bool(plan_.terminal);
    w.Bool(plan_.stalled);
    w.U64(plan_.winner);
    w.U64(plan_.actions.size());
    for (const EaAction& a : plan_.actions) {
      w.U64(a.q.i);
      w.U64(a.q.j);
      w.F64(a.balance);
      w.F64(a.center_dist);
    }
    snapshot::EncodeVec(state_, &w);
    w.U64(fallback_best_);
    return snapshot::WrapFrame(kEaSnapshotKind, kEaSnapshotVersion, w.Take());
  }

  /// Fills the shell from an unwrapped payload; every failure leaves the
  /// shell unusable but the process unharmed (the caller discards it).
  Status Decode(const std::string& payload, const SessionConfig& config) {
    snapshot::Reader r(payload);
    snapshot::SessionCore core;
    ISRL_RETURN_IF_ERROR(snapshot::DecodeSessionCore(&r, &core));
    ISRL_RETURN_IF_ERROR(snapshot::ValidateSessionCore(
        core, owner_.name(), owner_.data_.size(), owner_.data_.dim()));
    if (!core.has_rng) {
      return Status::InvalidArgument("EA snapshot: missing rng state");
    }
    const uint64_t fingerprint = r.U64();
    const uint64_t model_version = r.U64();
    // Re-pin the exact model the session was saved under: the restore-time
    // provider by version, else the caller's explicit pin, else this
    // instance's live model — always verified against the §14 fingerprint.
    std::shared_ptr<const nn::ModelSnapshot> model;
    if (!r.failed()) {
      if (config.models != nullptr) {
        model = config.models->Pin(model_version);
        if (model == nullptr && config.model == nullptr) {
          return Status::FailedPrecondition(Format(
              "EA snapshot is pinned to model version %llu, which the "
              "restore-time model provider does not serve",
              static_cast<unsigned long long>(model_version)));
        }
      }
      if (model == nullptr) model = config.model;
      if (model == nullptr) model = owner_.ServingModel();
      if (fingerprint != model->fingerprint()) {
        return Status::FailedPrecondition(Format(
            "EA snapshot is bound to Q-network %016llx but this instance "
            "serves %016llx (retrained or different model)",
            static_cast<unsigned long long>(fingerprint),
            static_cast<unsigned long long>(model->fingerprint())));
      }
    }
    Result<Polyhedron> range = snapshot::DecodePolyhedron(&r);
    ISRL_RETURN_IF_ERROR(range.status());
    const size_t n = owner_.data_.size();
    if (range->dim() != owner_.data_.dim()) {
      return Status::InvalidArgument(
          "EA snapshot: polyhedron dimension does not match the dataset");
    }
    RoundPlan plan;
    plan.terminal = r.Bool();
    plan.stalled = r.Bool();
    plan.winner = static_cast<size_t>(r.U64());
    const uint64_t num_actions = r.U64();
    if (!r.failed() && num_actions > snapshot::kMaxElements) {
      return Status::InvalidArgument("EA snapshot: implausible action count");
    }
    for (uint64_t i = 0; i < num_actions && !r.failed(); ++i) {
      EaAction a;
      a.q.i = static_cast<size_t>(r.U64());
      a.q.j = static_cast<size_t>(r.U64());
      a.balance = r.FiniteF64();
      a.center_dist = r.FiniteF64();
      if (!r.failed() && (a.q.i >= n || a.q.j >= n)) {
        return Status::InvalidArgument(
            "EA snapshot: action index out of dataset range");
      }
      plan.actions.push_back(a);
    }
    Vec state;
    ISRL_RETURN_IF_ERROR(snapshot::DecodeVec(&r, &state));
    const uint64_t fallback = r.U64();
    ISRL_RETURN_IF_ERROR(r.status());
    if (!r.AtEnd()) {
      return Status::InvalidArgument("EA snapshot: trailing payload bytes");
    }
    if (plan.winner >= n || fallback >= n) {
      return Status::InvalidArgument(
          "EA snapshot: recommendation index out of dataset range");
    }
    const size_t expected_state_dim =
        owner_.input_dim_ - 3 * owner_.data_.dim() - Ea::kActionDescriptors;
    if (state.dim() != expected_state_dim) {
      return Status::InvalidArgument(
          "EA snapshot: state vector dimension mismatch");
    }
    if (core.stage == snapshot::kStageAsking &&
        (core.question.pair.i >= n || core.question.pair.j >= n)) {
      return Status::InvalidArgument(
          "EA snapshot: in-flight question index out of dataset range");
    }
    if (core.stage == snapshot::kStageScoring &&
        (plan.terminal || plan.stalled || plan.actions.empty())) {
      return Status::InvalidArgument(
          "EA snapshot: scoring stage without staged candidates");
    }

    result_ = core.result;
    model_ = std::move(model);
    max_rounds_ = static_cast<size_t>(core.max_rounds);
    deadline_ = core.deadline;
    owned_rng_ = core.rng;
    if (core.has_trace && trace_ != nullptr) {
      trace_->RestoreHistory(std::move(core.trace_max_regret),
                             std::move(core.trace_seconds),
                             std::move(core.trace_best_index));
    }
    range_ = std::move(range.value());
    plan_ = std::move(plan);
    state_ = std::move(state);
    fallback_best_ = static_cast<size_t>(fallback);
    question_ = core.question;
    finished_ = core.stage == snapshot::kStageFinished;
    asking_ = core.stage == snapshot::kStageAsking;
    scoring_pending_ = false;
    if (core.stage == snapshot::kStageScoring) {
      // FeaturizeCandidatesMatrix is a pure function of (state, actions), so
      // recomputing it reproduces the exact rows the saved session staged —
      // the greedy argmax (self-scored or coalesced) picks the same action.
      pending_features_ =
          owner_.FeaturizeCandidatesMatrix(state_, plan_.actions);
      scoring_pending_ = true;
    }
    watch_.Restart();
    return Status::Ok();
  }

 private:
  /// The top of the old blocking loop: evaluate the loop guard and the
  /// deadline, then stage the candidate features for scoring.
  void Prepare() {
    if (plan_.terminal || plan_.stalled || result_.rounds >= max_rounds_) {
      Terminate();
      return;
    }
    if (deadline_.Expired()) {
      Terminate();
      return;
    }
    pending_features_ =
        owner_.FeaturizeCandidatesMatrix(state_, plan_.actions);
    scoring_pending_ = true;
  }

  void TakePick(size_t pick) {
    const Question q = plan_.actions[pick].q;
    question_.first = owner_.data_.point(q.i);
    question_.second = owner_.data_.point(q.j);
    question_.pair = q;
    question_.synthetic = false;
    scoring_pending_ = false;
    asking_ = true;
  }

  void RecordRound() {
    if (trace_ == nullptr) return;
    const double elapsed = watch_.ElapsedSeconds();
    std::vector<Vec> consistent;
    if (!range_.IsEmpty()) {
      consistent.reserve(trace_->regret_samples());
      for (size_t s = 0; s < trace_->regret_samples(); ++s) {
        consistent.push_back(range_.SampleInterior(trace_->rng()));
      }
    }
    trace_->Record(fallback_best_, consistent, elapsed);
    watch_.Restart();  // exclude trace bookkeeping from algorithm time
    result_.seconds += elapsed;
  }

  void Terminate() {
    result_.best_index = plan_.terminal ? plan_.winner : fallback_best_;
    if (plan_.terminal) {
      result_.termination = result_.dropped_answers > 0
                                ? Termination::kDegraded
                                : Termination::kConverged;
    } else if (plan_.stalled) {
      result_.termination = Termination::kDegraded;
    } else {
      result_.termination = Termination::kBudgetExhausted;
    }
    result_.seconds += watch_.ElapsedSeconds();
    scoring_pending_ = false;
    asking_ = false;
    finished_ = true;
  }

  Rng& rng() { return owned_rng_ ? *owned_rng_ : owner_.rng_; }
  const Rng& rng() const { return owned_rng_ ? *owned_rng_ : owner_.rng_; }

  Ea& owner_;
  InteractionTrace* trace_;
  InteractionResult result_;
  Stopwatch watch_;
  size_t max_rounds_;
  Deadline deadline_;
  std::optional<Rng> owned_rng_;

  Polyhedron range_;
  RoundPlan plan_;
  Vec state_;
  size_t fallback_best_ = 0;

  /// The immutable model snapshot pinned at start (or re-pinned at
  /// restore); every score this session computes goes through it.
  std::shared_ptr<const nn::ModelSnapshot> model_;
  Matrix pending_features_;
  SessionQuestion question_;
  bool scoring_pending_ = false;
  bool asking_ = false;
  bool finished_ = false;
};

std::unique_ptr<InteractionSession> Ea::StartSession(
    const SessionConfig& config) {
  // Audit at the inference call site: a session served from a NaN-weighted
  // Q-network asks arbitrary questions yet terminates "normally". Check the
  // network the session will actually score through.
  if (audit::ShouldCheck(audit::Checker::kNnFinite)) {
    nn::Network& network = config.model != nullptr ? config.model->network()
                                                   : agent_.main_network();
    audit::Auditor().Record(audit::Checker::kNnFinite, "Ea.StartSession",
                            audit::CheckNetworkFinite(network, "main"));
  }
  return std::make_unique<Session>(*this, config);
}

Result<std::unique_ptr<InteractionSession>> Ea::RestoreSession(
    const std::string& bytes, const SessionConfig& config) {
  ISRL_ASSIGN_OR_RETURN(
      std::string payload,
      snapshot::UnwrapFrame(kEaSnapshotKind, kEaSnapshotVersion, bytes));
  auto session =
      std::make_unique<Session>(*this, config.trace, Session::RestoreTag{});
  ISRL_RETURN_IF_ERROR(session->Decode(payload, config));
  return std::unique_ptr<InteractionSession>(std::move(session));
}

Status Ea::SaveAgent(const std::string& path) {
  return nn::SaveNetwork(agent_.main_network(), path);
}

Status Ea::LoadAgent(const std::string& path) {
  ISRL_ASSIGN_OR_RETURN(nn::Network loaded, nn::LoadNetwork(path));
  std::vector<nn::ParamBlock> theirs = loaded.Params();
  std::vector<nn::ParamBlock> mine = agent_.main_network().Params();
  if (theirs.size() != mine.size()) {
    return Status::InvalidArgument("network architecture mismatch");
  }
  for (size_t i = 0; i < mine.size(); ++i) {
    if (mine[i].values->size() != theirs[i].values->size()) {
      return Status::InvalidArgument("network layer shape mismatch");
    }
  }
  agent_.main_network().CopyParamsFrom(loaded);
  agent_.SyncTarget();
  live_model_.reset();  // weights changed; the next session re-snapshots
  return Status::Ok();
}

}  // namespace isrl
