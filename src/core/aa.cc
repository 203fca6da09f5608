#include "core/aa.h"

#include "nn/serialize.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "audit/audit.h"
#include "audit/checkers.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/snapshot.h"
#include "geometry/hit_and_run.h"

namespace isrl {

namespace {
constexpr char kAaSnapshotKind[] = "aa-session";
// v2 added the pinned model's registry version next to its fingerprint.
// v3 stores the session Rng as raw engine words (snapshot::EncodeRng).
constexpr uint32_t kAaSnapshotVersion = 3;
}  // namespace

Aa::Aa(const Dataset& data, const AaOptions& options)
    : data_(data),
      options_(options),
      rng_(options.seed),
      input_dim_(AaStateDim(data.dim()) + 3 * data.dim() + kActionDescriptors),
      agent_(input_dim_, options.dqn, rng_) {
  ISRL_CHECK(!data.empty());
  ISRL_CHECK_GT(options.epsilon, 0.0);
  ISRL_CHECK_LT(options.epsilon, 1.0);
}

Aa::Aa(const Aa& other)
    : data_(other.data_),
      options_(other.options_),
      rng_(other.rng_),
      input_dim_(other.input_dim_),
      agent_(other.agent_),
      episodes_trained_(other.episodes_trained_) {}

std::shared_ptr<const nn::ModelSnapshot> Aa::ServingModel() {
  // The weight comparison also catches out-of-band mutation through
  // agent(): a stale snapshot would silently serve old weights.
  if (live_model_ == nullptr ||
      !live_model_->SameWeights(agent_.main_network())) {
    live_model_ =
        std::make_shared<const nn::ModelSnapshot>(0, agent_.main_network());
  }
  return live_model_;
}

double Aa::StopDistance() const {
  return 2.0 * std::sqrt(static_cast<double>(data_.dim())) * options_.epsilon;
}

Vec Aa::FeaturizeAction(const AaAction& action) const {
  const Vec& pi = data_.point(action.q.i);
  const Vec& pj = data_.point(action.q.j);
  Vec f = pi;
  f.Append(pj);
  f.Append(pi - pj);
  // Geometric descriptors: the decision-relevant second-order quantities the
  // network would otherwise have to learn from raw coordinates.
  f.PushBack(action.balance);
  f.PushBack(action.alignment);
  f.PushBack(action.center_dist);
  return f;
}

std::vector<Vec> Aa::FeaturizeCandidates(
    const Vec& state, const std::vector<AaAction>& actions) const {
  std::vector<Vec> out;
  out.reserve(actions.size());
  for (const AaAction& action : actions) {
    out.push_back(Concat(state, FeaturizeAction(action)));
  }
  return out;
}

Matrix Aa::FeaturizeCandidatesMatrix(
    const Vec& state, const std::vector<AaAction>& actions) const {
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

size_t Aa::MidpointBest(const AaGeometry& geometry) const {
  Vec mid = (geometry.e_min + geometry.e_max) / 2.0;
  return data_.TopIndex(mid);
}

TrainStats Aa::Train(const std::vector<Vec>& training_utilities) {
  TrainStats stats;
  stats.episodes = training_utilities.size();
  size_t total_rounds = 0;
  double last_loss = 0.0;
  const double stop_dist = StopDistance();

  for (const Vec& u : training_utilities) {
    const double epsilon_greedy = agent_.EpsilonAt(episodes_trained_);
    std::vector<LearnedHalfspace> h;
    AaGeometry geo = ComputeAaGeometry(data_.dim(), h);
    if (!geo.feasible) {
      // The empty-H geometry is the unit simplex; an LP failure here is a
      // numerical fluke. Skip the episode rather than aborting training.
      ++episodes_trained_;
      continue;
    }
    Vec state = EncodeAaState(geo);
    std::vector<AaAction> actions =
        BuildAaActionSpace(data_, h, geo, options_.actions, rng_);

    size_t rounds = 0;
    while (Distance(geo.e_min, geo.e_max) > stop_dist && !actions.empty() &&
           rounds < options_.max_rounds) {
      std::vector<Vec> features = FeaturizeCandidates(state, actions);
      size_t pick = agent_.SelectEpsilonGreedy(features, epsilon_greedy, rng_);
      const Question q = actions[pick].q;

      const bool prefers_i =
          Dot(u, data_.point(q.i)) >= Dot(u, data_.point(q.j));
      LearnedHalfspace lh;
      lh.winner = prefers_i ? q.i : q.j;
      lh.loser = prefers_i ? q.j : q.i;
      lh.h = PreferenceHalfspace(data_.point(lh.winner), data_.point(lh.loser));
      h.push_back(std::move(lh));
      ++rounds;

      AaGeometry next_geo = ComputeAaGeometry(data_.dim(), h);
      if (!next_geo.feasible) break;  // cannot happen with consistent answers
      Vec next_state = EncodeAaState(next_geo);
      bool terminal = Distance(next_geo.e_min, next_geo.e_max) <= stop_dist;
      std::vector<AaAction> next_actions;
      if (!terminal) {
        next_actions =
            BuildAaActionSpace(data_, h, next_geo, options_.actions, rng_);
        if (next_actions.empty()) terminal = true;  // no splitting pair left
      }

      rl::Transition t;
      t.state_action = std::move(features[pick]);
      t.terminal = terminal;
      t.reward = terminal ? agent_.options().reward_constant
                          : -agent_.options().step_penalty;
      if (!terminal) {
        t.next_candidates = FeaturizeCandidates(next_state, next_actions);
      }
      agent_.Remember(std::move(t));
      for (size_t k = 0; k < options_.updates_per_round; ++k) {
        last_loss = agent_.Update(rng_);
      }

      geo = std::move(next_geo);
      state = std::move(next_state);
      actions = std::move(next_actions);
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

// Algorithm 4 inverted into a sans-IO state machine (DESIGN.md §13). Same
// structure as Ea::Session: Prepare() is the old loop top, PostAnswer() the
// loop body, with every LP/RNG call in the original order so stepped
// episodes are bit-identical to Interact().
class Aa::Session final : public InteractionSession {
 public:
  Session(Aa& owner, const SessionConfig& config)
      : owner_(owner),
        trace_(config.trace),
        stop_dist_(owner.StopDistance()),
        max_rounds_(config.budget.EffectiveMaxRounds(owner.options_.max_rounds)),
        max_lp_(config.budget.max_lp_iterations),
        deadline_(Deadline::FromBudget(config.budget)),
        owned_rng_(config.seed ? std::optional<Rng>(Rng(*config.seed))
                               : std::nullopt) {
    model_ = config.model != nullptr ? config.model : owner.ServingModel();
    geo_ = ComputeAaGeometry(owner_.data_.dim(), h_, max_lp_);
    if (!geo_.feasible) {
      // The empty-H geometry is the unit simplex itself; failure means the
      // LP budget is too tight even for the trivial model. Recommend
      // something sensible and report the abort instead of crashing.
      const size_t d = owner_.data_.dim();
      result_.best_index = owner_.data_.TopIndex(Vec(d, 1.0 / d));
      result_.termination = Termination::kAborted;
      result_.status = Status::Internal("initial AA geometry LP failed");
      result_.seconds = watch_.ElapsedSeconds();
      finished_ = true;
      return;
    }
    state_ = EncodeAaState(geo_);
    actions_ = BuildAaActionSpace(owner_.data_, h_, geo_,
                                  owner_.options_.actions, rng());
    best_ = owner_.MidpointBest(geo_);
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
      // Timed-out question: learn nothing; re-sample the action pool so the
      // next round asks a different question.
      ++result_.no_answers;
      actions_ = BuildAaActionSpace(owner_.data_, h_, geo_,
                                    owner_.options_.actions, rng());
      RecordRound({});
      Prepare();
      return;
    }
    const bool prefers_i = answer == Answer::kFirst;
    const Question q = question_.pair;
    LearnedHalfspace lh;
    lh.winner = prefers_i ? q.i : q.j;
    lh.loser = prefers_i ? q.j : q.i;
    lh.h = PreferenceHalfspace(owner_.data_.point(lh.winner),
                               owner_.data_.point(lh.loser));
    h_.push_back(std::move(lh));

    AaGeometry next_geo = ComputeAaGeometry(owner_.data_.dim(), h_, max_lp_);
    if (!next_geo.feasible) {
      // Contradictory answers (noisy user): H has no common utility vector.
      // Drop the minimal most-recent suffix of half-spaces that restores
      // feasibility and continue from the reduced H.
      while (!h_.empty() && !next_geo.feasible) {
        h_.pop_back();
        ++result_.dropped_answers;
        next_geo = ComputeAaGeometry(owner_.data_.dim(), h_, max_lp_);
      }
      if (!next_geo.feasible) {
        // Even H = ∅ failed: the LP itself is broken. Abort gracefully.
        result_.best_index = best_;
        result_.termination = Termination::kAborted;
        result_.status = Status::Internal("AA geometry LP failed on empty H");
        result_.seconds += watch_.ElapsedSeconds();
        RecordRound({});
        finished_ = true;
        return;
      }
    }
    geo_ = std::move(next_geo);
    state_ = EncodeAaState(geo_);
    actions_ = BuildAaActionSpace(owner_.data_, h_, geo_,
                                  owner_.options_.actions, rng());
    best_ = owner_.MidpointBest(geo_);

    if (trace_ != nullptr) {
      std::vector<Halfspace> cuts;
      cuts.reserve(h_.size());
      for (const LearnedHalfspace& learned : h_) cuts.push_back(learned.h);
      std::vector<Vec> consistent = HitAndRunSample(
          cuts, geo_.inner.center, trace_->regret_samples(), trace_->rng());
      RecordRound(consistent);
    }
    Prepare();
  }

  void Cancel() override {
    if (finished_) return;
    result_.best_index = best_;
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
    if (!geo_.feasible) return std::nullopt;
    return (geo_.e_min + geo_.e_max) / 2.0;
  }

  // ---- Durability (DESIGN.md §14). ---------------------------------------

  /// Tag ctor for RestoreSession (see Ea::Session::RestoreTag).
  struct RestoreTag {};
  Session(Aa& owner, InteractionTrace* trace, RestoreTag)
      : owner_(owner),
        trace_(trace),
        stop_dist_(owner.StopDistance()),
        max_rounds_(0),
        max_lp_(0),
        owned_rng_(std::nullopt) {}

  Result<std::string> SaveState() const override {
    snapshot::Writer w;
    snapshot::SessionCore core;
    core.algorithm = owner_.name();
    core.data_size = owner_.data_.size();
    core.data_dim = owner_.data_.dim();
    core.result = result_;
    if (!finished_) core.result.seconds += watch_.ElapsedSeconds();
    core.max_rounds = max_rounds_;
    core.deadline = deadline_;
    core.stage = finished_ ? snapshot::kStageFinished
                           : (asking_ ? snapshot::kStageAsking
                                      : snapshot::kStageScoring);
    core.question = question_;
    core.has_rng = true;
    core.rng = rng();
    core.trace = trace_;
    snapshot::EncodeSessionCore(core, &w);
    w.U64(model_->fingerprint());
    w.U64(model_->version());
    w.U64(max_lp_);
    w.U64(h_.size());
    for (const LearnedHalfspace& lh : h_) {
      snapshot::EncodeLearnedHalfspace(lh, &w);
    }
    w.Bool(geo_.feasible);
    snapshot::EncodeVec(geo_.inner.center, &w);
    w.F64(geo_.inner.radius);
    snapshot::EncodeVec(geo_.e_min, &w);
    snapshot::EncodeVec(geo_.e_max, &w);
    snapshot::EncodeVec(state_, &w);
    w.U64(actions_.size());
    for (const AaAction& a : actions_) {
      w.U64(a.q.i);
      w.U64(a.q.j);
      w.F64(a.balance);
      w.F64(a.alignment);
      w.F64(a.center_dist);
    }
    w.U64(best_);
    return snapshot::WrapFrame(kAaSnapshotKind, kAaSnapshotVersion, w.Take());
  }

  Status Decode(const std::string& payload, const SessionConfig& config) {
    snapshot::Reader r(payload);
    snapshot::SessionCore core;
    ISRL_RETURN_IF_ERROR(snapshot::DecodeSessionCore(&r, &core));
    ISRL_RETURN_IF_ERROR(snapshot::ValidateSessionCore(
        core, owner_.name(), owner_.data_.size(), owner_.data_.dim()));
    if (!core.has_rng) {
      return Status::InvalidArgument("AA snapshot: missing rng state");
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
              "AA snapshot is pinned to model version %llu, which the "
              "restore-time model provider does not serve",
              static_cast<unsigned long long>(model_version)));
        }
      }
      if (model == nullptr) model = config.model;
      if (model == nullptr) model = owner_.ServingModel();
      if (fingerprint != model->fingerprint()) {
        return Status::FailedPrecondition(Format(
            "AA snapshot is bound to Q-network %016llx but this instance "
            "serves %016llx (retrained or different model)",
            static_cast<unsigned long long>(fingerprint),
            static_cast<unsigned long long>(model->fingerprint())));
      }
    }
    const size_t n = owner_.data_.size();
    const size_t d = owner_.data_.dim();
    const uint64_t max_lp = r.U64();
    const uint64_t num_h = r.U64();
    if (!r.failed() && num_h > snapshot::kMaxElements) {
      return Status::InvalidArgument("AA snapshot: implausible H size");
    }
    std::vector<LearnedHalfspace> h;
    for (uint64_t i = 0; i < num_h && !r.failed(); ++i) {
      LearnedHalfspace lh;
      ISRL_RETURN_IF_ERROR(snapshot::DecodeLearnedHalfspace(&r, &lh, n));
      if (lh.h.normal.dim() != d) {
        return Status::InvalidArgument(
            "AA snapshot: learned halfspace dimension mismatch");
      }
      h.push_back(std::move(lh));
    }
    AaGeometry geo;
    geo.feasible = r.Bool();
    ISRL_RETURN_IF_ERROR(snapshot::DecodeVec(&r, &geo.inner.center));
    geo.inner.radius = r.FiniteF64();
    ISRL_RETURN_IF_ERROR(snapshot::DecodeVec(&r, &geo.e_min));
    ISRL_RETURN_IF_ERROR(snapshot::DecodeVec(&r, &geo.e_max));
    Vec state;
    ISRL_RETURN_IF_ERROR(snapshot::DecodeVec(&r, &state));
    const uint64_t num_actions = r.U64();
    if (!r.failed() && num_actions > snapshot::kMaxElements) {
      return Status::InvalidArgument("AA snapshot: implausible action count");
    }
    std::vector<AaAction> actions;
    for (uint64_t i = 0; i < num_actions && !r.failed(); ++i) {
      AaAction a;
      a.q.i = static_cast<size_t>(r.U64());
      a.q.j = static_cast<size_t>(r.U64());
      a.balance = r.FiniteF64();
      a.alignment = r.FiniteF64();
      a.center_dist = r.FiniteF64();
      if (!r.failed() && (a.q.i >= n || a.q.j >= n)) {
        return Status::InvalidArgument(
            "AA snapshot: action index out of dataset range");
      }
      actions.push_back(a);
    }
    const uint64_t best = r.U64();
    ISRL_RETURN_IF_ERROR(r.status());
    if (!r.AtEnd()) {
      return Status::InvalidArgument("AA snapshot: trailing payload bytes");
    }
    if (best >= n) {
      return Status::InvalidArgument(
          "AA snapshot: recommendation index out of dataset range");
    }
    const bool restored_finished = core.stage == snapshot::kStageFinished;
    if (!restored_finished) {
      // Live sessions always hold a feasible geometry of the dataset's
      // dimension (infeasible geometries only occur on the abort paths,
      // which finish the session before it can be saved mid-flight).
      if (!geo.feasible || geo.inner.center.dim() != d ||
          geo.e_min.dim() != d || geo.e_max.dim() != d) {
        return Status::InvalidArgument(
            "AA snapshot: live session carries an unusable geometry");
      }
      const size_t expected_state_dim =
          owner_.input_dim_ - 3 * d - Aa::kActionDescriptors;
      if (state.dim() != expected_state_dim) {
        return Status::InvalidArgument(
            "AA snapshot: state vector dimension mismatch");
      }
    }
    if (core.stage == snapshot::kStageAsking &&
        (core.question.pair.i >= n || core.question.pair.j >= n)) {
      return Status::InvalidArgument(
          "AA snapshot: in-flight question index out of dataset range");
    }
    if (core.stage == snapshot::kStageScoring && actions.empty()) {
      return Status::InvalidArgument(
          "AA snapshot: scoring stage without staged candidates");
    }

    result_ = core.result;
    model_ = std::move(model);
    max_rounds_ = static_cast<size_t>(core.max_rounds);
    max_lp_ = static_cast<size_t>(max_lp);
    deadline_ = core.deadline;
    owned_rng_ = core.rng;
    if (core.has_trace && trace_ != nullptr) {
      trace_->RestoreHistory(std::move(core.trace_max_regret),
                             std::move(core.trace_seconds),
                             std::move(core.trace_best_index));
    }
    h_ = std::move(h);
    geo_ = std::move(geo);
    state_ = std::move(state);
    actions_ = std::move(actions);
    best_ = static_cast<size_t>(best);
    question_ = core.question;
    finished_ = restored_finished;
    asking_ = core.stage == snapshot::kStageAsking;
    scoring_pending_ = false;
    if (core.stage == snapshot::kStageScoring) {
      pending_features_ = owner_.FeaturizeCandidatesMatrix(state_, actions_);
      scoring_pending_ = true;
    }
    watch_.Restart();
    return Status::Ok();
  }

 private:
  void Prepare() {
    if (!(Distance(geo_.e_min, geo_.e_max) > stop_dist_) ||
        actions_.empty() || result_.rounds >= max_rounds_) {
      Terminate();
      return;
    }
    if (deadline_.Expired()) {
      Terminate();
      return;
    }
    pending_features_ = owner_.FeaturizeCandidatesMatrix(state_, actions_);
    scoring_pending_ = true;
  }

  void TakePick(size_t pick) {
    const Question q = actions_[pick].q;
    question_.first = owner_.data_.point(q.i);
    question_.second = owner_.data_.point(q.j);
    question_.pair = q;
    question_.synthetic = false;
    scoring_pending_ = false;
    asking_ = true;
  }

  void RecordRound(const std::vector<Vec>& consistent) {
    if (trace_ == nullptr) return;
    const double elapsed = watch_.ElapsedSeconds();
    trace_->Record(best_, consistent, elapsed);
    watch_.Restart();
    result_.seconds += elapsed;
  }

  void Terminate() {
    result_.best_index = best_;
    const bool stopped = Distance(geo_.e_min, geo_.e_max) <= stop_dist_;
    const bool stalled = actions_.empty() && !stopped;
    if (stopped) {
      result_.termination = result_.dropped_answers > 0
                                ? Termination::kDegraded
                                : Termination::kConverged;
    } else if (stalled) {
      // No splitting pair left although the rectangle is still wide: the
      // sampler is exhausted. Best-so-far under a degraded certificate.
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

  Aa& owner_;
  InteractionTrace* trace_;
  InteractionResult result_;
  Stopwatch watch_;
  double stop_dist_;
  size_t max_rounds_;
  size_t max_lp_;
  Deadline deadline_;
  std::optional<Rng> owned_rng_;

  std::vector<LearnedHalfspace> h_;
  AaGeometry geo_;
  Vec state_;
  std::vector<AaAction> actions_;
  size_t best_ = 0;

  /// The immutable model this session scores with, pinned at construction
  /// (or re-pinned by Decode); never changes mid-session (DESIGN.md §18).
  std::shared_ptr<const nn::ModelSnapshot> model_;

  Matrix pending_features_;
  SessionQuestion question_;
  bool scoring_pending_ = false;
  bool asking_ = false;
  bool finished_ = false;
};

std::unique_ptr<InteractionSession> Aa::StartSession(
    const SessionConfig& config) {
  // Audit at the inference call site (see Ea::StartSession).
  if (audit::ShouldCheck(audit::Checker::kNnFinite)) {
    nn::Network& network = config.model != nullptr ? config.model->network()
                                                   : agent_.main_network();
    audit::Auditor().Record(audit::Checker::kNnFinite, "Aa.StartSession",
                            audit::CheckNetworkFinite(network, "main"));
  }
  return std::make_unique<Session>(*this, config);
}

Result<std::unique_ptr<InteractionSession>> Aa::RestoreSession(
    const std::string& bytes, const SessionConfig& config) {
  ISRL_ASSIGN_OR_RETURN(
      std::string payload,
      snapshot::UnwrapFrame(kAaSnapshotKind, kAaSnapshotVersion, bytes));
  auto session =
      std::make_unique<Session>(*this, config.trace, Session::RestoreTag{});
  ISRL_RETURN_IF_ERROR(session->Decode(payload, config));
  return std::unique_ptr<InteractionSession>(std::move(session));
}

Status Aa::SaveAgent(const std::string& path) {
  return nn::SaveNetwork(agent_.main_network(), path);
}

Status Aa::LoadAgent(const std::string& path) {
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
