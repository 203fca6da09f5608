#include "core/ea.h"

#include <array>
#include <optional>

#include "core/episode_engine.h"
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
  return LiveServingModel(agent_, &live_model_);
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

Matrix Ea::FeaturizeCandidates(const Vec& state,
                               const std::vector<EaAction>& actions) const {
  return StackCandidateFeatures(
      data_, state, actions, input_dim_, [](const EaAction& action) {
        return std::array<double, kActionDescriptors>{action.balance,
                                                      action.center_dist};
      });
}

// Algorithm 2 inverted into a sans-IO state machine (DESIGN.md §13). The
// per-round sequence of the old blocking loop — guard, deadline, score,
// ask, cut, re-plan, record — is preserved exactly, split across the step
// API: Prepare() is the loop top (guards + candidate featurisation),
// NextQuestion()/PostCandidateScores() is the greedy pick, PostAnswer() is
// the loop body. Every geometric/RNG operation runs in the original order,
// so stepped episodes are bit-identical to Interact().
class Ea::Session final : public RlSession<Ea::Session, Ea> {
 public:
  Session(Ea& owner, const SessionConfig& config)
      : Session(owner, config,
                config.model != nullptr ? config.model : owner.ServingModel()) {
  }

  /// Training construction (TrainEpisodes): pins no model snapshot, because
  /// training picks through the live agent, not through model_.
  struct TrainTag {};
  Session(Ea& owner, TrainTag) : Session(owner, SessionConfig{}, nullptr) {}

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
    best_ = plan_.terminal
                         ? plan_.winner
                         : owner_.data_.TopIndex(range_.Centroid());
    RecordRound();
    Prepare();
  }

  std::optional<Vec> HarvestUtility() const override {
    if (range_.IsEmpty()) return std::nullopt;
    return range_.Centroid();
  }

  Question CandidatePair(size_t pick) const { return plan_.actions[pick].q; }

  // ---- Durability (DESIGN.md §14). ---------------------------------------

  /// Tag ctor for RestoreSession: builds an empty shell (no planning, no
  /// Rng draws) that Decode() then fills from snapshot bytes.
  struct RestoreTag {};
  Session(Ea& owner, InteractionTrace* trace, RestoreTag)
      : RlSession(owner, trace),
        range_(Polyhedron::UnitSimplex(owner.data_.dim())) {}

  Result<std::string> SaveState() const override {
    snapshot::Writer w;
    EncodeCommon(&w);
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
    w.U64(best_);
    return snapshot::WrapFrame(kEaSnapshotKind, kEaSnapshotVersion, w.Take());
  }

  /// Fills the shell from an unwrapped payload; every failure leaves the
  /// shell unusable but the process unharmed (the caller discards it).
  Status Decode(const std::string& payload, const SessionConfig& config) {
    snapshot::Reader r(payload);
    snapshot::SessionCore core;
    std::shared_ptr<const nn::ModelSnapshot> model;
    ISRL_RETURN_IF_ERROR(DecodeCommon(&r, config, &core, &model));
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

    CommitCommon(&core, std::move(model));
    range_ = std::move(range.value());
    plan_ = std::move(plan);
    state_ = std::move(state);
    best_ = static_cast<size_t>(fallback);
    if (core.stage == snapshot::kStageScoring) {
      // FeaturizeCandidates is a pure function of (state, actions), so
      // recomputing it reproduces the exact rows the saved session staged —
      // the greedy argmax (self-scored or coalesced) picks the same action.
      pending_features_ = owner_.FeaturizeCandidates(state_, plan_.actions);
      scoring_pending_ = true;
    }
    return Status::Ok();
  }

 private:
  Session(Ea& owner, const SessionConfig& config,
          std::shared_ptr<const nn::ModelSnapshot> model)
      : RlSession(owner, config, std::move(model)),
        range_(Polyhedron::UnitSimplex(owner.data_.dim())) {
    plan_ = owner_.PlanRound(range_, rng());
    state_ = EncodeEaState(range_, owner_.options_.state);
    best_ = owner_.data_.TopIndex(range_.Centroid());
    Prepare();
  }

  /// The top of the old blocking loop: evaluate the loop guard, stage the
  /// candidate features, then check the budget. Staging comes first so that
  /// when the round cap ends the episode, training still bootstraps from
  /// this round's pool.
  void Prepare() {
    if (plan_.terminal || plan_.stalled) {
      Terminate();
      return;
    }
    pending_features_ = owner_.FeaturizeCandidates(state_, plan_.actions);
    if (result_.rounds >= max_rounds_ || deadline_.Expired()) {
      Terminate();
      return;
    }
    scoring_pending_ = true;
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
    trace_->Record(best_, consistent, elapsed);
    watch_.Restart();  // exclude trace bookkeeping from algorithm time
    result_.seconds += elapsed;
  }

  void Terminate() {
    if (plan_.terminal) {
      End(plan_.winner, result_.dropped_answers > 0 ? Termination::kDegraded
                                                    : Termination::kConverged);
    } else {
      End(best_, plan_.stalled ? Termination::kDegraded
                               : Termination::kBudgetExhausted);
    }
  }

  Polyhedron range_;
  RoundPlan plan_;
  Vec state_;
};

std::unique_ptr<InteractionSession> Ea::StartSession(
    const SessionConfig& config) {
  AuditSessionNetwork(agent_, config, "Ea.StartSession");
  return std::make_unique<Session>(*this, config);
}

Result<std::unique_ptr<InteractionSession>> Ea::RestoreSession(
    const std::string& bytes, const SessionConfig& config) {
  return RestoreFromFrame<Session>(*this, kEaSnapshotKind, kEaSnapshotVersion,
                                   bytes, config);
}

TrainStats Ea::Train(const std::vector<Vec>& training_utilities) {
  return TrainEpisodes(*this, training_utilities);
}

Status Ea::SaveAgent(const std::string& path) {
  return nn::SaveNetwork(agent_.main_network(), path);
}

Status Ea::LoadAgent(const std::string& path) {
  ISRL_RETURN_IF_ERROR(LoadAgentWeights(agent_, path));
  live_model_.reset();  // weights changed; the next session re-snapshots
  return Status::Ok();
}

}  // namespace isrl
