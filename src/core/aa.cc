#include "core/aa.h"

#include <array>
#include <cmath>
#include <optional>

#include "core/episode_engine.h"
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
  return LiveServingModel(agent_, &live_model_);
}

double Aa::StopDistance() const {
  return 2.0 * std::sqrt(static_cast<double>(data_.dim())) * options_.epsilon;
}

Matrix Aa::FeaturizeCandidates(const Vec& state,
                               const std::vector<AaAction>& actions) const {
  return StackCandidateFeatures(
      data_, state, actions, input_dim_, [](const AaAction& action) {
        return std::array<double, kActionDescriptors>{
            action.balance, action.alignment, action.center_dist};
      });
}

size_t Aa::MidpointBest(const AaGeometry& geometry) const {
  Vec mid = (geometry.e_min + geometry.e_max) / 2.0;
  return data_.TopIndex(mid);
}

// Algorithm 4 inverted into a sans-IO state machine (DESIGN.md §13). Same
// structure as Ea::Session: Prepare() is the old loop top, PostAnswer() the
// loop body, with every LP/RNG call in the original order so stepped
// episodes are bit-identical to Interact().
class Aa::Session final : public RlSession<Aa::Session, Aa> {
 public:
  Session(Aa& owner, const SessionConfig& config)
      : Session(owner, config,
                config.model != nullptr ? config.model : owner.ServingModel()) {
  }

  /// Training construction (TrainEpisodes): pins no model snapshot, because
  /// training picks through the live agent, not through model_.
  struct TrainTag {};
  Session(Aa& owner, TrainTag) : Session(owner, SessionConfig{}, nullptr) {}

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
    if (Distance(geo_.e_min, geo_.e_max) > stop_dist_) {
      actions_ = BuildAaActionSpace(owner_.data_, h_, geo_,
                                    owner_.options_.actions, rng());
    } else {
      actions_.clear();  // the stop round: Prepare() terminates, no pool
    }
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

  std::optional<Vec> HarvestUtility() const override {
    if (!geo_.feasible) return std::nullopt;
    return (geo_.e_min + geo_.e_max) / 2.0;
  }

  Question CandidatePair(size_t pick) const { return actions_[pick].q; }

  // ---- Durability (DESIGN.md §14). ---------------------------------------

  /// Tag ctor for RestoreSession (see Ea::Session::RestoreTag).
  struct RestoreTag {};
  Session(Aa& owner, InteractionTrace* trace, RestoreTag)
      : RlSession(owner, trace), stop_dist_(owner.StopDistance()), max_lp_(0) {}

  Result<std::string> SaveState() const override {
    snapshot::Writer w;
    EncodeCommon(&w);
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
    std::shared_ptr<const nn::ModelSnapshot> model;
    ISRL_RETURN_IF_ERROR(DecodeCommon(&r, config, &core, &model));
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

    CommitCommon(&core, std::move(model));
    max_lp_ = static_cast<size_t>(max_lp);
    h_ = std::move(h);
    geo_ = std::move(geo);
    state_ = std::move(state);
    actions_ = std::move(actions);
    best_ = static_cast<size_t>(best);
    if (core.stage == snapshot::kStageScoring) {
      pending_features_ = owner_.FeaturizeCandidates(state_, actions_);
      scoring_pending_ = true;
    }
    return Status::Ok();
  }

 private:
  Session(Aa& owner, const SessionConfig& config,
          std::shared_ptr<const nn::ModelSnapshot> model)
      : RlSession(owner, config, std::move(model)),
        stop_dist_(owner.StopDistance()),
        max_lp_(config.budget.max_lp_iterations) {
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

  void Prepare() {
    if (!(Distance(geo_.e_min, geo_.e_max) > stop_dist_) ||
        actions_.empty()) {
      Terminate();
      return;
    }
    // Staged before the budget check: when the round cap ends the episode,
    // training still bootstraps from this round's pool.
    pending_features_ = owner_.FeaturizeCandidates(state_, actions_);
    if (result_.rounds >= max_rounds_ || deadline_.Expired()) {
      Terminate();
      return;
    }
    scoring_pending_ = true;
  }

  void RecordRound(const std::vector<Vec>& consistent) {
    if (trace_ == nullptr) return;
    const double elapsed = watch_.ElapsedSeconds();
    trace_->Record(best_, consistent, elapsed);
    watch_.Restart();
    result_.seconds += elapsed;
  }

  void Terminate() {
    const bool stopped = Distance(geo_.e_min, geo_.e_max) <= stop_dist_;
    if (stopped) {
      End(best_, result_.dropped_answers > 0 ? Termination::kDegraded
                                             : Termination::kConverged);
    } else if (actions_.empty()) {
      // No splitting pair left although the rectangle is still wide: the
      // sampler is exhausted. Best-so-far under a degraded certificate.
      End(best_, Termination::kDegraded);
    } else {
      End(best_, Termination::kBudgetExhausted);
    }
  }

  double stop_dist_;
  size_t max_lp_;
  std::vector<LearnedHalfspace> h_;
  AaGeometry geo_;
  Vec state_;
  std::vector<AaAction> actions_;
};

std::unique_ptr<InteractionSession> Aa::StartSession(
    const SessionConfig& config) {
  AuditSessionNetwork(agent_, config, "Aa.StartSession");
  return std::make_unique<Session>(*this, config);
}

Result<std::unique_ptr<InteractionSession>> Aa::RestoreSession(
    const std::string& bytes, const SessionConfig& config) {
  return RestoreFromFrame<Session>(*this, kAaSnapshotKind, kAaSnapshotVersion,
                                   bytes, config);
}

TrainStats Aa::Train(const std::vector<Vec>& training_utilities) {
  return TrainEpisodes(*this, training_utilities);
}

Status Aa::SaveAgent(const std::string& path) {
  return nn::SaveNetwork(agent_.main_network(), path);
}

Status Aa::LoadAgent(const std::string& path) {
  ISRL_RETURN_IF_ERROR(LoadAgentWeights(agent_, path));
  live_model_.reset();  // weights changed; the next session re-snapshots
  return Status::Ok();
}

}  // namespace isrl
