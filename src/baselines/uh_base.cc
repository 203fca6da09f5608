#include "baselines/uh_base.h"

#include <algorithm>
#include <numeric>

#include "common/stopwatch.h"
#include "core/snapshot.h"
#include "geometry/halfspace.h"

namespace isrl {

namespace {
constexpr char kUhSnapshotKind[] = "uh-session";
// v2 stores the session Rng as raw engine words (snapshot::EncodeRng).
constexpr uint32_t kUhSnapshotVersion = 2;
}  // namespace

UhBase::UhBase(const Dataset& data, const UhOptions& options)
    : data_(data), options_(options), rng_(options.seed) {
  ISRL_CHECK(!data.empty());
  ISRL_CHECK_GT(options.epsilon, 0.0);
  ISRL_CHECK_LT(options.epsilon, 1.0);
}

bool UhBase::IsInformative(const Question& q, const Polyhedron& range) const {
  Halfspace h = PreferenceHalfspace(data_.point(q.i), data_.point(q.j));
  if (h.normal.Norm() < 1e-12) return false;
  bool positive = false, negative = false;
  for (const Vec& v : range.vertices()) {
    double margin = h.Margin(v);
    if (margin > 1e-9) positive = true;
    if (margin < -1e-9) negative = true;
    if (positive && negative) return true;
  }
  return false;
}

void UhBase::PruneCandidates(std::vector<size_t>* candidates, size_t winner,
                             const Polyhedron& range) const {
  const Vec& w = data_.point(winner);
  auto beaten_everywhere = [&](size_t q) {
    if (q == winner) return false;
    const Vec& p = data_.point(q);
    for (const Vec& v : range.vertices()) {
      if (Dot(v, w - p) < 0.0) return false;
    }
    return true;
  };
  candidates->erase(
      std::remove_if(candidates->begin(), candidates->end(), beaten_everywhere),
      candidates->end());
}

void UhBase::FullPrune(std::vector<size_t>* candidates,
                       const Polyhedron& range) const {
  // Order by utility at the centroid so the likely winner is kept first;
  // keep-first semantics makes ties collapse onto one survivor.
  Vec centroid = range.Centroid();
  std::vector<size_t> ordered = *candidates;
  std::sort(ordered.begin(), ordered.end(), [&](size_t a, size_t b) {
    return Dot(centroid, data_.point(a)) > Dot(centroid, data_.point(b));
  });
  std::vector<size_t> kept;
  for (size_t q : ordered) {
    const Vec& pq = data_.point(q);
    bool beaten = false;
    for (size_t p : kept) {
      const Vec& pp = data_.point(p);
      beaten = true;
      for (const Vec& v : range.vertices()) {
        if (Dot(v, pp - pq) < 0.0) {
          beaten = false;
          break;
        }
      }
      if (beaten) break;
    }
    if (!beaten) kept.push_back(q);
  }
  *candidates = std::move(kept);
}

// The hardened UH loop inverted into a sans-IO state machine (DESIGN.md
// §13). Prepare() is the old loop top — budget/deadline guard, best
// recompute, resolution check, question selection with the FullPrune
// fallback — and PostAnswer() the loop body, in the original order, so
// stepped episodes are bit-identical to Interact().
class UhBase::Session final : public InteractionSession {
 public:
  Session(UhBase& owner, const SessionConfig& config)
      : owner_(owner),
        trace_(config.trace),
        max_rounds_(config.budget.EffectiveMaxRounds(owner.options_.max_rounds)),
        deadline_(Deadline::FromBudget(config.budget)),
        owned_rng_(config.seed ? std::optional<Rng>(Rng(*config.seed))
                               : std::nullopt),
        range_(Polyhedron::UnitSimplex(owner.data_.dim())),
        candidates_(owner.data_.size()) {
    std::iota(candidates_.begin(), candidates_.end(), 0);
    best_ = owner_.data_.TopIndex(range_.Centroid());
    Prepare();
  }

  std::optional<SessionQuestion> NextQuestion() override {
    if (finished_) return std::nullopt;
    return question_;
  }

  void PostAnswer(Answer answer) override {
    ISRL_CHECK(asking_);
    asking_ = false;
    const Question q = question_.pair;
    ++result_.rounds;
    if (answer == Answer::kNoAnswer) {
      // Timed-out question: learn nothing (selection is stochastic, so the
      // next round tries a different pair).
      ++result_.no_answers;
      RecordRound();
      Prepare();
      return;
    }
    const bool prefers_i = answer == Answer::kFirst;
    const size_t winner = prefers_i ? q.i : q.j;
    const size_t loser = prefers_i ? q.j : q.i;
    if (!range_.TryCut(PreferenceHalfspace(owner_.data_.point(winner),
                                           owner_.data_.point(loser)))) {
      // Contradictory answer (noisy user): dropping it — the minimal
      // most-recent conflicting suffix — keeps R non-empty.
      ++result_.dropped_answers;
      RecordRound();
      Prepare();
      return;
    }

    owner_.PruneCandidates(&candidates_, winner, range_);
    best_ = owner_.data_.TopIndex(range_.Centroid());
    owner_.PruneCandidates(&candidates_, best_, range_);
    RecordRound();
    Prepare();
  }

  void Cancel() override {
    if (finished_) return;
    result_.best_index = best_;
    result_.termination = Termination::kBudgetExhausted;
    result_.seconds += watch_.ElapsedSeconds();
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

  // ---- Durability (DESIGN.md §14). ---------------------------------------

  /// Tag ctor for RestoreSession (see Ea::Session::RestoreTag).
  struct RestoreTag {};
  Session(UhBase& owner, InteractionTrace* trace, RestoreTag)
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
    if (!finished_) core.result.seconds += watch_.ElapsedSeconds();
    core.max_rounds = max_rounds_;
    core.deadline = deadline_;
    core.stage =
        finished_ ? snapshot::kStageFinished : snapshot::kStageAsking;
    core.question = question_;
    core.has_rng = true;
    core.rng = rng();
    core.trace = trace_;
    snapshot::EncodeSessionCore(core, &w);
    snapshot::EncodePolyhedron(range_, &w);
    snapshot::EncodeIndexVector(candidates_, &w);
    w.U64(best_);
    w.Bool(resolved_);
    return snapshot::WrapFrame(kUhSnapshotKind, kUhSnapshotVersion, w.Take());
  }

  Status Decode(const std::string& payload) {
    snapshot::Reader r(payload);
    snapshot::SessionCore core;
    ISRL_RETURN_IF_ERROR(snapshot::DecodeSessionCore(&r, &core));
    ISRL_RETURN_IF_ERROR(snapshot::ValidateSessionCore(
        core, owner_.name(), owner_.data_.size(), owner_.data_.dim()));
    if (!core.has_rng) {
      return Status::InvalidArgument("UH snapshot: missing rng state");
    }
    if (core.stage == snapshot::kStageScoring) {
      return Status::InvalidArgument(
          "UH snapshot: scoring stage is not part of the UH protocol");
    }
    const size_t n = owner_.data_.size();
    Result<Polyhedron> range = snapshot::DecodePolyhedron(&r);
    ISRL_RETURN_IF_ERROR(range.status());
    if (range->dim() != owner_.data_.dim()) {
      return Status::InvalidArgument(
          "UH snapshot: polyhedron dimension does not match the dataset");
    }
    std::vector<size_t> candidates;
    ISRL_RETURN_IF_ERROR(snapshot::DecodeIndexVector(&r, &candidates, n));
    const uint64_t best = r.U64();
    const bool resolved = r.Bool();
    ISRL_RETURN_IF_ERROR(r.status());
    if (!r.AtEnd()) {
      return Status::InvalidArgument("UH snapshot: trailing payload bytes");
    }
    if (best >= n) {
      return Status::InvalidArgument(
          "UH snapshot: recommendation index out of dataset range");
    }
    if (core.stage == snapshot::kStageAsking &&
        (core.question.pair.i >= n || core.question.pair.j >= n)) {
      return Status::InvalidArgument(
          "UH snapshot: in-flight question index out of dataset range");
    }

    result_ = core.result;
    max_rounds_ = static_cast<size_t>(core.max_rounds);
    deadline_ = core.deadline;
    owned_rng_ = core.rng;
    if (core.has_trace && trace_ != nullptr) {
      trace_->RestoreHistory(std::move(core.trace_max_regret),
                             std::move(core.trace_seconds),
                             std::move(core.trace_best_index));
    }
    range_ = std::move(range.value());
    candidates_ = std::move(candidates);
    best_ = static_cast<size_t>(best);
    resolved_ = resolved;
    question_ = core.question;
    finished_ = core.stage == snapshot::kStageFinished;
    asking_ = core.stage == snapshot::kStageAsking;
    watch_.Restart();
    return Status::Ok();
  }

 private:
  void Prepare() {
    if (result_.rounds >= max_rounds_ || deadline_.Expired()) {
      Terminate();
      return;
    }
    best_ = candidates_.size() == 1 ? candidates_[0]
                                    : owner_.data_.TopIndex(range_.Centroid());
    if (candidates_.size() <= 1) {
      resolved_ = true;
      Terminate();
      return;
    }

    std::optional<Question> q =
        owner_.SelectQuestion(candidates_, range_, rng());
    if (!q.has_value()) {
      // Selection stalled: collapse candidates that R already resolves. If
      // survivors are still plural they are indistinguishable within R (no
      // informative question exists) — that is full resolution too.
      owner_.FullPrune(&candidates_, range_);
      if (candidates_.size() > 1) {
        q = owner_.SelectQuestion(candidates_, range_, rng());
      }
      if (!q.has_value()) {
        resolved_ = true;
        Terminate();
        return;
      }
    }
    question_.first = owner_.data_.point(q->i);
    question_.second = owner_.data_.point(q->j);
    question_.pair = *q;
    question_.synthetic = false;
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
    trace_->Record(best_, consistent, elapsed);
    watch_.Restart();
    result_.seconds += elapsed;
  }

  void Terminate() {
    result_.best_index = best_;
    if (resolved_) {
      result_.termination = result_.dropped_answers > 0
                                ? Termination::kDegraded
                                : Termination::kConverged;
    } else {
      result_.termination = Termination::kBudgetExhausted;
    }
    result_.seconds += watch_.ElapsedSeconds();
    asking_ = false;
    finished_ = true;
  }

  Rng& rng() { return owned_rng_ ? *owned_rng_ : owner_.rng_; }
  const Rng& rng() const { return owned_rng_ ? *owned_rng_ : owner_.rng_; }

  UhBase& owner_;
  InteractionTrace* trace_;
  InteractionResult result_;
  Stopwatch watch_;
  size_t max_rounds_;
  Deadline deadline_;
  std::optional<Rng> owned_rng_;

  Polyhedron range_;
  std::vector<size_t> candidates_;
  size_t best_ = 0;
  bool resolved_ = false;

  SessionQuestion question_;
  bool asking_ = false;
  bool finished_ = false;
};

std::unique_ptr<InteractionSession> UhBase::StartSession(
    const SessionConfig& config) {
  return std::make_unique<Session>(*this, config);
}

Result<std::unique_ptr<InteractionSession>> UhBase::RestoreSession(
    const std::string& bytes, const SessionConfig& config) {
  ISRL_ASSIGN_OR_RETURN(
      std::string payload,
      snapshot::UnwrapFrame(kUhSnapshotKind, kUhSnapshotVersion, bytes));
  auto session =
      std::make_unique<Session>(*this, config.trace, Session::RestoreTag{});
  ISRL_RETURN_IF_ERROR(session->Decode(payload));
  return std::unique_ptr<InteractionSession>(std::move(session));
}

}  // namespace isrl
