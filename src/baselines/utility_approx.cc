#include "baselines/utility_approx.h"

#include <algorithm>
#include <cmath>

#include "common/stopwatch.h"
#include "core/snapshot.h"

namespace isrl {

namespace {
constexpr char kUaSnapshotKind[] = "ua-session";
// v2 stores the session Rng as raw engine words (snapshot::EncodeRng).
constexpr uint32_t kUaSnapshotVersion = 2;
}  // namespace

UtilityApprox::UtilityApprox(const Dataset& data,
                             const UtilityApproxOptions& options)
    : data_(data), options_(options) {
  ISRL_CHECK(!data.empty());
  ISRL_CHECK_GE(data.dim(), 2u);
  ISRL_CHECK_GT(options.epsilon, 0.0);
}

// The ratio-bisection loop inverted into a sans-IO state machine (DESIGN.md
// §13). Prepare() is the old loop top — budget guard, geometry certificate
// (with its in-loop converged return), widest-interval pick, fake-tuple
// construction — and PostAnswer() the loop body, in the original order, so
// stepped episodes are bit-identical to Interact(). The questions compare
// constructed points, so SessionQuestion::synthetic is set and the answer
// handling works off the stored point vectors, never dataset indices.
class UtilityApprox::Session final : public InteractionSession {
 public:
  Session(UtilityApprox& owner, const SessionConfig& config)
      : owner_(owner),
        trace_(config.trace),
        d_(owner.data_.dim()),
        stop_dist_(2.0 * std::sqrt(static_cast<double>(owner.data_.dim())) *
                   owner.options_.epsilon),
        max_rounds_(config.budget.EffectiveMaxRounds(owner.options_.max_rounds)),
        max_lp_(config.budget.max_lp_iterations),
        deadline_(Deadline::FromBudget(config.budget)),
        lo_(d_, 0.0),
        hi_(d_, owner.options_.max_ratio) {
    // Per-dimension binary-search interval for r_c = u[c]/u[0].
    lo_[0] = hi_[0] = 1.0;
    Prepare();
  }

  std::optional<SessionQuestion> NextQuestion() override {
    if (finished_) return std::nullopt;
    return question_;
  }

  void PostAnswer(Answer answer) override {
    ISRL_CHECK(asking_);
    asking_ = false;
    ++result_.rounds;
    if (answer == Answer::kNoAnswer) {
      // Timed-out question: re-ask the widest interval next round.
      ++result_.no_answers;
      Prepare();
      return;
    }
    const bool prefers_a = answer == Answer::kFirst;
    const Vec& a = question_.first;
    const Vec& b = question_.second;

    LearnedHalfspace lh;
    lh.winner = 0;  // fake tuples have no dataset index
    lh.loser = 0;
    lh.h = prefers_a ? PreferenceHalfspace(a, b) : PreferenceHalfspace(b, a);
    h_.push_back(std::move(lh));
    if (prefers_a) {
      lo_[c_] = t_;  // u[c] ≥ t·u[0]
    } else {
      hi_[c_] = t_;
    }

    if (trace_ != nullptr) {
      const double elapsed = watch_.ElapsedSeconds();
      AaGeometry mid_geo = ComputeAaGeometry(d_, h_, max_lp_);
      size_t best =
          mid_geo.feasible
              ? owner_.data_.TopIndex((mid_geo.e_min + mid_geo.e_max) / 2.0)
              : result_.best_index;
      trace_->Record(best, {}, elapsed);
      watch_.Restart();
      result_.seconds += elapsed;
    }
    Prepare();
  }

  void Cancel() override {
    if (finished_) return;
    // Best-so-far from the current geometry — exactly the budget-exhausted
    // exit of the old loop.
    TerminateFinal();
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
  Session(UtilityApprox& owner, InteractionTrace* trace, RestoreTag)
      : owner_(owner),
        trace_(trace),
        d_(owner.data_.dim()),
        stop_dist_(2.0 * std::sqrt(static_cast<double>(owner.data_.dim())) *
                   owner.options_.epsilon),
        max_rounds_(0),
        max_lp_(0),
        lo_(d_, 0.0),
        hi_(d_, 0.0) {}

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
    core.has_rng = false;  // fully deterministic algorithm
    core.trace = trace_;
    snapshot::EncodeSessionCore(core, &w);
    w.U64(max_lp_);
    snapshot::EncodeVec(Vec(lo_), &w);
    snapshot::EncodeVec(Vec(hi_), &w);
    w.U64(h_.size());
    for (const LearnedHalfspace& lh : h_) {
      snapshot::EncodeLearnedHalfspace(lh, &w);
    }
    w.U64(cursor_);
    w.U64(c_);
    w.F64(t_);
    w.Bool(resolved_);
    return snapshot::WrapFrame(kUaSnapshotKind, kUaSnapshotVersion, w.Take());
  }

  Status Decode(const std::string& payload) {
    snapshot::Reader r(payload);
    snapshot::SessionCore core;
    ISRL_RETURN_IF_ERROR(snapshot::DecodeSessionCore(&r, &core));
    ISRL_RETURN_IF_ERROR(snapshot::ValidateSessionCore(
        core, owner_.name(), owner_.data_.size(), owner_.data_.dim()));
    if (core.stage == snapshot::kStageScoring) {
      return Status::InvalidArgument(
          "UtilityApprox snapshot: scoring stage is not part of the protocol");
    }
    const uint64_t max_lp = r.U64();
    Vec lo, hi;
    ISRL_RETURN_IF_ERROR(snapshot::DecodeVec(&r, &lo));
    ISRL_RETURN_IF_ERROR(snapshot::DecodeVec(&r, &hi));
    const uint64_t num_h = r.U64();
    if (!r.failed() && num_h > snapshot::kMaxElements) {
      return Status::InvalidArgument(
          "UtilityApprox snapshot: implausible H size");
    }
    std::vector<LearnedHalfspace> h;
    for (uint64_t i = 0; i < num_h && !r.failed(); ++i) {
      LearnedHalfspace lh;
      // Fake-tuple half-spaces carry no dataset indices (winner = loser =
      // 0), so the bound only needs to admit index 0.
      ISRL_RETURN_IF_ERROR(
          snapshot::DecodeLearnedHalfspace(&r, &lh, owner_.data_.size()));
      if (lh.h.normal.dim() != d_) {
        return Status::InvalidArgument(
            "UtilityApprox snapshot: halfspace dimension mismatch");
      }
      h.push_back(std::move(lh));
    }
    const uint64_t cursor = r.U64();
    const uint64_t c = r.U64();
    const double t = r.FiniteF64();
    const bool resolved = r.Bool();
    ISRL_RETURN_IF_ERROR(r.status());
    if (!r.AtEnd()) {
      return Status::InvalidArgument(
          "UtilityApprox snapshot: trailing payload bytes");
    }
    if (lo.dim() != d_ || hi.dim() != d_) {
      return Status::InvalidArgument(
          "UtilityApprox snapshot: ratio interval dimension mismatch");
    }
    if (cursor == 0 || cursor >= d_ || c >= d_) {
      return Status::InvalidArgument(
          "UtilityApprox snapshot: bisection cursor out of range");
    }

    result_ = core.result;
    max_rounds_ = static_cast<size_t>(core.max_rounds);
    max_lp_ = static_cast<size_t>(max_lp);
    deadline_ = core.deadline;
    if (core.has_trace && trace_ != nullptr) {
      trace_->RestoreHistory(std::move(core.trace_max_regret),
                             std::move(core.trace_seconds),
                             std::move(core.trace_best_index));
    }
    lo_ = lo.data();
    hi_ = hi.data();
    h_ = std::move(h);
    cursor_ = static_cast<size_t>(cursor);
    c_ = static_cast<size_t>(c);
    t_ = t;
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
      TerminateFinal();
      return;
    }
    // Certificate: outer rectangle of the learned half-spaces.
    AaGeometry geo = ComputeAaGeometry(d_, h_, max_lp_);
    if (!geo.feasible) {
      // Contradictory answers (noisy user): drop the minimal most-recent
      // suffix of half-spaces until the set is consistent again. The ratio
      // intervals stay as narrowed — they are estimates, not certificates.
      while (!h_.empty() && !geo.feasible) {
        h_.pop_back();
        ++result_.dropped_answers;
        geo = ComputeAaGeometry(d_, h_, max_lp_);
      }
      if (!geo.feasible) {
        // LP failed even on H = ∅: the solver itself is broken.
        result_.status = Status::Internal("geometry LP failed on empty H");
        TerminateFinal();
        return;
      }
    }
    if (Distance(geo.e_min, geo.e_max) <= stop_dist_) {
      result_.termination = result_.dropped_answers > 0
                                ? Termination::kDegraded
                                : Termination::kConverged;
      result_.best_index = owner_.data_.TopIndex((geo.e_min + geo.e_max) / 2.0);
      result_.seconds += watch_.ElapsedSeconds();
      asking_ = false;
      finished_ = true;
      return;
    }

    // Pick the dimension with the widest remaining ratio interval.
    size_t c = 0;
    double widest = 0.0;
    for (size_t k = 1; k < d_; ++k) {
      size_t cand = 1 + (cursor_ + k - 1) % (d_ - 1);
      if (hi_[cand] - lo_[cand] > widest) {
        widest = hi_[cand] - lo_[cand];
        c = cand;
      }
    }
    if (c == 0 || widest < 1e-6) {
      resolved_ = true;  // all ratios pinned; certificate soon follows
      TerminateFinal();
      return;
    }
    cursor_ = c;
    c_ = c;
    t_ = 0.5 * (lo_[c] + hi_[c]);

    // Fake tuples for the question "is u[c] ≥ t·u[0]?": a puts everything
    // on attribute c, b puts t (rescaled into (0,1]) on attribute 0.
    Vec a(d_, 1e-6), b(d_, 1e-6);
    const double scale = std::max(1.0, t_);
    a[c_] = 1.0 / scale;
    b[0] = t_ / scale;
    question_.first = std::move(a);
    question_.second = std::move(b);
    question_.pair = Question{};
    question_.synthetic = true;
    asking_ = true;
  }

  void TerminateFinal() {
    AaGeometry geo = ComputeAaGeometry(d_, h_, max_lp_);
    Vec estimate(d_, 1.0 / static_cast<double>(d_));
    if (geo.feasible) estimate = (geo.e_min + geo.e_max) / 2.0;
    result_.best_index = owner_.data_.TopIndex(estimate);
    if (!result_.status.ok()) {
      result_.termination = Termination::kAborted;
    } else if (resolved_) {
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

  UtilityApprox& owner_;
  InteractionTrace* trace_;
  InteractionResult result_;
  Stopwatch watch_;
  size_t d_;
  double stop_dist_;
  size_t max_rounds_;
  size_t max_lp_;
  Deadline deadline_;

  std::vector<double> lo_, hi_;
  std::vector<LearnedHalfspace> h_;
  size_t cursor_ = 1;  // round-robin over dimensions 1..d-1
  size_t c_ = 0;       // dimension of the in-flight question
  double t_ = 0.0;     // bisection threshold of the in-flight question
  bool resolved_ = false;

  SessionQuestion question_;
  bool asking_ = false;
  bool finished_ = false;
};

std::unique_ptr<InteractionSession> UtilityApprox::StartSession(
    const SessionConfig& config) {
  return std::make_unique<Session>(*this, config);
}

Result<std::unique_ptr<InteractionSession>> UtilityApprox::RestoreSession(
    const std::string& bytes, const SessionConfig& config) {
  ISRL_ASSIGN_OR_RETURN(
      std::string payload,
      snapshot::UnwrapFrame(kUaSnapshotKind, kUaSnapshotVersion, bytes));
  auto session =
      std::make_unique<Session>(*this, config.trace, Session::RestoreTag{});
  ISRL_RETURN_IF_ERROR(session->Decode(payload));
  return std::unique_ptr<InteractionSession>(std::move(session));
}

}  // namespace isrl
