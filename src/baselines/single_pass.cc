#include "baselines/single_pass.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

#include "common/stopwatch.h"
#include "core/snapshot.h"
#include "geometry/hit_and_run.h"
#include "user/sampler.h"

namespace isrl {
namespace {

constexpr char kSpSnapshotKind[] = "sp-session";
// v2 stores the session Rng as raw engine words (snapshot::EncodeRng).
constexpr uint32_t kSpSnapshotVersion = 2;

// Axis-aligned bounding box of a utility-vector sample, padded by `pad` and
// clipped to [0,1]. An inner approximation of the true outer rectangle; the
// padding compensates so the stop certificate is not absurdly optimistic.
void SampleRect(const std::vector<Vec>& samples, double pad, Vec* e_min,
                Vec* e_max) {
  const size_t d = (*e_min).dim();
  for (size_t k = 0; k < d; ++k) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (const Vec& u : samples) {
      lo = std::min(lo, u[k]);
      hi = std::max(hi, u[k]);
    }
    (*e_min)[k] = std::max(0.0, lo - pad);
    (*e_max)[k] = std::min(1.0, hi + pad);
  }
}

}  // namespace

SinglePass::SinglePass(const Dataset& data, const SinglePassOptions& options)
    : data_(data), options_(options), rng_(options.seed) {
  ISRL_CHECK(!data.empty());
  ISRL_CHECK_GT(options.epsilon, 0.0);
  ISRL_CHECK_LT(options.epsilon, 1.0);
}

// The streaming champion loop inverted into a sans-IO state machine
// (DESIGN.md §13): the nested pass/stream loops become two cursors (pass_,
// pos_) that Advance() walks exactly as the old for-loops did — including
// the pass epilogue's certificate checks and the end-of-pass reshuffle
// (which the old loop ran even before a final, never-executed pass), so
// stepped episodes are bit-identical to Interact() down to the Rng state.
class SinglePass::Session final : public InteractionSession {
 public:
  Session(SinglePass& owner, const SessionConfig& config)
      : owner_(owner),
        trace_(config.trace),
        d_(owner.data_.dim()),
        max_questions_(
            config.budget.EffectiveMaxRounds(owner.options_.max_questions)),
        max_lp_(config.budget.max_lp_iterations),
        stop_dist_(2.0 * std::sqrt(static_cast<double>(owner.data_.dim())) *
                   owner.options_.epsilon),
        pad_(0.5 * owner.options_.epsilon),
        deadline_(Deadline::FromBudget(config.budget)),
        owned_rng_(config.seed ? std::optional<Rng>(Rng(*config.seed))
                               : std::nullopt),
        e_min_(owner.data_.dim(), 0.0),
        e_max_(owner.data_.dim(), 1.0),
        order_(owner.data_.size()) {
    // SinglePass keeps no polyhedron and solves no LPs; its entire learned
    // state is the half-space list plus a particle set of consistent
    // utility vectors that powers both the rule-based filter and the stop
    // certificate.
    particles_ = SampleUtilityVectors(owner_.options_.particles, d_, rng());
    std::iota(order_.begin(), order_.end(), 0);
    rng().Shuffle(&order_);
    champion_ = order_[0];
    Advance();
  }

  std::optional<SessionQuestion> NextQuestion() override {
    if (finished_) return std::nullopt;
    return question_;
  }

  void PostAnswer(Answer answer) override {
    ISRL_CHECK(asking_);
    asking_ = false;
    const size_t idx = challenger_;
    ++result_.rounds;
    ++questions_this_pass_;
    if (answer == Answer::kNoAnswer) {
      // Timed-out question: the stream moves on; the challenger gets
      // another chance next pass.
      ++result_.no_answers;
      RecordRound();
      ++pos_;
      Advance();
      return;
    }
    const bool prefers_challenger = answer == Answer::kFirst;

    LearnedHalfspace lh;
    lh.winner = prefers_challenger ? idx : champion_;
    lh.loser = prefers_challenger ? champion_ : idx;
    lh.h = PreferenceHalfspace(owner_.data_.point(lh.winner),
                               owner_.data_.point(lh.loser));
    h_.push_back(std::move(lh));
    if (prefers_challenger) champion_ = idx;

    // Filter particles by the new answer; replenish when thin.
    const Halfspace& learned = h_.back().h;
    particles_.erase(std::remove_if(particles_.begin(), particles_.end(),
                                    [&](const Vec& u) {
                                      return !learned.Contains(u, 0.0);
                                    }),
                     particles_.end());
    Replenish();
    if (!particles_.empty()) SampleRect(particles_, pad_, &e_min_, &e_max_);

    RecordRound();
    // Mid-pass: the cheap particle certificate only (the LP rectangle is
    // reserved for pass boundaries).
    if (result_.rounds % owner_.options_.stop_check_every == 0 &&
        ParticleStop()) {
      certified_ = true;
      Terminate();
      return;
    }
    ++pos_;
    Advance();
  }

  void Cancel() override {
    if (finished_) return;
    result_.best_index = champion_;
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

  /// Tag ctor for RestoreSession (see Ea::Session::RestoreTag). Fixed
  /// parameters (d, the stop bound, the rectangle padding) are recomputed
  /// from the owner; everything learned comes from Decode().
  struct RestoreTag {};
  Session(SinglePass& owner, InteractionTrace* trace, RestoreTag)
      : owner_(owner),
        trace_(trace),
        d_(owner.data_.dim()),
        max_questions_(0),
        max_lp_(0),
        stop_dist_(2.0 * std::sqrt(static_cast<double>(owner.data_.dim())) *
                   owner.options_.epsilon),
        pad_(0.5 * owner.options_.epsilon),
        owned_rng_(std::nullopt),
        e_min_(owner.data_.dim(), 0.0),
        e_max_(owner.data_.dim(), 1.0) {}

  Result<std::string> SaveState() const override {
    snapshot::Writer w;
    snapshot::SessionCore core;
    core.algorithm = owner_.name();
    core.data_size = owner_.data_.size();
    core.data_dim = owner_.data_.dim();
    core.result = result_;
    if (!finished_) core.result.seconds += watch_.ElapsedSeconds();
    core.max_rounds = max_questions_;
    core.deadline = deadline_;
    core.stage =
        finished_ ? snapshot::kStageFinished : snapshot::kStageAsking;
    core.question = question_;
    core.has_rng = true;
    core.rng = rng();
    core.trace = trace_;
    snapshot::EncodeSessionCore(core, &w);
    w.U64(max_lp_);
    w.U64(h_.size());
    for (const LearnedHalfspace& lh : h_) {
      snapshot::EncodeLearnedHalfspace(lh, &w);
    }
    w.U64(particles_.size());
    for (const Vec& u : particles_) snapshot::EncodeVec(u, &w);
    snapshot::EncodeVec(e_min_, &w);
    snapshot::EncodeVec(e_max_, &w);
    snapshot::EncodeIndexVector(order_, &w);
    w.U64(champion_);
    w.U64(pass_);
    w.U64(pos_);
    w.U64(questions_this_pass_);
    w.U64(challenger_);
    w.Bool(certified_);
    w.Bool(stuck_);
    return snapshot::WrapFrame(kSpSnapshotKind, kSpSnapshotVersion, w.Take());
  }

  Status Decode(const std::string& payload) {
    snapshot::Reader r(payload);
    snapshot::SessionCore core;
    ISRL_RETURN_IF_ERROR(snapshot::DecodeSessionCore(&r, &core));
    ISRL_RETURN_IF_ERROR(snapshot::ValidateSessionCore(
        core, owner_.name(), owner_.data_.size(), owner_.data_.dim()));
    if (!core.has_rng) {
      return Status::InvalidArgument("SinglePass snapshot: missing rng state");
    }
    if (core.stage == snapshot::kStageScoring) {
      return Status::InvalidArgument(
          "SinglePass snapshot: scoring stage is not part of the protocol");
    }
    const size_t n = owner_.data_.size();
    const uint64_t max_lp = r.U64();
    const uint64_t num_h = r.U64();
    if (!r.failed() && num_h > snapshot::kMaxElements) {
      return Status::InvalidArgument(
          "SinglePass snapshot: implausible H size");
    }
    std::vector<LearnedHalfspace> h;
    for (uint64_t i = 0; i < num_h && !r.failed(); ++i) {
      LearnedHalfspace lh;
      ISRL_RETURN_IF_ERROR(snapshot::DecodeLearnedHalfspace(&r, &lh, n));
      if (lh.h.normal.dim() != d_) {
        return Status::InvalidArgument(
            "SinglePass snapshot: halfspace dimension mismatch");
      }
      h.push_back(std::move(lh));
    }
    const uint64_t num_particles = r.U64();
    if (!r.failed() && num_particles > snapshot::kMaxElements) {
      return Status::InvalidArgument(
          "SinglePass snapshot: implausible particle count");
    }
    std::vector<Vec> particles;
    for (uint64_t i = 0; i < num_particles && !r.failed(); ++i) {
      Vec u;
      ISRL_RETURN_IF_ERROR(snapshot::DecodeVec(&r, &u));
      if (u.dim() != d_) {
        return Status::InvalidArgument(
            "SinglePass snapshot: particle dimension mismatch");
      }
      particles.push_back(std::move(u));
    }
    Vec e_min, e_max;
    ISRL_RETURN_IF_ERROR(snapshot::DecodeVec(&r, &e_min));
    ISRL_RETURN_IF_ERROR(snapshot::DecodeVec(&r, &e_max));
    std::vector<size_t> order;
    ISRL_RETURN_IF_ERROR(snapshot::DecodeIndexVector(&r, &order, n));
    const uint64_t champion = r.U64();
    const uint64_t pass = r.U64();
    const uint64_t pos = r.U64();
    const uint64_t questions_this_pass = r.U64();
    const uint64_t challenger = r.U64();
    const bool certified = r.Bool();
    const bool stuck = r.Bool();
    ISRL_RETURN_IF_ERROR(r.status());
    if (!r.AtEnd()) {
      return Status::InvalidArgument(
          "SinglePass snapshot: trailing payload bytes");
    }
    if (e_min.dim() != d_ || e_max.dim() != d_) {
      return Status::InvalidArgument(
          "SinglePass snapshot: rectangle dimension mismatch");
    }
    // Advance() walks order_[pos_] directly, so the stream order must be a
    // genuine permutation of the dataset and the cursor must stay within
    // one-past-the-end.
    if (order.size() != n) {
      return Status::InvalidArgument(
          "SinglePass snapshot: stream order size mismatch");
    }
    std::vector<bool> seen(n, false);
    for (size_t idx : order) {
      if (seen[idx]) {
        return Status::InvalidArgument(
            "SinglePass snapshot: stream order is not a permutation");
      }
      seen[idx] = true;
    }
    if (champion >= n || challenger >= n || pos > n) {
      return Status::InvalidArgument(
          "SinglePass snapshot: stream cursor out of range");
    }

    result_ = core.result;
    max_questions_ = static_cast<size_t>(core.max_rounds);
    max_lp_ = static_cast<size_t>(max_lp);
    deadline_ = core.deadline;
    owned_rng_ = core.rng;
    if (core.has_trace && trace_ != nullptr) {
      trace_->RestoreHistory(std::move(core.trace_max_regret),
                             std::move(core.trace_seconds),
                             std::move(core.trace_best_index));
    }
    h_ = std::move(h);
    particles_ = std::move(particles);
    e_min_ = std::move(e_min);
    e_max_ = std::move(e_max);
    order_ = std::move(order);
    champion_ = static_cast<size_t>(champion);
    pass_ = static_cast<size_t>(pass);
    pos_ = static_cast<size_t>(pos);
    questions_this_pass_ = static_cast<size_t>(questions_this_pass);
    challenger_ = static_cast<size_t>(challenger);
    certified_ = certified;
    stuck_ = stuck;
    question_ = core.question;
    finished_ = core.stage == snapshot::kStageFinished;
    asking_ = core.stage == snapshot::kStageAsking;
    watch_.Restart();
    return Status::Ok();
  }

 private:
  /// Walks the stream cursors to the next askable challenger, running pass
  /// epilogues (certificates, stuck detection, reshuffle) along the way —
  /// the exact control flow of the old nested loops.
  void Advance() {
    while (true) {
      if (pass_ >= owner_.options_.max_passes) {
        Terminate();
        return;
      }
      while (pos_ < order_.size()) {
        const size_t idx = order_[pos_];
        if (idx == champion_) {
          ++pos_;
          continue;
        }
        if (result_.rounds >= max_questions_ || deadline_.Expired()) break;
        if (ChallengerImpossible(idx)) {
          ++pos_;
          continue;
        }
        challenger_ = idx;
        question_.first = owner_.data_.point(idx);
        question_.second = owner_.data_.point(champion_);
        question_.pair = Question{idx, champion_};
        question_.synthetic = false;
        asking_ = true;
        return;
      }
      // Pass epilogue (also reached on a budget/deadline inner break).
      if (result_.rounds >= max_questions_ || deadline_.Expired()) {
        Terminate();
        return;
      }
      if (CertifiedStop()) {
        certified_ = true;
        Terminate();
        return;
      }
      if (questions_this_pass_ == 0) {
        // The filter skips every challenger although no certificate fired:
        // the particle rectangle cannot shrink further. Best-so-far,
        // degraded.
        stuck_ = true;
        Terminate();
        return;
      }
      rng().Shuffle(&order_);
      ++pass_;
      pos_ = 0;
      questions_this_pass_ = 0;
    }
  }

  // Rule-based filter: skip the challenger when even the loosest utility in
  // the rectangle around the consistent region cannot prefer it.
  bool ChallengerImpossible(size_t idx) const {
    const Vec& p = owner_.data_.point(idx);
    const Vec& c = owner_.data_.point(champion_);
    double ub = 0.0;
    for (size_t k = 0; k < d_; ++k) {
      double diff = p[k] - c[k];
      ub += diff >= 0.0 ? e_max_[k] * diff : e_min_[k] * diff;
    }
    return ub <= 0.0;
  }

  void Replenish() {
    if (particles_.size() >= owner_.options_.min_particles) return;
    // Walk over the most recent cuts only — bounds the chain's per-step
    // cost as |H| grows into the thousands. Samples may violate ancient
    // cuts and land slightly outside R; that only makes the particle-based
    // filter and stop test more conservative.
    const size_t window = std::min<size_t>(512, h_.size());
    std::vector<Halfspace> cuts;
    cuts.reserve(window);
    for (size_t k = h_.size() - window; k < h_.size(); ++k) {
      cuts.push_back(h_[k].h);
    }
    Vec start = particles_.empty() ? Vec(d_, 1.0 / static_cast<double>(d_))
                                   : particles_.back();
    std::vector<Vec> fresh =
        HitAndRunSample(cuts, start, owner_.options_.particles, rng());
    if (!fresh.empty()) particles_ = std::move(fresh);
  }

  // Stop certificate, two-tiered and cheap:
  //  (1) the champion's maximum regret ratio over the consistent particles
  //      is below ε/2 (the particles sample the region still in play; the
  //      2× safety factor compensates their inner-approximation bias), or
  //  (2) the sound LP outer rectangle over a window of the most recent
  //      half-spaces satisfies the ‖e_min − e_max‖ ≤ 2√d·ε bound (exact
  //      while |H| fits the window, conservative afterwards).
  bool ParticleStop() const {
    if (particles_.size() < owner_.options_.min_particles) return false;
    const Vec& champ = owner_.data_.point(champion_);
    const std::vector<size_t> tops = owner_.data_.TopIndices(particles_);
    double worst = 0.0;
    for (size_t i = 0; i < particles_.size(); ++i) {
      const Vec& u = particles_[i];
      double top = Dot(u, owner_.data_.point(tops[i]));
      worst = std::max(worst, (top - Dot(u, champ)) / top);
      if (worst > 0.5 * owner_.options_.epsilon) return false;
    }
    return worst <= 0.5 * owner_.options_.epsilon;
  }

  bool CertifiedStop() {
    if (ParticleStop()) return true;
    const size_t window =
        std::min(owner_.options_.stop_check_window, h_.size());
    std::vector<LearnedHalfspace> recent(h_.end() - window, h_.end());
    AaGeometry geo = ComputeAaGeometry(d_, recent, max_lp_);
    if (!geo.feasible) return false;
    return Distance(geo.e_min, geo.e_max) <= stop_dist_;
  }

  void RecordRound() {
    if (trace_ == nullptr) return;
    const double elapsed = watch_.ElapsedSeconds();
    trace_->Record(champion_, particles_, elapsed);
    watch_.Restart();
    result_.seconds += elapsed;
  }

  void Terminate() {
    result_.best_index = champion_;
    if (certified_) {
      result_.termination = result_.dropped_answers > 0
                                ? Termination::kDegraded
                                : Termination::kConverged;
    } else if (stuck_) {
      result_.termination = Termination::kDegraded;
    } else {
      // max_questions, max_passes, or the deadline ran out first.
      result_.termination = Termination::kBudgetExhausted;
    }
    result_.seconds += watch_.ElapsedSeconds();
    asking_ = false;
    finished_ = true;
  }

  Rng& rng() { return owned_rng_ ? *owned_rng_ : owner_.rng_; }
  const Rng& rng() const { return owned_rng_ ? *owned_rng_ : owner_.rng_; }

  SinglePass& owner_;
  InteractionTrace* trace_;
  InteractionResult result_;
  Stopwatch watch_;
  size_t d_;
  size_t max_questions_;
  size_t max_lp_;
  double stop_dist_;
  double pad_;
  Deadline deadline_;
  std::optional<Rng> owned_rng_;

  std::vector<LearnedHalfspace> h_;
  std::vector<Vec> particles_;
  Vec e_min_, e_max_;
  std::vector<size_t> order_;
  size_t champion_ = 0;
  size_t pass_ = 0;
  size_t pos_ = 0;
  size_t questions_this_pass_ = 0;
  size_t challenger_ = 0;
  bool certified_ = false;
  bool stuck_ = false;

  SessionQuestion question_;
  bool asking_ = false;
  bool finished_ = false;
};

std::unique_ptr<InteractionSession> SinglePass::StartSession(
    const SessionConfig& config) {
  return std::make_unique<Session>(*this, config);
}

Result<std::unique_ptr<InteractionSession>> SinglePass::RestoreSession(
    const std::string& bytes, const SessionConfig& config) {
  ISRL_ASSIGN_OR_RETURN(
      std::string payload,
      snapshot::UnwrapFrame(kSpSnapshotKind, kSpSnapshotVersion, bytes));
  auto session =
      std::make_unique<Session>(*this, config.trace, Session::RestoreTag{});
  ISRL_RETURN_IF_ERROR(session->Decode(payload));
  return std::unique_ptr<InteractionSession>(std::move(session));
}

}  // namespace isrl
