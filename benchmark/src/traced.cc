#include "traced.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <utility>

#include "common/matrix.h"
#include "common/strings.h"
#include "core/aa.h"
#include "core/aa_actions.h"
#include "core/aa_state.h"
#include "core/ea.h"
#include "core/ea_actions.h"
#include "core/ea_state.h"
#include "core/scheduler.h"
#include "core/terminal.h"
#include "e2e.h"
#include "geometry/halfspace.h"
#include "geometry/polyhedron.h"
#include "nn/registry.h"

namespace isrl::e2e {

namespace {

// ---- spans ----------------------------------------------------------------

/// Layer boundaries the traced loop records, named after the modules.
enum Layer : uint8_t {
  kStart,       ///< StartSession + SessionScheduler::Add (admission)
  kPost,        ///< SessionScheduler::TryPostAnswer
  kAnswer,      ///< InteractionSession::PostAnswer
  kTick,        ///< SessionScheduler::Tick
  kPick,        ///< PostCandidateScores + the NextQuestion that returns it
  kCapture,     ///< copying a coalesced NN batch for the replay (tracing)
  kSink,        ///< the loop delivering questions and scheduling answers
  kWal,         ///< SessionStore::LogAnswer + SyncFile
  kCheckpoint,  ///< CheckpointAll + BeginEpoch + SyncFile
  kLayerCount
};

constexpr const char* kLayerNames[kLayerCount] = {
    "core.session.start", "core.scheduler.post", "core.session.answer",
    "core.scheduler.tick", "core.session.pick",  "trace.capture",
    "bench.sink",          "store.wal",           "store.checkpoint"};

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;   ///< enclosing span (the span that caused this one)
  int32_t session = -1;  ///< user id for session-scoped spans
  Layer layer = kStart;
};

/// In-memory span store. Disabled, Begin/End read no clock and store
/// nothing — the same loop then measures the tracing overhead.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  int32_t Begin(Layer layer, int32_t session) {
    if (!enabled_) return -1;
    spans_.push_back(Span{NowNs(), 0, open_, session, layer});
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return open_;
  }

  /// Closes span `index`; returns its duration (0 when disabled).
  int64_t End(int32_t index) {
    if (index < 0) return 0;
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = NowNs();
    open_ = span.parent;
    return span.end_ns - span.start_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<double>& pick_us() { return pick_us_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  int32_t open_ = -1;
  std::vector<double> pick_us_;  ///< per fresh question: scores + NextQuestion
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, Layer layer, int32_t session = -1)
      : tracer_(tracer), index_(tracer.Begin(layer, session)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early; returns its duration in nanoseconds.
  int64_t Close() {
    const int64_t ns = tracer_.End(index_);
    index_ = -1;
    return ns;
  }

 private:
  Tracer& tracer_;
  int32_t index_;
};

// ---- coalesced-batch capture ----------------------------------------------

/// The rows one Tick() scored through one model, copied for the NN replay.
struct TickBatch {
  const nn::ModelSnapshot* model = nullptr;
  size_t cols = 0;
  size_t rows = 0;
  std::vector<double> values;
};

/// Where TimedSession copies scored rows during the current Tick (null
/// outside a Tick, and in the untraced loop).
struct CaptureSlot {
  TickBatch* current = nullptr;
};

/// Decorator that forwards every InteractionSession call to the wrapped
/// session and times the ones that do a layer's work. ScoringModel() returns
/// the inner session's snapshot pointer, so the scheduler coalesces exactly
/// as it would without the wrapper.
class TimedSession final : public InteractionSession {
 public:
  TimedSession(std::unique_ptr<InteractionSession> inner, Tracer& tracer,
               int32_t id, CaptureSlot* capture)
      : inner_(std::move(inner)), tracer_(tracer), id_(id), capture_(capture) {}

  std::optional<SessionQuestion> NextQuestion() override {
    // Re-polls of an already-delivered question are the scheduler's per-tick
    // scan; only the call that returns a freshly picked question is the
    // session's work.
    if (!fresh_) return inner_->NextQuestion();
    fresh_ = false;
    ScopedSpan span(tracer_, kPick, id_);
    std::optional<SessionQuestion> q = inner_->NextQuestion();
    tracer_.pick_us().push_back(
        static_cast<double>(pending_pick_ns_ + span.Close()) * 1e-3);
    pending_pick_ns_ = 0;
    return q;
  }

  void PostAnswer(Answer answer) override {
    fresh_ = true;
    ScopedSpan span(tracer_, kAnswer, id_);
    inner_->PostAnswer(answer);
  }

  void Cancel() override {
    fresh_ = true;
    inner_->Cancel();
  }
  bool Finished() const override { return inner_->Finished(); }
  InteractionResult Finish() override { return inner_->Finish(); }

  const Matrix* PendingCandidateFeatures() const override {
    return inner_->PendingCandidateFeatures();
  }
  const nn::ModelSnapshot* ScoringModel() const override {
    return inner_->ScoringModel();
  }

  void PostCandidateScores(const double* scores, size_t count) override {
    if (capture_ != nullptr && capture_->current != nullptr) {
      ScopedSpan span(tracer_, kCapture, id_);
      const Matrix* features = inner_->PendingCandidateFeatures();
      TickBatch& batch = *capture_->current;
      batch.model = inner_->ScoringModel();
      batch.cols = features->cols();
      batch.rows += features->rows();
      batch.values.insert(batch.values.end(), features->row(0),
                          features->row(0) + features->rows() * features->cols());
    }
    ScopedSpan span(tracer_, kPick, id_);
    inner_->PostCandidateScores(scores, count);
    pending_pick_ns_ += span.Close();
  }

  uint64_t ModelVersion() const override { return inner_->ModelVersion(); }
  std::optional<Vec> HarvestUtility() const override {
    return inner_->HarvestUtility();
  }
  Result<std::string> SaveState() const override {
    return inner_->SaveState();
  }

 private:
  std::unique_ptr<InteractionSession> inner_;
  Tracer& tracer_;
  int32_t id_;
  CaptureSlot* capture_;
  bool fresh_ = true;
  int64_t pending_pick_ns_ = 0;
};

// ---- replays ----------------------------------------------------------------

/// Per-answer times of the pieces a session's PostAnswer runs, measured by
/// re-running them from outside on the answers the session received.
struct ReplayTimes {
  std::vector<double> geometry_us;
  std::vector<double> actions_us;
  std::vector<double> state_us;
  std::vector<double> terminal_us;
  double answer_ns = 0.0;  ///< Σ of every piece over every answer
  double geometry_ns = 0.0;
  double actions_ns = 0.0;
  double size_sum = 0.0;  ///< polyhedron vertices (EA) or |H| (AA)
  size_t size_count = 0;
  size_t unasked = 0;     ///< asked questions the replay did not offer
  size_t wrong_best = 0;  ///< sessions whose replay ends elsewhere

  void Add(double geometry, double actions, double state, double terminal,
           double size) {
    geometry_us.push_back(geometry);
    if (actions > 0.0) actions_us.push_back(actions);
    if (state > 0.0) state_us.push_back(state);
    terminal_us.push_back(terminal);
    geometry_ns += geometry * 1e3;
    actions_ns += actions * 1e3;
    answer_ns += (geometry + actions + state + terminal) * 1e3;
    size_sum += size;
    ++size_count;
  }
};

template <typename Fn>
double TimedUs(Fn&& fn) {
  const int64_t start = NowNs();
  fn();
  return static_cast<double>(NowNs() - start) * 1e-3;
}

template <typename Action>
bool Offered(const std::vector<Action>& actions, const Question& q) {
  for (const Action& a : actions) {
    if (a.q.i == q.i && a.q.j == q.j) return true;
  }
  return false;
}

/// One session's geometry re-run from outside, in the session's Rng order,
/// one recorded answer at a time.
class Replay {
 public:
  virtual ~Replay() = default;
  /// Replays the answer to `q`, timing each piece into `out`.
  virtual void Apply(const Question& q, Answer answer, ReplayTimes& out) = 0;
  /// The recommendation the session ends on, according to the replay.
  virtual size_t Best() const = 0;
};

/// Ea::Session's PostAnswer: TryCut, then PlanRound (IsTerminalRange,
/// BuildEaActionSpace), EncodeEaState and the centroid recommendation.
class EaReplay final : public Replay {
 public:
  EaReplay(const Ea& ea, const Dataset& sky, uint64_t seed)
      : opt_(ea.options()),
        sky_(sky),
        rng_(seed),
        range_(Polyhedron::UnitSimplex(sky.dim())) {
    Plan();
    best_ = sky_.TopIndex(range_.Centroid());
  }

  void Apply(const Question& q, Answer answer, ReplayTimes& out) override {
    if (!Offered(actions_, q)) ++out.unasked;
    const bool prefers_i = answer == Answer::kFirst;
    const Halfspace cut = PreferenceHalfspace(
        sky_.point(prefers_i ? q.i : q.j), sky_.point(prefers_i ? q.j : q.i));
    bool kept = false;
    const double geometry_us = TimedUs([&] { kept = range_.TryCut(cut); });
    Plan();
    // A dropped (contradicting) answer re-plans but keeps the state and the
    // recommendation, exactly as the session does.
    double state_us = 0.0;
    if (kept && !terminal_ && !actions_.empty()) {
      state_us = TimedUs([&] { (void)EncodeEaState(range_, opt_.state); });
    }
    if (kept) {
      terminal_us_ += TimedUs([&] {
        best_ = terminal_ ? winner_ : sky_.TopIndex(range_.Centroid());
      });
    }
    out.Add(geometry_us, actions_us_, state_us, terminal_us_,
            static_cast<double>(range_.vertices().size()));
  }

  size_t Best() const override { return terminal_ ? winner_ : best_; }

 private:
  void Plan() {
    terminal_ = false;
    actions_.clear();
    terminal_us_ = 0.0;
    actions_us_ = 0.0;
    if (range_.IsEmpty()) return;
    bool certified = false;
    terminal_us_ = TimedUs([&] {
      certified =
          IsTerminalRange(sky_, range_.vertices(), opt_.epsilon, &winner_);
    });
    if (certified) {
      terminal_ = true;
      return;
    }
    EaActionSpace space;
    actions_us_ = TimedUs([&] {
      space = BuildEaActionSpace(sky_, range_, opt_.epsilon, opt_.actions, rng_);
    });
    if (space.actions.empty() && !space.winners.empty()) {
      terminal_ = true;
      winner_ = space.winners.front();
    }
    actions_ = std::move(space.actions);
  }

  const EaOptions& opt_;
  const Dataset& sky_;
  Rng rng_;
  Polyhedron range_;
  bool terminal_ = false;
  size_t winner_ = 0;
  size_t best_ = 0;
  std::vector<EaAction> actions_;
  double terminal_us_ = 0.0;
  double actions_us_ = 0.0;
};

/// Aa::Session's PostAnswer: ComputeAaGeometry (2d+1 LPs), EncodeAaState,
/// BuildAaActionSpace, and the stop test with the midpoint recommendation.
class AaReplay final : public Replay {
 public:
  AaReplay(const Aa& aa, const Dataset& sky, uint64_t seed)
      : aa_(aa), sky_(sky), rng_(seed) {
    geo_ = ComputeAaGeometry(sky_.dim(), h_);
    actions_ = BuildAaActionSpace(sky_, h_, geo_, aa_.options().actions, rng_);
    best_ = sky_.TopIndex((geo_.e_min + geo_.e_max) / 2.0);
  }

  void Apply(const Question& q, Answer answer, ReplayTimes& out) override {
    if (!Offered(actions_, q)) ++out.unasked;
    const bool prefers_i = answer == Answer::kFirst;
    LearnedHalfspace lh;
    lh.winner = prefers_i ? q.i : q.j;
    lh.loser = prefers_i ? q.j : q.i;
    lh.h = PreferenceHalfspace(sky_.point(lh.winner), sky_.point(lh.loser));
    h_.push_back(std::move(lh));
    const double geometry_us =
        TimedUs([&] { geo_ = ComputeAaGeometry(sky_.dim(), h_); });
    if (!geo_.feasible) {
      ++out.unasked;  // consistent answers never make H infeasible
      actions_.clear();
      return;
    }
    const double state_us = TimedUs([&] { (void)EncodeAaState(geo_); });
    const double actions_us = TimedUs([&] {
      actions_ = BuildAaActionSpace(sky_, h_, geo_, aa_.options().actions, rng_);
    });
    const double terminal_us = TimedUs([&] {
      (void)(Distance(geo_.e_min, geo_.e_max) > aa_.StopDistance());
      best_ = sky_.TopIndex((geo_.e_min + geo_.e_max) / 2.0);
    });
    out.Add(geometry_us, actions_us, state_us, terminal_us,
            static_cast<double>(h_.size()));
  }

  size_t Best() const override { return best_; }

 private:
  const Aa& aa_;
  const Dataset& sky_;
  Rng rng_;
  std::vector<LearnedHalfspace> h_;
  AaGeometry geo_;
  std::vector<AaAction> actions_;
  size_t best_ = 0;
};

// ---- the single-threaded loop --------------------------------------------

using Steps = std::vector<std::pair<Question, Answer>>;

/// An answer due at a virtual time (milliseconds).
struct VirtualDue {
  double due_ms = 0.0;
  size_t local = 0;
  Answer answer = Answer::kFirst;

  bool operator>(const VirtualDue& other) const {
    return due_ms != other.due_ms ? due_ms > other.due_ms
                                  : local > other.local;
  }
};

/// One shard's share of the population (ids ≡ k mod kShards), driven the
/// way ShardedScheduler's worker drives its scheduler.
struct Partition {
  SessionScheduler scheduler;
  std::vector<size_t> users;       ///< local id → user index
  std::vector<uint8_t> delivered;  ///< question already handed out
  std::vector<Rng> think;          ///< per local id
  std::priority_queue<VirtualDue, std::vector<VirtualDue>,
                      std::greater<VirtualDue>>
      due;
  SessionStore store;
  std::string store_path;
  size_t since_checkpoint = 0;
  int64_t file_bytes = 0;
  size_t wal_replays = 0;
  CaptureSlot capture;
  TickBatch batch;  ///< the current tick's coalesced rows
  std::shared_ptr<const nn::ModelSnapshot> replica;
};

/// Everything the traced loop measures besides its spans.
struct Measured {
  ReplayTimes replay;
  double score_ns = 0.0;
  size_t score_rows = 0;
  size_t score_calls = 0;
  std::vector<double> wal_us;
  int64_t wal_bytes = 0;
  size_t wal_answers = 0;
  std::vector<double> checkpoint_ms;
  std::vector<double> snapshot_bytes_per_session;
  double restore_ms = 0.0;
  size_t ticks = 0;
  size_t runnable = 0;
  size_t reemits = 0;
  size_t slots = 0;
};

int64_t FileBytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size) : 0;
}

/// Drives the traced users through one SessionScheduler per shard partition
/// in virtual time, through public calls only: LogAnswer/SyncFile when
/// durable, TryPostAnswer, Tick, then the periodic checkpoint. A traced
/// loop records spans and, outside its busy time, replays every answer's
/// geometry, re-scores every coalesced batch and (without durability)
/// replays answer batches through a scratch store.
class TraceLoop {
 public:
  TraceLoop(const Workload& w, const Setup& setup,
         std::vector<SimUser>& users, double compression, bool traced,
         std::string prefix, Report& report)
      : w_(w),
        setup_(setup),
        users_(users),
        compression_(compression),
        traced_(traced),
        prefix_(std::move(prefix)),
        report_(report),
        tracer_(traced),
        steps_(users.size()) {
    for (size_t k = 0; k < kShards; ++k) {
      parts_.push_back(std::make_unique<Partition>());
      parts_[k]->store_path = Format("%s.shard%zu", prefix_.c_str(), k);
    }
  }

  /// Admission (StartSession + Add per user), the durable initial
  /// checkpoint, and each partition's first tick.
  void Admit() {
    const int64_t start = NowNs();
    for (size_t i = 0; i < users_.size(); ++i) {
      const size_t k = i % kShards;
      Partition& p = *parts_[k];
      InteractiveAlgorithm* clone = setup_.clones[k].get();
      {
        ScopedSpan span(tracer_, kStart, static_cast<int32_t>(i));
        auto timed = std::make_unique<TimedSession>(
            clone->StartSession(SessionConfigFor(users_[i])), tracer_,
            static_cast<int32_t>(i), traced_ ? &p.capture : nullptr);
        p.scheduler.Add(std::move(timed), clone);
      }
      p.users.push_back(i);
      p.delivered.push_back(0);
      p.think.emplace_back(users_[i].think_seed);
      if (traced_) Exclude([&] { replays_.push_back(MakeReplay(i)); });
    }
    for (auto& p : parts_) {
      if (w_.durable) Checkpoint(*p, /*traced=*/true);
      TickAndDeliver(*p, 0.0, p->users.size(), {});
    }
    busy_ns_ += NowNs() - start;
  }

  size_t Active() const {
    size_t active = 0;
    for (const auto& p : parts_) active += p->scheduler.active();
    return active;
  }

  /// The earliest virtual due time of any scheduled answer; < 0 if none.
  double NextDue() const {
    double next = -1.0;
    for (const auto& p : parts_) {
      if (!p->due.empty() && (next < 0.0 || p->due.top().due_ms < next)) {
        next = p->due.top().due_ms;
      }
    }
    return next;
  }

  /// Applies, per partition, every answer due before virtual time `vt`.
  void Step(double vt) {
    const int64_t start = NowNs();
    for (auto& p : parts_) {
      std::vector<VirtualDue> batch;
      while (!p->due.empty() && p->due.top().due_ms < vt) {
        batch.push_back(p->due.top());
        p->due.pop();
      }
      if (!batch.empty()) Apply(*p, batch, vt);
    }
    busy_ns_ += NowNs() - start;
  }

  /// Restores each shard from its store file as recovery would. Without
  /// durability, first checkpoints the live population into a scratch
  /// store, so the store layer is measured on every workload. Not part of
  /// the busy time.
  void ProbeStore() {
    probed_ = true;
    // Counted as busy and excluded alike, so it nets out of busy_s().
    const int64_t probe_start = NowNs();
    Exclude([&] { ProbeShards(); });
    busy_ns_ += NowNs() - probe_start;
  }

  /// Takes every session's result; checks the replayed recommendations.
  std::vector<Outcome> Collect() {
    std::vector<Outcome> outcomes(users_.size());
    for (auto& p : parts_) {
      for (size_t local = 0; local < p->users.size(); ++local) {
        Result<InteractionResult> result = p->scheduler.TryTake(local);
        if (!result.ok()) continue;
        const size_t user = p->users[local];
        outcomes[user] = ToOutcome(*result);
        if (traced_ && replays_[user]->Best() != result->best_index) {
          ++measured_.replay.wrong_best;
        }
      }
    }
    return outcomes;
  }

  /// Wall time spent driving, without replays and probes.
  double busy_s() const {
    return static_cast<double>(busy_ns_ - excluded_ns_) * 1e-9;
  }
  Tracer& tracer() { return tracer_; }
  const Measured& measured() const { return measured_; }
  const std::vector<Steps>& steps() const { return steps_; }

 private:
  static constexpr size_t kWalReplayBatches = 256;

  void ProbeShards() {
    for (size_t k = 0; k < kShards; ++k) {
      Partition& p = *parts_[k];
      if (!w_.durable) Checkpoint(p, /*traced=*/false);
      const int64_t start = NowNs();
      Result<SessionStore> loaded = SessionStore::LoadFile(p.store_path);
      if (!loaded.ok()) {
        report_.Check(false, "probe load: " + loaded.status().ToString());
        continue;
      }
      InteractiveAlgorithm* clone = setup_.clones[k].get();
      Result<SessionScheduler> restored = RecoverScheduler(
          *loaded, [clone](const std::string&) { return clone; });
      measured_.restore_ms += static_cast<double>(NowNs() - start) * 1e-6;
      report_.Check(restored.ok(),
                    "probe restore: " + restored.status().ToString());
      if (restored.ok()) {
        // Replay stops after the last logged answer; the tick that followed
        // it is what finishes sessions whose last answer ended them.
        (void)restored->Tick();
        report_.Check(restored->active() == p.scheduler.active(),
                      Format("probe restore: %zu active sessions recovered, "
                             "%zu live",
                             restored->active(), p.scheduler.active()));
      }
    }
  }

  /// Runs `fn` outside the busy time (nested calls count once).
  template <typename Fn>
  void Exclude(Fn&& fn) {
    if (excluding_) {
      fn();
      return;
    }
    excluding_ = true;
    const int64_t start = NowNs();
    fn();
    excluded_ns_ += NowNs() - start;
    excluding_ = false;
  }

  std::unique_ptr<Replay> MakeReplay(size_t user) const {
    const uint64_t seed = users_[user].session_seed;
    if (w_.algo == Algo::kEa) {
      return std::make_unique<EaReplay>(
          static_cast<const Ea&>(*setup_.trained), *setup_.skyline, seed);
    }
    return std::make_unique<AaReplay>(static_cast<const Aa&>(*setup_.trained),
                                      *setup_.skyline, seed);
  }

  /// CheckpointAll + BeginEpoch + SyncFile; a span unless it runs inside
  /// the store probe.
  void Checkpoint(Partition& p, bool traced) {
    const int64_t start = NowNs();
    std::optional<ScopedSpan> span;
    if (traced) span.emplace(tracer_, kCheckpoint);
    Result<std::string> snapshot = p.scheduler.CheckpointAll();
    if (!snapshot.ok()) {
      report_.Check(false, "checkpoint: " + snapshot.status().ToString());
      return;
    }
    const double bytes = static_cast<double>(snapshot->size()) /
                         static_cast<double>(p.scheduler.size());
    p.store.BeginEpoch(std::move(*snapshot));
    const Status synced = p.store.SyncFile(p.store_path);
    span.reset();
    measured_.checkpoint_ms.push_back(static_cast<double>(NowNs() - start) *
                                      1e-6);
    measured_.snapshot_bytes_per_session.push_back(bytes);
    report_.Check(synced.ok(), "checkpoint sync: " + synced.ToString());
    Exclude([&] { p.file_bytes = FileBytes(p.store_path); });
  }

  /// Logs `records` to the partition's store and syncs it, timing the pair.
  void SyncWal(Partition& p, const std::vector<VirtualDue>& batch,
               bool traced) {
    const int64_t start = NowNs();
    std::optional<ScopedSpan> span;
    if (traced) span.emplace(tracer_, kWal);
    for (const VirtualDue& b : batch) p.store.LogAnswer(b.local, b.answer);
    const Status synced = p.store.SyncFile(p.store_path);
    span.reset();
    measured_.wal_us.push_back(static_cast<double>(NowNs() - start) * 1e-3);
    report_.Check(synced.ok(), "WAL sync: " + synced.ToString());
    Exclude([&] {
      const int64_t now_bytes = FileBytes(p.store_path);
      measured_.wal_bytes += now_bytes - p.file_bytes;
      p.file_bytes = now_bytes;
    });
    measured_.wal_answers += batch.size();
  }

  void Apply(Partition& p, const std::vector<VirtualDue>& batch, double vt) {
    if (w_.durable) SyncWal(p, batch, /*traced=*/true);
    for (const VirtualDue& b : batch) {
      const size_t user = p.users[b.local];
      {
        ScopedSpan span(tracer_, kPost, static_cast<int32_t>(user));
        const Status posted = p.scheduler.TryPostAnswer(b.local, b.answer);
        if (!posted.ok()) report_.Check(false, "post: " + posted.ToString());
      }
      if (traced_) {
        Exclude([&] {
          replays_[user]->Apply(steps_[user].back().first, b.answer,
                                measured_.replay);
        });
      }
    }
    TickAndDeliver(p, vt, batch.size(), batch);
    if (traced_ && probed_ && !w_.durable &&
        p.wal_replays < kWalReplayBatches) {
      ++p.wal_replays;
      Exclude([&] { SyncWal(p, batch, /*traced=*/false); });
    }
  }

  void TickAndDeliver(Partition& p, double vt, size_t runnable,
                      const std::vector<VirtualDue>& batch) {
    if (traced_) {
      p.batch = TickBatch{};
      p.capture.current = &p.batch;
    }
    std::vector<PendingQuestion> questions;
    {
      ScopedSpan span(tracer_, kTick);
      questions = p.scheduler.Tick();
    }
    if (traced_) {
      p.capture.current = nullptr;
      if (p.batch.rows > 0) Exclude([&] { ReplayScoring(p); });
    }
    ++measured_.ticks;
    measured_.runnable += runnable;
    measured_.slots += p.scheduler.size();
    if (w_.durable && w_.checkpoint_every_ticks > 0 &&
        ++p.since_checkpoint >= w_.checkpoint_every_ticks) {
      p.since_checkpoint = 0;
      Checkpoint(p, /*traced=*/true);
    }

    ScopedSpan span(tracer_, kSink);
    for (const VirtualDue& b : batch) p.delivered[b.local] = 0;
    for (const PendingQuestion& pq : questions) {
      if (p.delivered[pq.session_id]) {
        ++measured_.reemits;
        continue;
      }
      p.delivered[pq.session_id] = 1;
      const size_t user = p.users[pq.session_id];
      const Answer answer =
          users_[user].oracle.Ask(pq.question.first, pq.question.second);
      const double due =
          steps_[user].empty()
              ? users_[user].arrival_s * compression_ * 1e3
              : vt + DrawThink(p.think[pq.session_id], w_.think_s) * 1e3;
      steps_[user].emplace_back(pq.question.pair, answer);
      p.due.push(VirtualDue{due, pq.session_id, answer});
    }
    // Free the re-emitted copies while the span is open: with hundreds of
    // parked sessions per shard this is a visible per-tick cost.
    questions.clear();
  }

  /// Re-submits the tick's coalesced batch through ModelSnapshot::Score on
  /// a replica (its own inference scratch).
  void ReplayScoring(Partition& p) {
    if (p.replica == nullptr) p.replica = p.batch.model->Replicate();
    const size_t rows = p.batch.rows;
    Matrix m(rows, p.batch.cols, std::move(p.batch.values));
    const int64_t start = NowNs();
    const Vec scores = p.replica->Score(m);
    measured_.score_ns += static_cast<double>(NowNs() - start);
    measured_.score_rows += scores.dim();
    ++measured_.score_calls;
  }

  const Workload& w_;
  const Setup& setup_;
  std::vector<SimUser>& users_;
  /// Arrival times are scaled by this factor (see RunTraced).
  double compression_;
  bool traced_;
  std::string prefix_;
  Report& report_;
  Tracer tracer_;
  std::vector<Steps> steps_;
  std::vector<std::unique_ptr<Replay>> replays_;
  std::vector<std::unique_ptr<Partition>> parts_;
  Measured measured_;
  bool probed_ = false;
  int64_t busy_ns_ = 0;
  int64_t excluded_ns_ = 0;
  bool excluding_ = false;
};

}  // namespace

std::vector<Outcome> RunTraced(const Workload& w, uint64_t seed,
                               const std::string& tmp_dir, Report& report) {
  Setup setup = BuildSetup(w);
  const Dataset& sky = *setup.skyline;
  std::vector<SimUser> users =
      MakeUsers(w, std::min(w.users, w.traced_users), sky.dim(), seed);
  const size_t n = users.size();
  report.Note(Format("%s traced: skyline %zu x %zu, %zu users, delta %.3g ms",
                     w.name.c_str(), sky.size(), sky.dim(), n, w.delta_ms));

  // The subset's arrivals are compressed by n / w.users, so the offered
  // rate matches the paced phase's.
  const double compression =
      static_cast<double>(n) / static_cast<double>(std::max(n, w.users));

  // The same loop twice, in lockstep so both see the same host: spans off
  // (the overhead baseline and an untraced reference), and spans on.
  TraceLoop off(w, setup, users, compression, /*traced=*/false,
             tmp_dir + "/traced-off", report);
  TraceLoop on(w, setup, users, compression, /*traced=*/true,
            tmp_dir + "/traced", report);
  off.Admit();
  on.Admit();
  const double probe_ms = w.arrival_s * compression * 1e3;
  bool probed = false;
  double vt = 0.0;
  for (size_t step = 0; on.Active() > 0 || off.Active() > 0; ++step) {
    const double next = on.NextDue();
    if (next < 0.0) {
      report.Check(false, "traced: sessions stay active with no answer due");
      break;
    }
    // Jump to the first batching window that holds a due answer; window
    // boundaries stay on the Δ grid, so tick composition repeats exactly.
    vt = std::max(vt + w.delta_ms,
                  (std::floor(next / w.delta_ms) + 1.0) * w.delta_ms);
    if (step % 2 == 0) {
      off.Step(vt);
      on.Step(vt);
    } else {
      on.Step(vt);
      off.Step(vt);
    }
    if (!probed && vt >= probe_ms) {
      on.ProbeStore();
      probed = true;
    }
  }
  const std::vector<Outcome> base = off.Collect();
  const std::vector<Outcome> outcomes = on.Collect();
  const Measured& m = on.measured();
  const ReplayTimes& replay = m.replay;

  // ---- correctness --------------------------------------------------------
  CheckOutcomes(w, sky, users, outcomes, "traced", report);
  CheckIdentical(base, outcomes, "traced vs untraced loop", report);
  size_t answers = 0;
  double rounds = 0.0;
  size_t aborted = 0;
  for (size_t i = 0; i < n; ++i) {
    answers += on.steps()[i].size();
    rounds += static_cast<double>(outcomes[i].rounds);
    if (outcomes[i].termination == Termination::kAborted) ++aborted;
  }
  report.CountAttempts(2 * (n + answers), aborted);

  // ---- span accounting ----------------------------------------------------
  const std::vector<Span>& spans = on.tracer().spans();
  std::vector<double> self_ns(kLayerCount, 0.0);
  double top_ns = 0.0;
  std::vector<double> start_us, answer_us, tick_ms;
  for (const Span& s : spans) {
    const double ns = static_cast<double>(s.end_ns - s.start_ns);
    self_ns[s.layer] += ns;
    if (s.parent >= 0) {
      self_ns[spans[static_cast<size_t>(s.parent)].layer] -= ns;
    } else {
      top_ns += ns;
    }
    if (s.layer == kStart) start_us.push_back(ns * 1e-3);
    if (s.layer == kAnswer) answer_us.push_back(ns * 1e-3);
    if (s.layer == kTick) tick_ms.push_back(ns * 1e-6);
  }
  const double wall_ns = on.busy_s() * 1e9;
  double answer_total_ns = 0.0;
  for (double us : answer_us) answer_total_ns += us * 1e3;
  const double scheduler_self_ns = self_ns[kTick] - m.score_ns;
  auto share = [wall_ns](double ns) { return wall_ns > 0 ? ns / wall_ns : 0.0; };

  // ---- layer table ----------------------------------------------------------
  report.Note(Format("layer table: traced wall %.3f s, %zu answers, %zu ticks "
                     "(self time; shares sum to 100%%)",
                     on.busy_s(), answers, m.ticks));
  double listed = 0.0;
  auto row = [&](const std::string& name, double ns, bool counted) {
    report.Note(Format("  %-36s %10.2f ms %7.2f%%", name.c_str(), ns * 1e-6,
                       100.0 * share(ns)));
    if (counted) listed += ns;
  };
  const bool ea = w.algo == Algo::kEa;
  for (int l = 0; l < kLayerCount; ++l) {
    if (l == kTick) {
      row("core.scheduler.tick (self)", scheduler_self_ns, true);
      row("  nn.registry Score (replay)", m.score_ns, true);
      continue;
    }
    row(kLayerNames[l], self_ns[static_cast<size_t>(l)], true);
    if (l == kAnswer) {
      row(ea ? "  geometry.polyhedron TryCut (replay)"
             : "  core.aa_state LPs (replay)",
          replay.geometry_ns, false);
      row(ea ? "  core.ea_actions (replay)" : "  core.aa_actions (replay)",
          replay.actions_ns, false);
      row("  state, terminal test (replay)",
          replay.answer_ns - replay.geometry_ns - replay.actions_ns, false);
      row("  not replayed", self_ns[kAnswer] - replay.answer_ns, false);
    }
  }
  row("untraced (loop bookkeeping)", wall_ns - top_ns, true);
  report.Note(Format("  %-36s %10.2f ms %7.2f%%", "total", listed * 1e-6,
                     100.0 * share(listed)));

  // ---- per-layer metrics ----------------------------------------------------
  const double ticks = static_cast<double>(std::max<size_t>(1, m.ticks));
  report.Metric("core.scheduler.tick_ms_p50", Quantile(tick_ms, 0.5), "ms");
  report.Metric("core.scheduler.tick_ms_p90", Quantile(tick_ms, 0.9), "ms");
  report.Metric("core.scheduler.batch_mean",
                static_cast<double>(m.runnable) / ticks, "count");
  report.Metric("core.scheduler.reemit_per_tick",
                static_cast<double>(m.reemits) / ticks, "count");
  report.Metric("core.scheduler.self_ns_per_slot",
                scheduler_self_ns /
                    static_cast<double>(std::max<size_t>(1, m.slots)),
                "ns");
  report.Metric("core.scheduler.self_share", share(scheduler_self_ns),
                "fraction");
  report.Metric("core.session.start_us_p50", Median(start_us), "us");
  report.Metric("core.session.answer_us_p50", Median(answer_us), "us");
  report.Metric("core.session.answer_us_p90", Quantile(answer_us, 0.9), "us");
  report.Metric("core.session.pick_us_p50", Median(on.tracer().pick_us()),
                "us");
  report.Metric("core.session.answer_share", share(answer_total_ns),
                "fraction");
  report.Metric("core.session.rounds_mean", rounds / static_cast<double>(n),
                "questions");
  report.Metric("core.geometry.us_p50", Median(replay.geometry_us), "us");
  report.Metric("core.geometry.share", share(replay.geometry_ns), "fraction");
  report.Metric("core.geometry.size_mean",
                replay.size_count == 0
                    ? 0.0
                    : replay.size_sum / static_cast<double>(replay.size_count),
                "count");
  report.Metric("core.actions.us_p50", Median(replay.actions_us), "us");
  report.Metric("core.actions.share", share(replay.actions_ns), "fraction");
  report.Metric("core.state.us_p50", Median(replay.state_us), "us");
  report.Metric("core.terminal.us_p50", Median(replay.terminal_us), "us");
  const double coverage =
      answer_total_ns > 0 ? replay.answer_ns / answer_total_ns : 0.0;
  report.Metric("core.replay_coverage", coverage, "fraction");
  report.Metric("nn.score_rows_per_call",
                m.score_calls == 0 ? 0.0
                                   : static_cast<double>(m.score_rows) /
                                         static_cast<double>(m.score_calls),
                "count");
  report.Metric("nn.score_ns_per_row",
                m.score_rows == 0
                    ? 0.0
                    : m.score_ns / static_cast<double>(m.score_rows),
                "ns");
  report.Metric("nn.share", share(m.score_ns), "fraction");
  report.Metric("store.wal_sync_us_p50", Median(m.wal_us), "us");
  report.Metric("store.wal_sync_us_p90", Quantile(m.wal_us, 0.9), "us");
  report.Metric("store.wal_bytes_per_answer",
                m.wal_answers == 0 ? 0.0
                                   : static_cast<double>(m.wal_bytes) /
                                         static_cast<double>(m.wal_answers),
                "bytes");
  report.Metric("store.checkpoint_ms_p50", Median(m.checkpoint_ms), "ms");
  report.Metric("store.snapshot_bytes_per_session",
                Median(m.snapshot_bytes_per_session), "bytes");
  report.Metric("store.restore_ms", m.restore_ms, "ms");
  // 0 without durability, so not part of the JSON result.
  report.Info("store.share",
              w.durable ? share(self_ns[kWal] + self_ns[kCheckpoint]) : 0.0,
              "fraction");
  report.Metric("trace.coverage", share(top_ns), "fraction");
  report.Metric("trace.overhead_frac",
                off.busy_s() > 0 ? (on.busy_s() - off.busy_s()) / off.busy_s()
                                 : 0.0,
                "fraction");
  // Measurement quality, not correctness: a noisy host can push these out
  // of range without anything being wrong with the engine's results, and
  // the replay copies the sessions' call order and Rng use, which a correct
  // engine change may alter.
  if (replay.unasked > 0 || replay.wrong_best > 0) {
    report.Note(Format("WARNING: the replay diverged from the sessions (%zu "
                       "asked questions not in the replayed action space, %zu "
                       "sessions ending elsewhere); the replayed layer times "
                       "no longer describe the answers",
                       replay.unasked, replay.wrong_best));
  }
  if (share(top_ns) < 0.95) {
    report.Note(Format("WARNING: trace.coverage %.3f is below 0.95; the "
                       "layer table misses part of the wall time",
                       share(top_ns)));
  }
  if (coverage < 0.9 || coverage > 1.1) {
    report.Note(Format("WARNING: core.replay_coverage %.3f is outside "
                       "[0.9, 1.1]; the replayed pieces do not add up to "
                       "the answers",
                       coverage));
  }
  report.Note(Format("%s: traced outcome digest %016llx over %zu users",
                     w.name.c_str(),
                     static_cast<unsigned long long>(Digest(outcomes, n)), n));
  return outcomes;
}

}  // namespace isrl::e2e
