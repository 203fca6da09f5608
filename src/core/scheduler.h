// Multi-session scheduler: interleaves many sans-IO interaction sessions on
// one thread and coalesces their candidate-scoring work into shared batched
// inference calls (DESIGN.md §13).
//
// One in-flight user no longer pins a thread: the scheduler holds every
// session between its PostAnswer and the next NextQuestion, and each Tick()
// advances all runnable sessions at once. RL sessions (EA/AA) that are
// about to pick a question expose their row-stacked candidate features
// through the InteractionSession scoring protocol; the scheduler stacks the
// rows of every runnable session pinning the same ModelSnapshot into ONE
// batched Score call per tick — the PR-4 GEMM kernels finally run at
// cross-session batch sizes instead of one round's pool, and after a
// registry hot-swap (DESIGN.md §18) old-pin and new-pin sessions simply
// form separate groups. Because batched scoring is bit-identical per row at
// any batch size and the argmax is per-session, every session still picks
// exactly the action it would have picked scoring itself: scheduler results
// equal sequential Interact() results whenever the sessions are seeded
// (SessionConfig::seed).
// Durability (DESIGN.md §14): the scheduler's population can be checkpointed
// as one framed blob (CheckpointAll/RestoreAll), and SessionStore adds a
// write-ahead answer log on top — every answer is logged before it is
// applied, so replaying "last population snapshot + WAL" reconstructs the
// exact pre-crash state.
#ifndef ISRL_CORE_SCHEDULER_H_
#define ISRL_CORE_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/algorithm.h"
#include "core/metrics.h"
#include "user/user.h"

namespace isrl {

/// A question emitted by Tick() or InFlight(): which session asks what.
struct PendingQuestion {
  size_t session_id = 0;
  SessionQuestion question;
};

/// Maps an algorithm name (InteractiveAlgorithm::name()) to the live
/// instance that should reopen its sessions at restore time. Returning
/// nullptr means "unknown algorithm": the slot degrades to an aborted
/// session instead of failing the whole restore.
using AlgorithmResolver =
    std::function<InteractiveAlgorithm*(const std::string& name)>;

/// Called once per session as it finishes (terminates, cancels, or arrives
/// already-finished), with the session id and its distilled trace record —
/// the feed of the continuous-learning loop (DESIGN.md §18). Invoked
/// synchronously from Tick()/TryCancel()/Add(), so it must not call back
/// into the scheduler.
using HarvestSink = std::function<void(size_t, const SessionTraceRecord&)>;

/// Single-threaded cooperative scheduler over InteractionSessions. Typical
/// drive loop:
///
///   SessionScheduler scheduler;
///   for (...) scheduler.Add(algorithm.StartSession(config));  // seeded!
///   // (after RecoverScheduler: answer scheduler.InFlight() first)
///   while (scheduler.active() > 0) {
///     for (const PendingQuestion& pq : scheduler.Tick()) {
///       scheduler.PostAnswer(pq.session_id, AnswerSomehow(pq.question));
///     }
///   }
///   ... scheduler.Take(id) ...
///
/// Answers may arrive in any order and across any number of ticks — a
/// session whose user is still thinking simply stays out of the next
/// tick's batch, and a Tick() visits only the sessions made runnable since
/// the last one. Each question is emitted once; InFlight() is the only
/// re-emission path (DESIGN.md §13). Determinism: sessions are processed in
/// id order and the coalesced batch only changes *which rows share a GEMM
/// call*, never a row's scores, so results are independent of answer
/// arrival order.
///
/// Concurrency contract (DESIGN.md §16): a SessionScheduler is NOT
/// internally synchronized — it is a single-threaded object that holds no
/// locks of its own. When one is reached from more than one thread, every
/// access must be externally serialized by a capability the callers share;
/// the sharded serving engine does exactly that, embedding each shard's
/// scheduler as `SessionScheduler scheduler ISRL_GUARDED_BY(exec_mu)`
/// (serve/sharding.h), so the clang thread-safety lane proves no call —
/// Tick, TryPostAnswer, TryTake, CheckpointAll — slips outside the lock.
/// Keep it this way: adding internal locking here would hide lock-order
/// relationships from the analysis and re-serialize the per-shard fan-out.
class SessionScheduler {
 public:
  using SessionId = size_t;

  /// Adopts a session; returns its id (dense, starting at 0). Sessions of
  /// stochastic algorithms MUST be seeded (SessionConfig::seed) — unseeded
  /// sessions share the algorithm's member Rng, whose draw order would then
  /// depend on scheduling.
  SessionId Add(std::unique_ptr<InteractionSession> session);

  /// Like Add(), but also records which algorithm owns the session so that
  /// CheckpointAll() can name it in the population snapshot. Required for
  /// every slot that should survive a checkpoint.
  SessionId Add(std::unique_ptr<InteractionSession> session,
                InteractiveAlgorithm* algorithm);

  /// Serialises the whole population into one framed snapshot
  /// ("scheduler-population"): per slot, the owning algorithm's name plus
  /// the session's SaveState() bytes (taken slots keep only a marker,
  /// aborted slots keep their status). Fails if a live session was Add()ed
  /// without its algorithm or does not support SaveState().
  Result<std::string> CheckpointAll() const;

  /// Rebuilds a scheduler from CheckpointAll() bytes. A corrupt frame is a
  /// hard error; a *per-slot* failure (unknown algorithm, rejected session
  /// snapshot) degrades that slot to a finished session whose result is
  /// Termination::kAborted carrying the cause — the scheduler keeps serving
  /// every other slot (DESIGN.md §14). `models` (optional) is handed to
  /// every RestoreSession via SessionConfig::models, so sessions saved
  /// under a registry version re-pin that exact snapshot (DESIGN.md §18).
  static Result<SessionScheduler> RestoreAll(const std::string& bytes,
                                             const AlgorithmResolver& resolver,
                                             nn::ModelProvider* models = nullptr);

  /// Installs the trace-harvest sink (replacing any previous one). Applies
  /// to sessions that finish afterwards; set it before Add()ing sessions to
  /// also catch ones that terminate inside StartSession.
  void SetHarvestSink(HarvestSink sink) { harvest_ = std::move(sink); }

  /// Advances every runnable session to its next question. First coalesces
  /// pending candidate scoring: the feature rows of all runnable sessions
  /// are grouped by pinned model snapshot (in first-seen session order),
  /// each group runs one batched Score, and the per-session slices are
  /// posted back. Then NextQuestion() is collected per session in id order.
  /// Sessions that terminate contribute no question, become finished and
  /// are appended to `finished` when given. Awaiting sessions are skipped.
  std::vector<PendingQuestion> Tick(std::vector<SessionId>* finished = nullptr);

  /// Every awaiting session's outstanding question again, in id order: for
  /// users who may have lost it, after RecoverScheduler or a serving restart.
  std::vector<PendingQuestion> InFlight();

  /// Delivers a user's answer; the session becomes runnable for the next
  /// Tick(). The id must currently be awaiting an answer (thin checked
  /// wrapper over TryPostAnswer — crashes on misuse, for trusted drivers).
  void PostAnswer(SessionId id, Answer answer);

  /// Status-returning form for serving front-ends, where a stale client can
  /// legitimately double-post or answer a finished session and must get an
  /// error back instead of killing the process: NotFound for an unknown id,
  /// FailedPrecondition when the session has no outstanding question
  /// (already answered this round, already finished, or result taken).
  Status TryPostAnswer(SessionId id, Answer answer);

  /// Cancels a session mid-episode (the user walked away); it finishes with
  /// its best-so-far recommendation. NotFound for an unknown id, Ok
  /// otherwise (cancelling an already-finished or taken session is an
  /// idempotent no-op).
  Status TryCancel(SessionId id);

  bool finished(SessionId id) const;

  /// True while the session has an asked-but-unanswered question (the state
  /// WAL replay must reach before re-posting a logged answer).
  bool awaiting(SessionId id) const;

  /// True once the slot's result has been handed out via Take/TryTake.
  bool taken(SessionId id) const;

  /// The finished session's result (invalidates the slot). Checked wrapper
  /// over TryTake — crashes on misuse.
  InteractionResult Take(SessionId id);

  /// Status-returning Take: NotFound for an unknown id, FailedPrecondition
  /// when the session has not finished or was already taken.
  Result<InteractionResult> TryTake(SessionId id);

  /// Sessions not yet finished.
  size_t active() const { return active_; }
  size_t size() const { return slots_.size(); }

 private:
  enum class SlotState { kRunnable, kAwaitingAnswer, kFinished, kTaken };

  struct Slot {
    std::unique_ptr<InteractionSession> session;
    SlotState state = SlotState::kRunnable;
    /// Owner used by CheckpointAll() to name the session's algorithm;
    /// nullptr for sessions added without one and for aborted stubs.
    InteractiveAlgorithm* algorithm = nullptr;
    /// Non-OK iff this slot degraded to an aborted stub at restore time
    /// (kept so a re-checkpoint can carry the cause forward).
    Status abort_status = Status::Ok();
  };

  /// Feeds the finished session at `id` to the harvest sink (no-op without
  /// a sink or for slots whose session was discarded).
  void EmitHarvest(SessionId id);

  std::vector<Slot> slots_;
  /// Ids made runnable since the last Tick() (cancelled ones are skipped).
  std::vector<SessionId> ready_;
  size_t active_ = 0;
  HarvestSink harvest_;
};

/// Convenience driver for simulation: answers every pending question from
/// the per-session oracle `users[id]`, InFlight() first, until all sessions
/// finish. Returns the results in session-id order. This is the batched
/// counterpart of N sequential Interact() calls — identical results (for
/// seeded sessions), one coalesced PredictBatch per network per tick
/// instead of one per session per round.
std::vector<InteractionResult> DriveWithUsers(
    SessionScheduler& scheduler,
    const std::vector<UserOracle*>& users);

/// One write-ahead-log record: an answer (or cancellation) delivered to a
/// session after the population snapshot was taken.
struct WalRecord {
  static constexpr uint8_t kAnswer = 0;
  static constexpr uint8_t kCancel = 1;

  size_t session_id = 0;
  uint8_t kind = kAnswer;
  Answer answer = Answer::kFirst;  ///< meaningful only when kind == kAnswer
};

/// Durable scheduler state: the latest population snapshot plus the answer
/// WAL accumulated since it was taken. The contract (DESIGN.md §14):
///
///   1. BeginEpoch(CheckpointAll()) — snapshot the population, clear the WAL.
///   2. For every answer: LogAnswer() FIRST, then scheduler.PostAnswer().
///   3. On crash, RecoverScheduler(store, resolver) replays the WAL on top
///      of the snapshot and yields a scheduler bit-identical to the one
///      that crashed.
///
/// Serialize() encodes the pair as one framed "session-store" blob, and
/// SyncFile() keeps a file of it current; either may be called at any point
/// (typically right after each log append).
///
/// Like SessionScheduler, a SessionStore is externally synchronized: the
/// sharded engine guards each shard's store with the same `exec_mu`
/// capability as its scheduler, which also orders every LogAnswer/SyncFile
/// against the PostAnswer it write-ahead-logs (DESIGN.md §16).
class SessionStore {
 public:
  /// Adopts a new population snapshot and clears the WAL: everything logged
  /// before this instant is now baked into the snapshot.
  void BeginEpoch(std::string population_snapshot);

  /// Appends an answer record. Call BEFORE PostAnswer (write-ahead).
  void LogAnswer(size_t session_id, Answer answer);

  /// Appends a cancellation record. Call BEFORE Cancel.
  void LogCancel(size_t session_id);

  const std::string& population() const { return population_; }
  const std::vector<WalRecord>& wal() const { return wal_; }

  std::string Serialize() const;

  /// Durable persistence. The first call after BeginEpoch (or on a fresh
  /// store) atomically rewrites `path` with the full store; later calls
  /// append ONLY the WAL records logged since the previous sync, as framed
  /// delta records, then fsync — O(new answers) per call instead of
  /// O(population + whole log). Call after LogAnswer/LogCancel and before
  /// applying the answer to keep the write-ahead contract durable on disk,
  /// not just in memory. A failed write may leave a torn tail, so it resets
  /// the cursor: the next call rewrites the whole file atomically again.
  Status SyncFile(const std::string& path);

  /// Reads a store file: a full-store frame followed by the delta frames
  /// SyncFile appended (a lone full-store frame, as older builds also
  /// wrote, is the zero-delta case). A torn or corrupted tail — the expected shape of a crash
  /// mid-append — is discarded at the last complete frame; a file whose
  /// leading full-store frame is unreadable is an error.
  static Result<SessionStore> LoadFile(const std::string& path);

 private:
  /// Decodes a full-store frame's payload (already CRC-checked by the
  /// caller's frame read).
  static Result<SessionStore> DecodePayload(const std::string& payload);

  std::string population_;
  std::vector<WalRecord> wal_;
  /// SyncFile cursor: whether the current epoch's full-store frame is on
  /// disk, and how many WAL records have been persisted.
  bool epoch_synced_ = false;
  size_t synced_wal_ = 0;
};

/// Snapshot-then-replay recovery: RestoreAll(store.population()) followed by
/// an in-order replay of the WAL. Replay never consults a user — answers
/// come from the log — so user-side Rng streams are untouched. Records
/// addressed at slots that degraded to aborted stubs are skipped (the stub
/// absorbed the session); a record that a *healthy* session cannot accept is
/// a hard "WAL out of sync" error, because it means the log and snapshot do
/// not belong together.
/// `models` flows into RestoreAll so registry-pinned sessions reopen under
/// the exact version they were saved with (DESIGN.md §18). Questions the log
/// left unanswered come back through InFlight(), not Tick().
Result<SessionScheduler> RecoverScheduler(const SessionStore& store,
                                          const AlgorithmResolver& resolver,
                                          nn::ModelProvider* models = nullptr);

}  // namespace isrl

#endif  // ISRL_CORE_SCHEDULER_H_
