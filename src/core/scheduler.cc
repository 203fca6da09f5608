#include "core/scheduler.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/matrix.h"
#include "common/strings.h"
#include "common/vec.h"
#include "core/snapshot.h"
#include "nn/registry.h"

namespace isrl {

namespace {

constexpr const char* kPopulationKind = "scheduler-population";
constexpr uint32_t kPopulationVersion = 1;
constexpr const char* kStoreKind = "session-store";
constexpr uint32_t kStoreVersion = 1;
// Append-mode delta frame: WAL records logged after the leading full-store
// frame was written (SessionStore::SyncFile).
constexpr const char* kStoreWalKind = "session-store-wal";
constexpr uint32_t kStoreWalVersion = 1;

// Per-slot markers inside a population snapshot.
constexpr uint8_t kSlotLive = 0;     // algorithm name + session bytes follow
constexpr uint8_t kSlotTaken = 1;    // result already handed out; no payload
constexpr uint8_t kSlotAborted = 2;  // status code + message follow

/// Stand-in for a session whose snapshot could not be reopened: already
/// finished, and Finish() reports Termination::kAborted with the cause. The
/// scheduler keeps serving every other slot (DESIGN.md §14), and a
/// re-checkpoint of the degraded population carries the status forward.
class AbortedSession final : public InteractionSession {
 public:
  explicit AbortedSession(Status cause) {
    result_.termination = Termination::kAborted;
    result_.status = std::move(cause);
  }

  std::optional<SessionQuestion> NextQuestion() override {
    return std::nullopt;
  }
  void PostAnswer(Answer /*answer*/) override {}  // stale WAL records land here
  void Cancel() override {}
  bool Finished() const override { return true; }
  InteractionResult Finish() override { return result_; }

 private:
  InteractionResult result_;
};

}  // namespace

SessionScheduler::SessionId SessionScheduler::Add(
    std::unique_ptr<InteractionSession> session) {
  ISRL_CHECK(session != nullptr);
  Slot slot;
  slot.session = std::move(session);
  // A session can terminate inside StartSession (infeasible geometry, zero
  // budget); it then never becomes runnable.
  slot.state = slot.session->Finished() ? SlotState::kFinished
                                        : SlotState::kRunnable;
  const bool runnable = slot.state == SlotState::kRunnable;
  slots_.push_back(std::move(slot));
  const SessionId id = slots_.size() - 1;
  if (runnable) {
    ++active_;
    ready_.push_back(id);
  } else {
    EmitHarvest(id);
  }
  return id;
}

SessionScheduler::SessionId SessionScheduler::Add(
    std::unique_ptr<InteractionSession> session,
    InteractiveAlgorithm* algorithm) {
  ISRL_CHECK(algorithm != nullptr);
  SessionId id = Add(std::move(session));
  slots_[id].algorithm = algorithm;
  return id;
}

Result<std::string> SessionScheduler::CheckpointAll() const {
  snapshot::Writer w;
  w.U64(slots_.size());
  for (size_t id = 0; id < slots_.size(); ++id) {
    const Slot& slot = slots_[id];
    if (slot.state == SlotState::kTaken) {
      w.U8(kSlotTaken);
      continue;
    }
    if (!slot.abort_status.ok()) {
      // A slot that already degraded at a previous restore: keep the cause
      // so a restore-of-the-restore still reports it.
      w.U8(kSlotAborted);
      w.U8(static_cast<uint8_t>(slot.abort_status.code()));
      w.Str(slot.abort_status.message());
      continue;
    }
    if (slot.algorithm == nullptr) {
      return Status::FailedPrecondition(Format(
          "checkpoint: session %zu was added without its algorithm "
          "(use Add(session, algorithm) for durable populations)",
          id));
    }
    ISRL_ASSIGN_OR_RETURN(std::string bytes, slot.session->SaveState());
    w.U8(kSlotLive);
    w.Str(slot.algorithm->name());
    w.Str(bytes);
  }
  return snapshot::WrapFrame(kPopulationKind, kPopulationVersion, w.bytes());
}

Result<SessionScheduler> SessionScheduler::RestoreAll(
    const std::string& bytes, const AlgorithmResolver& resolver,
    nn::ModelProvider* models) {
  ISRL_ASSIGN_OR_RETURN(
      std::string payload,
      snapshot::UnwrapFrame(kPopulationKind, kPopulationVersion, bytes));
  snapshot::Reader r(payload);
  uint64_t count = r.U64();
  if (count > snapshot::kMaxElements) {
    r.Fail("implausible slot count");
  }
  SessionScheduler scheduler;
  for (uint64_t id = 0; !r.failed() && id < count; ++id) {
    uint8_t marker = r.U8();
    Slot slot;
    switch (marker) {
      case kSlotTaken:
        slot.state = SlotState::kTaken;
        break;
      case kSlotAborted: {
        uint8_t code = r.U8();
        std::string message = r.Str();
        if (code == static_cast<uint8_t>(StatusCode::kOk) ||
            code > static_cast<uint8_t>(StatusCode::kUnbounded)) {
          r.Fail("bad aborted-slot status code");
          break;
        }
        slot.abort_status = Status(static_cast<StatusCode>(code),
                                   std::move(message));
        slot.session = std::make_unique<AbortedSession>(slot.abort_status);
        slot.state = SlotState::kFinished;
        break;
      }
      case kSlotLive: {
        std::string name = r.Str();
        std::string session_bytes = r.Str();
        if (r.failed()) break;
        // Per-slot failures degrade just this slot; the frame itself is
        // fine, so the rest of the population still restores.
        Status cause = Status::Ok();
        InteractiveAlgorithm* algorithm = resolver ? resolver(name) : nullptr;
        if (algorithm == nullptr) {
          cause = Status::NotFound(Format(
              "restore: no algorithm registered for '%s'", name.c_str()));
        } else {
          SessionConfig restore_config;
          restore_config.models = models;
          Result<std::unique_ptr<InteractionSession>> session =
              algorithm->RestoreSession(session_bytes, restore_config);
          if (session.ok()) {
            slot.session = std::move(*session);
            slot.algorithm = algorithm;
            slot.state = slot.session->Finished() ? SlotState::kFinished
                                                  : SlotState::kRunnable;
          } else {
            cause = session.status();
          }
        }
        if (!cause.ok()) {
          slot.abort_status = std::move(cause);
          slot.session = std::make_unique<AbortedSession>(slot.abort_status);
          slot.state = SlotState::kFinished;
        }
        break;
      }
      default:
        r.Fail("bad slot marker");
        break;
    }
    if (r.failed()) break;
    if (slot.state == SlotState::kRunnable) {
      ++scheduler.active_;
      scheduler.ready_.push_back(scheduler.slots_.size());
    }
    scheduler.slots_.push_back(std::move(slot));
  }
  ISRL_RETURN_IF_ERROR(r.status());
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        "snapshot payload: trailing bytes after population");
  }
  return scheduler;
}

// Reached cross-thread only under the owning shard's exec_mu capability
// (serve/sharding.h); no internal locking by design — see the class comment.
std::vector<PendingQuestion> SessionScheduler::Tick(
    std::vector<SessionId>* finished) {
  // Visit only the ready list, in id order: the order a scan of every slot
  // would meet the runnable ones in. Ids cancelled since they were queued
  // fail the state checks below.
  std::sort(ready_.begin(), ready_.end());

  // Coalesced scoring pass: group the pending feature rows of all runnable
  // sessions by pinned model snapshot, in first-seen session order. Group
  // layout and batch size never affect a row's scores (batched scoring is
  // bit-identical per row), so this is purely a throughput optimisation —
  // and after a hot-swap, sessions pinning different registry versions
  // simply land in different groups (DESIGN.md §18).
  struct Group {
    const nn::ModelSnapshot* model;
    std::vector<double> rows;                        // row-major stack
    size_t cols = 0;
    std::vector<std::pair<size_t, size_t>> members;  // (session id, row count)
  };
  std::vector<Group> groups;
  for (const SessionId id : ready_) {
    Slot& slot = slots_[id];
    if (slot.state != SlotState::kRunnable) continue;
    const Matrix* features = slot.session->PendingCandidateFeatures();
    const nn::ModelSnapshot* model = slot.session->ScoringModel();
    if (features == nullptr || model == nullptr || features->rows() == 0) {
      continue;  // session scores itself (or has nothing to score)
    }
    Group* group = nullptr;
    for (Group& g : groups) {
      if (g.model == model) { group = &g; break; }
    }
    if (group == nullptr) {
      groups.push_back(Group{model, {}, features->cols(), {}});
      group = &groups.back();
    }
    ISRL_CHECK_EQ(group->cols, features->cols());
    const double* flat = features->row(0);
    group->rows.insert(group->rows.end(), flat,
                       flat + features->rows() * features->cols());
    group->members.emplace_back(id, features->rows());
  }
  for (Group& group : groups) {
    const size_t total = group.rows.size() / group.cols;
    Matrix batch(total, group.cols, std::move(group.rows));
    Vec scores = group.model->Score(batch);
    size_t offset = 0;
    for (const auto& [id, count] : group.members) {
      slots_[id].session->PostCandidateScores(&scores[offset], count);
      offset += count;
    }
  }

  // Question pass: collect every runnable session's next question, in id
  // order so any session-shared state (unseeded sessions, trace Rngs) is
  // consumed in a reproducible order.
  std::vector<PendingQuestion> questions;
  for (const SessionId id : ready_) {
    Slot& slot = slots_[id];
    if (slot.state != SlotState::kRunnable) continue;
    std::optional<SessionQuestion> question = slot.session->NextQuestion();
    if (question.has_value()) {
      slot.state = SlotState::kAwaitingAnswer;
      questions.push_back(PendingQuestion{id, std::move(*question)});
    } else {
      slot.state = SlotState::kFinished;
      --active_;
      EmitHarvest(id);
      if (finished != nullptr) finished->push_back(id);
    }
  }
  ready_.clear();
  return questions;
}

std::vector<PendingQuestion> SessionScheduler::InFlight() {
  std::vector<PendingQuestion> questions;
  for (size_t id = 0; id < slots_.size(); ++id) {
    Slot& slot = slots_[id];
    if (slot.state != SlotState::kAwaitingAnswer) continue;
    // NextQuestion() is idempotent while the answer is outstanding.
    std::optional<SessionQuestion> question = slot.session->NextQuestion();
    ISRL_CHECK(question.has_value());
    questions.push_back(PendingQuestion{id, std::move(*question)});
  }
  return questions;
}

void SessionScheduler::EmitHarvest(SessionId id) {
  if (!harvest_) return;
  Slot& slot = slots_[id];
  if (slot.session == nullptr) return;
  // Finish() is idempotent on a finished session; Take/TryTake can still
  // hand the result out later.
  const InteractionResult result = slot.session->Finish();
  SessionTraceRecord record;
  record.model_version = slot.session->ModelVersion();
  record.rounds = result.rounds;
  record.termination = result.termination;
  std::optional<Vec> utility = slot.session->HarvestUtility();
  if (utility.has_value()) {
    record.has_utility = true;
    record.utility = std::move(*utility);
  }
  harvest_(id, record);
}

void SessionScheduler::PostAnswer(SessionId id, Answer answer) {
  Status posted = TryPostAnswer(id, answer);
  if (!posted.ok()) {
    std::fprintf(stderr, "PostAnswer: %s\n", posted.ToString().c_str());
  }
  ISRL_CHECK(posted.ok());
}

Status SessionScheduler::TryPostAnswer(SessionId id, Answer answer) {
  if (id >= slots_.size()) {
    return Status::NotFound(Format("no session %zu (population of %zu)", id,
                                   slots_.size()));
  }
  Slot& slot = slots_[id];
  switch (slot.state) {
    case SlotState::kAwaitingAnswer:
      break;
    case SlotState::kRunnable:
      return Status::FailedPrecondition(Format(
          "session %zu has no outstanding question (already answered this "
          "round?)",
          id));
    case SlotState::kFinished:
      return Status::FailedPrecondition(
          Format("session %zu has already finished", id));
    case SlotState::kTaken:
      return Status::FailedPrecondition(
          Format("session %zu's result was already taken", id));
  }
  slot.session->PostAnswer(answer);
  slot.state = SlotState::kRunnable;
  ready_.push_back(id);
  return Status::Ok();
}

Status SessionScheduler::TryCancel(SessionId id) {
  if (id >= slots_.size()) {
    return Status::NotFound(Format("no session %zu (population of %zu)", id,
                                   slots_.size()));
  }
  Slot& slot = slots_[id];
  if (slot.state == SlotState::kFinished || slot.state == SlotState::kTaken) {
    return Status::Ok();  // idempotent no-op
  }
  slot.session->Cancel();
  slot.state = SlotState::kFinished;
  --active_;
  EmitHarvest(id);
  return Status::Ok();
}

bool SessionScheduler::finished(SessionId id) const {
  ISRL_CHECK_LT(id, slots_.size());
  return slots_[id].state == SlotState::kFinished;
}

bool SessionScheduler::awaiting(SessionId id) const {
  ISRL_CHECK_LT(id, slots_.size());
  return slots_[id].state == SlotState::kAwaitingAnswer;
}

bool SessionScheduler::taken(SessionId id) const {
  ISRL_CHECK_LT(id, slots_.size());
  return slots_[id].state == SlotState::kTaken;
}

InteractionResult SessionScheduler::Take(SessionId id) {
  Result<InteractionResult> result = TryTake(id);
  if (!result.ok()) {
    std::fprintf(stderr, "Take: %s\n", result.status().ToString().c_str());
  }
  ISRL_CHECK(result.ok());
  return std::move(*result);
}

Result<InteractionResult> SessionScheduler::TryTake(SessionId id) {
  if (id >= slots_.size()) {
    return Status::NotFound(Format("no session %zu (population of %zu)", id,
                                   slots_.size()));
  }
  Slot& slot = slots_[id];
  if (slot.state == SlotState::kTaken) {
    return Status::FailedPrecondition(
        Format("session %zu's result was already taken", id));
  }
  if (slot.state != SlotState::kFinished) {
    return Status::FailedPrecondition(
        Format("session %zu has not finished", id));
  }
  InteractionResult result = slot.session->Finish();
  result.converged = result.termination == Termination::kConverged;
  slot.state = SlotState::kTaken;
  slot.session.reset();
  return result;
}

std::vector<InteractionResult> DriveWithUsers(
    SessionScheduler& scheduler, const std::vector<UserOracle*>& users) {
  ISRL_CHECK_EQ(users.size(), scheduler.size());
  // A recovered population can hold questions asked before the crash; no
  // Tick() asks them again.
  for (std::vector<PendingQuestion> questions = scheduler.InFlight();
       scheduler.active() > 0; questions = scheduler.Tick()) {
    for (const PendingQuestion& pq : questions) {
      scheduler.PostAnswer(
          pq.session_id,
          users[pq.session_id]->Ask(pq.question.first, pq.question.second));
    }
  }
  std::vector<InteractionResult> results;
  results.reserve(scheduler.size());
  for (size_t id = 0; id < scheduler.size(); ++id) {
    results.push_back(scheduler.Take(id));
  }
  return results;
}

namespace {

/// Appends the count and the records of `wal` from index `begin` on (shared
/// by the full-store payload and the append-mode delta frames).
void EncodeWalRecords(const std::vector<WalRecord>& wal, size_t begin,
                      snapshot::Writer* w) {
  w->U64(wal.size() - begin);
  for (size_t i = begin; i < wal.size(); ++i) {
    w->U64(wal[i].session_id);
    w->U8(wal[i].kind);
    w->U8(static_cast<uint8_t>(wal[i].answer));
  }
}

/// Reads a counted run of WAL records that must end the payload. Returns
/// non-OK (and leaves `out` untouched) on any malformed byte, so a torn
/// append never contributes partial records.
Status DecodeWalRecords(snapshot::Reader* r, std::vector<WalRecord>* out) {
  uint64_t count = r->U64();
  if (count > snapshot::kMaxElements) r->Fail("implausible WAL length");
  std::vector<WalRecord> records;
  for (uint64_t i = 0; !r->failed() && i < count; ++i) {
    WalRecord record;
    record.session_id = r->U64();
    record.kind = r->U8();
    const uint8_t answer = r->U8();
    if (record.kind > WalRecord::kCancel) {
      r->Fail("bad WAL record kind");
    } else if (answer > static_cast<uint8_t>(Answer::kNoAnswer)) {
      r->Fail("bad WAL answer value");
    } else {
      record.answer = static_cast<Answer>(answer);
      records.push_back(record);
    }
  }
  ISRL_RETURN_IF_ERROR(r->status());
  if (!r->AtEnd()) {
    return Status::InvalidArgument(
        "snapshot payload: trailing bytes after WAL");
  }
  out->insert(out->end(), records.begin(), records.end());
  return Status::Ok();
}

}  // namespace

void SessionStore::BeginEpoch(std::string population_snapshot) {
  population_ = std::move(population_snapshot);
  wal_.clear();
  epoch_synced_ = false;
  synced_wal_ = 0;
}

void SessionStore::LogAnswer(size_t session_id, Answer answer) {
  wal_.push_back(WalRecord{session_id, WalRecord::kAnswer, answer});
}

void SessionStore::LogCancel(size_t session_id) {
  wal_.push_back(WalRecord{session_id, WalRecord::kCancel, Answer::kFirst});
}

std::string SessionStore::Serialize() const {
  snapshot::Writer w;
  w.Str(population_);
  EncodeWalRecords(wal_, 0, &w);
  return snapshot::WrapFrame(kStoreKind, kStoreVersion, w.bytes());
}

Result<SessionStore> SessionStore::DecodePayload(const std::string& payload) {
  snapshot::Reader r(payload);
  SessionStore store;
  store.population_ = r.Str();
  ISRL_RETURN_IF_ERROR(DecodeWalRecords(&r, &store.wal_));
  return store;
}

Status SessionStore::SyncFile(const std::string& path) {
  if (!epoch_synced_) {
    // First sync of this epoch: atomically replace the file with the full
    // store. Everything logged so far is baked into this frame.
    ISRL_RETURN_IF_ERROR(snapshot::WriteFileBytes(path, Serialize()));
    epoch_synced_ = true;
    synced_wal_ = wal_.size();
    return Status::Ok();
  }
  if (synced_wal_ > wal_.size()) {
    return Status::Internal(
        "session store sync cursor ahead of the WAL (store was mutated "
        "behind SyncFile's back)");
  }
  if (synced_wal_ == wal_.size()) return Status::Ok();
  snapshot::Writer w;
  EncodeWalRecords(wal_, synced_wal_, &w);
  Status appended = snapshot::AppendFileBytes(
      path, snapshot::WrapFrame(kStoreWalKind, kStoreWalVersion, w.bytes()));
  if (!appended.ok()) {
    // The append may have left a torn frame, and LoadFile stops reading
    // there: nothing may be appended after it. The next sync rewrites the
    // whole store atomically instead — the policy LoadFile applies to a
    // torn tail.
    epoch_synced_ = false;
    synced_wal_ = 0;
    return appended;
  }
  synced_wal_ = wal_.size();
  return Status::Ok();
}

Result<SessionStore> SessionStore::LoadFile(const std::string& path) {
  ISRL_ASSIGN_OR_RETURN(std::string bytes, snapshot::ReadFileBytes(path));
  // The leading frame must be a complete full-store frame (SyncFile writes
  // it atomically, so a crash cannot tear it — if it is unreadable the file
  // is corrupt, not torn).
  size_t pos = 0;
  std::string kind;
  uint32_t version = 0;
  std::string payload;
  ISRL_RETURN_IF_ERROR(
      snapshot::ReadFrameAt(bytes, &pos, &kind, &version, &payload));
  if (kind != kStoreKind) {
    return Status::InvalidArgument(Format(
        "session store file: leading frame is a '%s', expected '%s'",
        kind.c_str(), kStoreKind));
  }
  if (version != kStoreVersion) {
    return Status::InvalidArgument(Format(
        "session store file: version skew (%u, this build reads %u)",
        version, kStoreVersion));
  }
  ISRL_ASSIGN_OR_RETURN(SessionStore store, DecodePayload(payload));
  // Delta frames appended by SyncFile. A torn or corrupted tail is the
  // expected remains of a crash mid-append: recovery proceeds from the last
  // complete frame (the discarded answers were never applied durably — the
  // write-ahead contract re-asks those questions instead).
  bool clean_tail = true;
  while (pos < bytes.size()) {
    std::string delta_kind;
    uint32_t delta_version = 0;
    std::string delta_payload;
    Status frame = snapshot::ReadFrameAt(bytes, &pos, &delta_kind,
                                         &delta_version, &delta_payload);
    if (!frame.ok()) {
      clean_tail = false;
      break;
    }
    if (delta_kind != kStoreWalKind || delta_version != kStoreWalVersion) {
      clean_tail = false;  // foreign bytes: stop at the last good frame
      break;
    }
    snapshot::Reader delta(delta_payload);
    if (!DecodeWalRecords(&delta, &store.wal_).ok()) {
      clean_tail = false;
      break;
    }
  }
  // With a clean tail the loaded state is exactly what is on disk, so
  // further SyncFile calls against the same path may append in place. A
  // torn tail must not be appended after (the reader would stop at the torn
  // frame), so the next SyncFile does a full atomic rewrite instead.
  store.epoch_synced_ = clean_tail;
  store.synced_wal_ = clean_tail ? store.wal_.size() : 0;
  return store;
}

Result<SessionScheduler> RecoverScheduler(const SessionStore& store,
                                          const AlgorithmResolver& resolver,
                                          nn::ModelProvider* models) {
  ISRL_ASSIGN_OR_RETURN(
      SessionScheduler scheduler,
      SessionScheduler::RestoreAll(store.population(), resolver, models));
  // Replay the WAL on top of the snapshot. Answers were logged in delivery
  // order, and within one original Tick each session answers at most once —
  // so whenever the next record's target is runnable (not yet asked), ALL
  // answers of the previous tick have been replayed and one scheduler.Tick()
  // re-reaches exactly the original tick boundary. NextQuestion() is
  // idempotent and sessions restore bit-identically, so the replayed
  // questions equal the asked-and-logged ones.
  for (size_t i = 0; i < store.wal().size(); ++i) {
    const WalRecord& record = store.wal()[i];
    if (record.session_id >= scheduler.size()) {
      return Status::InvalidArgument(
          Format("recover: WAL record %zu targets unknown session %zu", i,
                 record.session_id));
    }
    if (scheduler.finished(record.session_id)) {
      // Degraded (aborted) or already-terminated slot: the record is stale;
      // absorbing it keeps one bad slot from blocking population recovery.
      continue;
    }
    if (record.kind == WalRecord::kCancel) {
      ISRL_RETURN_IF_ERROR(scheduler.TryCancel(record.session_id));
      continue;
    }
    if (!scheduler.awaiting(record.session_id)) {
      (void)scheduler.Tick();  // advance to the tick this record came from
    }
    if (scheduler.finished(record.session_id)) continue;  // terminated instead
    Status posted = scheduler.TryPostAnswer(record.session_id, record.answer);
    if (!posted.ok()) {
      // A record a healthy session cannot accept means the log and snapshot
      // do not belong together; surface it instead of crashing the process.
      return Status::FailedPrecondition(
          Format("recover: WAL record %zu out of sync — %s (log and "
                 "snapshot do not match)",
                 i, posted.message().c_str()));
    }
  }
  // Sessions the last replayed tick asked but the log never answered are
  // awaiting; their questions come back through InFlight(), not Tick().
  return scheduler;
}

}  // namespace isrl
