#include "serve/sharding.h"

#include <utility>

#include "common/check.h"
#include "common/mutex.h"
#include "common/strings.h"
#include "core/snapshot.h"
#include "nn/registry.h"

namespace isrl {

namespace {

constexpr char kManifestKind[] = "shard-manifest";
// v2 appended the registry's latest version + fingerprint so recovery can
// refuse a model provider that no longer serves this population's models.
constexpr uint32_t kManifestVersion = 2;

// A batch entry whose mirror said it was deliverable must be applicable to
// the shard's scheduler — a rejection means the mirror and the scheduler
// disagreed, which is an engine bug, not client misuse.
Status MirrorDesync(size_t shard, size_t local, const Status& cause) {
  return Status::Internal(
      Format("shard %zu: mirror accepted a record for local session %zu that "
             "its scheduler rejects — %s",
             shard, local, cause.message().c_str()));
}

}  // namespace

ShardedScheduler::ShardedScheduler(ShardedOptions options) : options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  shards_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ShardedScheduler::~ShardedScheduler() { Stop(); }

ShardedScheduler::SessionId ShardedScheduler::Add(
    std::unique_ptr<InteractionSession> session) {
  return Add(std::move(session), nullptr);
}

ShardedScheduler::SessionId ShardedScheduler::Add(
    std::unique_ptr<InteractionSession> session,
    InteractiveAlgorithm* algorithm) {
  ISRL_CHECK(!running_.load(std::memory_order_acquire));
  const SessionId id = size_++;
  Shard& shard = ShardOf(id);
  // No worker is running, but the capability contract is uniform: the
  // scheduler lives under exec_mu, the mirror under mu (uncontended here).
  MutexLock exec(shard.exec_mu);
  MutexLock lock(shard.mu);
  const size_t local = algorithm == nullptr
                           ? shard.scheduler.Add(std::move(session))
                           : shard.scheduler.Add(std::move(session), algorithm);
  ISRL_CHECK_EQ(local, LocalOf(id));
  // A session can finish inside StartSession; no tick will report it.
  const bool finished = shard.scheduler.finished(local);
  shard.mirror.push_back(finished ? Mirror::kFinished : Mirror::kRunnable);
  if (!finished) active_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::string ShardedScheduler::ShardPath(const std::string& prefix,
                                        size_t shard) {
  return Format("%s.shard%zu", prefix.c_str(), shard);
}

std::string ShardedScheduler::ManifestPath(const std::string& prefix) {
  return prefix + ".manifest";
}

Status ShardedScheduler::EnableDurability(const std::string& path_prefix,
                                          const nn::ModelRegistry* registry) {
  ISRL_CHECK(!running_.load(std::memory_order_acquire));
  for (size_t k = 0; k < shards_.size(); ++k) {
    Shard& shard = *shards_[k];
    MutexLock exec(shard.exec_mu);
    ISRL_ASSIGN_OR_RETURN(std::string snapshot, shard.scheduler.CheckpointAll());
    shard.store.BeginEpoch(std::move(snapshot));
    shard.store_path = ShardPath(path_prefix, k);
    ISRL_RETURN_IF_ERROR(shard.store.SyncFile(shard.store_path));
    shard.durable = true;
    shard.ticks = 0;
  }
  snapshot::Writer w;
  w.U64(shards_.size());
  w.U64(size_);
  std::shared_ptr<const nn::ModelSnapshot> latest =
      registry != nullptr ? registry->Latest() : nullptr;
  w.U8(latest != nullptr ? 1 : 0);
  if (latest != nullptr) {
    w.U64(latest->version());
    w.U64(latest->fingerprint());
  }
  return snapshot::WriteFileBytes(
      ManifestPath(path_prefix),
      snapshot::WrapFrame(kManifestKind, kManifestVersion, w.bytes()));
}

Result<std::unique_ptr<ShardedScheduler>> ShardedScheduler::Recover(
    const ShardedOptions& options, const std::string& path_prefix,
    const ShardAlgorithmResolver& resolver, const ShardModelProvider& models) {
  auto engine = std::make_unique<ShardedScheduler>(options);
  const size_t num_shards = engine->shards();

  ISRL_ASSIGN_OR_RETURN(std::string manifest_bytes,
                        snapshot::ReadFileBytes(ManifestPath(path_prefix)));
  // Manual frame parse instead of UnwrapFrame: v1 manifests (no registry
  // record) stay readable.
  size_t manifest_pos = 0;
  std::string manifest_kind;
  uint32_t manifest_version = 0;
  std::string manifest_payload;
  ISRL_RETURN_IF_ERROR(snapshot::ReadFrameAt(manifest_bytes, &manifest_pos,
                                             &manifest_kind, &manifest_version,
                                             &manifest_payload));
  if (manifest_kind != kManifestKind) {
    return Status::InvalidArgument(
        Format("shard manifest: frame is a '%s', expected '%s'",
               manifest_kind.c_str(), kManifestKind));
  }
  if (manifest_version == 0 || manifest_version > kManifestVersion) {
    return Status::InvalidArgument(
        Format("shard manifest: version skew (%u, this build reads <= %u)",
               manifest_version, kManifestVersion));
  }
  if (manifest_pos != manifest_bytes.size()) {
    return Status::InvalidArgument(
        "shard manifest: trailing bytes after frame");
  }
  snapshot::Reader manifest(manifest_payload);
  const size_t saved_shards = manifest.U64();
  const size_t saved_sessions = manifest.U64();
  bool has_registry = false;
  uint64_t latest_version = 0;
  uint64_t latest_fingerprint = 0;
  if (manifest_version >= 2) {
    has_registry = manifest.U8() != 0;
    if (has_registry) {
      latest_version = manifest.U64();
      latest_fingerprint = manifest.U64();
    }
  }
  ISRL_RETURN_IF_ERROR(manifest.status());
  if (!manifest.AtEnd()) {
    return Status::InvalidArgument("shard manifest: trailing payload bytes");
  }
  if (saved_shards != num_shards) {
    return Status::InvalidArgument(Format(
        "recover: the manifest records a %zu-shard population but %zu "
        "shards were requested — id routing would not match the files",
        saved_shards, num_shards));
  }

  size_t total = 0;
  for (size_t k = 0; k < num_shards; ++k) {
    ISRL_ASSIGN_OR_RETURN(SessionStore store,
                          SessionStore::LoadFile(ShardPath(path_prefix, k)));
    AlgorithmResolver local_resolver =
        [&resolver, k](const std::string& name) -> InteractiveAlgorithm* {
      return resolver ? resolver(k, name) : nullptr;
    };
    nn::ModelProvider* provider = models ? models(k) : nullptr;
    if (has_registry && provider != nullptr) {
      // The manifest pins the registry's head at checkpoint time; a provider
      // that cannot serve it (or serves different weights under the same
      // number) would make every per-session fingerprint check fail one by
      // one — refuse up front with the real cause instead.
      std::shared_ptr<const nn::ModelSnapshot> pinned =
          provider->Pin(latest_version);
      if (pinned == nullptr) {
        return Status::FailedPrecondition(Format(
            "recover: shard %zu's model provider does not serve registry "
            "version %llu recorded in the manifest",
            k, static_cast<unsigned long long>(latest_version)));
      }
      if (pinned->fingerprint() != latest_fingerprint) {
        return Status::FailedPrecondition(Format(
            "recover: shard %zu's model version %llu hashes to %016llx but "
            "the manifest records %016llx (different registry?)",
            k, static_cast<unsigned long long>(latest_version),
            static_cast<unsigned long long>(pinned->fingerprint()),
            static_cast<unsigned long long>(latest_fingerprint)));
      }
    }
    ISRL_ASSIGN_OR_RETURN(SessionScheduler scheduler,
                          RecoverScheduler(store, local_resolver, provider));
    Shard& shard = *engine->shards_[k];
    MutexLock exec(shard.exec_mu);
    shard.scheduler = std::move(scheduler);
    total += shard.scheduler.size();
  }
  if (total != saved_sessions) {
    return Status::InvalidArgument(Format(
        "recover: shard files hold %zu sessions but the manifest records "
        "%zu — the files do not belong to one run",
        total, saved_sessions));
  }
  engine->size_ = total;
  size_t active = 0;
  for (size_t k = 0; k < num_shards; ++k) {
    Shard& shard = *engine->shards_[k];
    MutexLock exec(shard.exec_mu);
    MutexLock lock(shard.mu);
    // Round-robin routing puts n/S (+1 for the first n%S shards) sessions
    // on shard k; a mismatch means the files come from runs with different
    // populations or shard counts.
    const size_t expect = total / num_shards + (k < total % num_shards ? 1 : 0);
    if (shard.scheduler.size() != expect) {
      return Status::InvalidArgument(Format(
          "recover: shard %zu holds %zu sessions but a %zu-session "
          "%zu-shard population puts %zu there — the shard files do not "
          "belong to one run",
          k, shard.scheduler.size(), total, num_shards, expect));
    }
    SyncMirror(shard);
    active += shard.scheduler.active();
  }
  engine->active_.store(active, std::memory_order_relaxed);
  return engine;
}

void ShardedScheduler::SetHarvestSink(HarvestSink sink) {
  ISRL_CHECK(!running_.load(std::memory_order_acquire));
  for (size_t k = 0; k < shards_.size(); ++k) {
    Shard& shard = *shards_[k];
    MutexLock exec(shard.exec_mu);
    if (!sink) {
      shard.scheduler.SetHarvestSink(nullptr);
      continue;
    }
    // Rebase the shard's local ids onto the global id space before handing
    // records to the caller's sink.
    shard.scheduler.SetHarvestSink(
        [this, k, sink](size_t local, const SessionTraceRecord& record) {
          sink(GlobalOf(k, local), record);
        });
  }
}

void ShardedScheduler::SyncMirror(Shard& shard) {
  const size_t n = shard.scheduler.size();
  shard.mirror.assign(n, Mirror::kRunnable);
  for (size_t i = 0; i < n; ++i) {
    if (shard.scheduler.taken(i)) {
      shard.mirror[i] = Mirror::kTaken;
    } else if (shard.scheduler.finished(i)) {
      shard.mirror[i] = Mirror::kFinished;
    } else if (shard.scheduler.awaiting(i)) {
      // Start()'s first pass delivers its question again (InFlight()).
      shard.mirror[i] = Mirror::kAwaiting;
    }
  }
}

void ShardedScheduler::Start(QuestionSink sink) {
  ISRL_CHECK(!running_.load(std::memory_order_acquire));
  sink_ = std::move(sink);
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (size_t k = 0; k < shards_.size(); ++k) {
    Shard& shard = *shards_[k];
    {
      MutexLock exec(shard.exec_mu);
      shard.last_active = shard.scheduler.active();
    }
    shard.worker = std::thread(&ShardedScheduler::WorkerLoop, this, k);
  }
}

void ShardedScheduler::Stop() {
  stop_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->cv.NotifyAll();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  running_.store(false, std::memory_order_release);
  NotifyDrained();
}

Status ShardedScheduler::WaitUntilDrained() {
  {
    MutexLock lock(drain_mu_);
    while (active_.load(std::memory_order_acquire) != 0 &&
           !any_halted_.load(std::memory_order_acquire) &&
           !stop_.load(std::memory_order_acquire)) {
      drain_cv_.Wait(drain_mu_);
    }
  }
  return error();
}

void ShardedScheduler::NotifyDrained() {
  {
    MutexLock lock(drain_mu_);
  }
  drain_cv_.NotifyAll();
}

void ShardedScheduler::Halt(Shard& shard, Status cause) {
  {
    MutexLock lock(shard.mu);
    if (!shard.halted) {
      shard.halted = true;
      shard.error = std::move(cause);
    }
    shard.inbox.clear();
  }
  any_halted_.store(true, std::memory_order_release);
  NotifyDrained();
}

Status ShardedScheduler::error() const {
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    if (!shard->error.ok()) return shard->error;
  }
  return Status::Ok();
}

Status ShardedScheduler::TryPostAnswer(SessionId id, Answer answer) {
  return Enqueue(id, WalRecord::kAnswer, answer);
}

Status ShardedScheduler::TryCancel(SessionId id) {
  return Enqueue(id, WalRecord::kCancel, Answer::kFirst);
}

Status ShardedScheduler::Enqueue(SessionId id, uint8_t kind, Answer answer) {
  if (id >= size_) {
    return Status::NotFound(
        Format("no session %zu (population of %zu)", id, size_));
  }
  Shard& shard = ShardOf(id);
  const size_t local = LocalOf(id);
  MutexLock lock(shard.mu);
  if (shard.halted) {
    return Status::FailedPrecondition(
        Format("session %zu's shard has halted: %s", id,
               shard.error.message().c_str()));
  }
  const Mirror state = shard.mirror[local];
  if (kind == WalRecord::kCancel) {
    if (state == Mirror::kFinished || state == Mirror::kTaken ||
        state == Mirror::kCancelQueued) {
      return Status::Ok();  // idempotent no-op, matching Cancel()
    }
  } else {
    switch (state) {
      case Mirror::kAwaiting:
        break;
      case Mirror::kRunnable:
        return Status::FailedPrecondition(
            Format("session %zu has no outstanding question", id));
      case Mirror::kAnswerQueued:
        return Status::FailedPrecondition(
            Format("session %zu already has an answer queued", id));
      case Mirror::kCancelQueued:
        return Status::FailedPrecondition(
            Format("session %zu has a cancellation queued", id));
      case Mirror::kFinished:
        return Status::FailedPrecondition(
            Format("session %zu has already finished", id));
      case Mirror::kTaken:
        return Status::FailedPrecondition(
            Format("session %zu's result was already taken", id));
    }
  }
  if (!running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "the engine is not serving (call Start() first)");
  }
  shard.mirror[local] = kind == WalRecord::kAnswer ? Mirror::kAnswerQueued
                                                   : Mirror::kCancelQueued;
  shard.inbox.push_back(Inbound{local, kind, answer});
  shard.cv.NotifyOne();
  return Status::Ok();
}

Result<InteractionResult> ShardedScheduler::TryTake(SessionId id) {
  if (id >= size_) {
    return Status::NotFound(
        Format("no session %zu (population of %zu)", id, size_));
  }
  Shard& shard = ShardOf(id);
  const size_t local = LocalOf(id);
  // Taking needs the scheduler itself, which the worker owns while serving:
  // exec_mu fences the worker's apply+tick, mu fences the mirror. Acquired
  // in hierarchy order (exec_mu before mu, DESIGN.md §16).
  MutexLock exec(shard.exec_mu);
  MutexLock lock(shard.mu);
  switch (shard.mirror[local]) {
    case Mirror::kFinished:
      break;
    case Mirror::kTaken:
      return Status::FailedPrecondition(
          Format("session %zu's result was already taken", id));
    default:
      return Status::FailedPrecondition(
          Format("session %zu has not finished", id));
  }
  ISRL_ASSIGN_OR_RETURN(InteractionResult result,
                        shard.scheduler.TryTake(local));
  shard.mirror[local] = Mirror::kTaken;
  return result;
}

void ShardedScheduler::WorkerLoop(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  std::vector<Inbound> batch;
  std::vector<size_t> finished;
  for (bool first = true;; first = false) {
    batch.clear();
    {
      MutexLock lock(shard.mu);
      while (!first && !stop_.load(std::memory_order_acquire) &&
             shard.inbox.empty()) {
        shard.cv.Wait(shard.mu);
      }
      if (shard.halted) return;
      batch.swap(shard.inbox);
      if (batch.empty() && stop_.load(std::memory_order_acquire)) return;
    }

    std::vector<PendingQuestion> questions;
    finished.clear();
    size_t drained_delta = 0;
    {
      MutexLock exec(shard.exec_mu);
      // Write-ahead: every record in this batch reaches the shard's store
      // file before any of them is applied (DESIGN.md §14) — one fsynced
      // append per batch, not per answer.
      if (shard.durable && !batch.empty()) {
        for (const Inbound& in : batch) {
          if (in.kind == WalRecord::kAnswer) {
            shard.store.LogAnswer(in.local_id, in.answer);
          } else {
            shard.store.LogCancel(in.local_id);
          }
        }
        Status synced = shard.store.SyncFile(shard.store_path);
        if (!synced.ok()) {
          Halt(shard, std::move(synced));
          return;
        }
      }
      for (const Inbound& in : batch) {
        Status applied =
            in.kind == WalRecord::kAnswer
                ? shard.scheduler.TryPostAnswer(in.local_id, in.answer)
                : shard.scheduler.TryCancel(in.local_id);
        if (!applied.ok()) {
          Halt(shard, MirrorDesync(shard_index, in.local_id, applied));
          return;
        }
      }
      questions = shard.scheduler.Tick(&finished);
      // The first pass after Start() delivers every outstanding question,
      // this tick's and those left unanswered by a Stop() or a crash: once
      // per Start(), the at-least-once contract of recovery (§14).
      if (first) questions = shard.scheduler.InFlight();
      if (shard.durable && options_.checkpoint_every_ticks > 0 &&
          ++shard.ticks >= options_.checkpoint_every_ticks) {
        shard.ticks = 0;
        Result<std::string> snapshot = shard.scheduler.CheckpointAll();
        if (!snapshot.ok()) {
          Halt(shard, snapshot.status());
          return;
        }
        shard.store.BeginEpoch(std::move(snapshot.value()));
        Status synced = shard.store.SyncFile(shard.store_path);
        if (!synced.ok()) {
          Halt(shard, std::move(synced));
          return;
        }
      }
      const size_t now_active = shard.scheduler.active();
      if (now_active < shard.last_active) {
        drained_delta = shard.last_active - now_active;
        shard.last_active = now_active;
      }
    }

    {
      MutexLock lock(shard.mu);
      // Fold the batch and the tick into the mirror. An applied answer
      // leaves its slot runnable until the tick's question (or finish)
      // below; an applied cancel finished its slot, which a client may
      // already have taken if the slot had finished before the cancel.
      for (const Inbound& in : batch) {
        Mirror& mirror = shard.mirror[in.local_id];
        if (in.kind == WalRecord::kCancel) {
          if (mirror != Mirror::kTaken) mirror = Mirror::kFinished;
        } else if (mirror == Mirror::kAnswerQueued) {
          mirror = Mirror::kRunnable;
        }
      }
      for (const size_t local : finished) {
        shard.mirror[local] = Mirror::kFinished;
      }
      // A slot re-delivered by the first pass may already have an answer
      // or cancellation queued by a client that saw it before a Stop();
      // only a runnable slot starts awaiting.
      for (const PendingQuestion& pq : questions) {
        Mirror& mirror = shard.mirror[pq.session_id];
        if (mirror == Mirror::kRunnable) mirror = Mirror::kAwaiting;
      }
    }

    // Deliver outside every lock: the sink may call TryPostAnswer/TryCancel
    // for any session, including this one.
    for (const PendingQuestion& pq : questions) {
      sink_(GlobalOf(shard_index, pq.session_id), pq.question);
    }

    if (drained_delta > 0 &&
        active_.fetch_sub(drained_delta, std::memory_order_acq_rel) ==
            drained_delta) {
      NotifyDrained();
    }
  }
}

Result<std::vector<InteractionResult>> DriveSharded(
    ShardedScheduler& sharded, const std::vector<UserOracle*>& users) {
  ISRL_CHECK_EQ(users.size(), sharded.size());
  sharded.Start([&](size_t id, const SessionQuestion& question) {
    const Answer answer = users[id]->Ask(question.first, question.second);
    // The only legitimate rejection here is a halted shard (surfaced below
    // via WaitUntilDrained); anything else would be a mirror bug caught by
    // the serving tests.
    (void)sharded.TryPostAnswer(id, answer);
  });
  Status drained = sharded.WaitUntilDrained();
  sharded.Stop();
  ISRL_RETURN_IF_ERROR(drained);
  std::vector<InteractionResult> results;
  results.reserve(users.size());
  for (size_t id = 0; id < users.size(); ++id) {
    ISRL_ASSIGN_OR_RETURN(InteractionResult result, sharded.TryTake(id));
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace isrl
