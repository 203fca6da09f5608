// Sharded multi-threaded serving engine (DESIGN.md §15).
//
// The §13 SessionScheduler interleaves thousands of sans-IO sessions on one
// thread; this layer composes N of them into a population-scale serving
// engine: one scheduler shard per worker thread, sessions hashed to shards
// by id, a mutex-sharded inbound answer queue per shard, and — because each
// shard is a whole SessionScheduler — one coalesced PredictBatch per
// Q-network per shard per tick. The boundary API (TryPostAnswer/TryCancel/
// TryTake) is thread-safe and Status-returning: a stale or hostile client
// gets an error back, never an ISRL_CHECK abort, which is what a server
// front-end needs.
//
// Determinism: a seeded session's episode is a pure function of its seed
// and its own answers (PR 2/5 contracts) — scheduling decides only *when*
// a session advances and *which rows share a GEMM call* (bit-identical per
// row at any batch size), never what a session computes. Seeded populations
// therefore finish bit-identical to the single-threaded SessionScheduler at
// ANY shard count, pinned by tests/test_serving.cc.
//
// Sharing rules: every session MUST be seeded (SessionConfig::seed), and
// sessions on different shards must not share mutable state. Baseline
// algorithms (UH-*, SinglePass, UtilityApprox) only read const state once
// seeded, so one instance may serve every shard; EA/AA sessions score
// through their algorithm's Q-network, whose PredictBatch uses per-network
// scratch buffers — start each shard's sessions from a per-shard
// CloneForEval() of the algorithm (identical weights ⇒ identical scores ⇒
// bit-identical results).
//
// Durability (DESIGN.md §14) is per shard: EnableDurability gives every
// shard its own SessionStore backed by "<prefix>.shard<k>" — the worker
// write-ahead-logs each inbound batch with SessionStore::SyncFile (O(new
// answers) appends) before applying it, and re-snapshots its population
// every checkpoint_every_ticks ticks. A crashed process recovers every
// shard independently via Recover(); shards that stall or lose their file
// surface a Status, they do not take the population down.
#ifndef ISRL_SERVE_SHARDING_H_
#define ISRL_SERVE_SHARDING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/algorithm.h"
#include "core/scheduler.h"
#include "user/user.h"

namespace isrl::nn {
class ModelRegistry;
}  // namespace isrl::nn

namespace isrl {

struct ShardedOptions {
  /// Number of scheduler shards == worker threads. Sessions are routed by
  /// id % shards.
  size_t shards = 1;
  /// When durability is enabled: per-shard population re-snapshot cadence
  /// in ticks (0 = snapshot only at EnableDurability time). Matches
  /// DriveWithUsersDurable's checkpoint_every_ticks semantics.
  size_t checkpoint_every_ticks = 0;
};

/// Per-shard resolver for Recover: maps (shard, algorithm name) to the live
/// instance that reopens that shard's sessions. Handing each shard its own
/// CloneForEval() instance keeps RL scoring scratch unshared across worker
/// threads; returning nullptr degrades the slot (DESIGN.md §14).
using ShardAlgorithmResolver =
    std::function<InteractiveAlgorithm*(size_t shard, const std::string& name)>;

/// Per-shard model provider for Recover: maps a shard to the ModelProvider
/// its sessions re-pin registry versions through (SessionConfig::models).
/// Hand each shard its own ModelReplicaCache over the shared registry so
/// snapshot inference scratch stays unshared across worker threads
/// (DESIGN.md §18); nullptr (or a null result) restores without a provider.
using ShardModelProvider = std::function<nn::ModelProvider*(size_t shard)>;

/// N SessionScheduler shards pinned to worker threads behind a thread-safe
/// serving boundary. Lifecycle:
///
///   ShardedScheduler sharded(ShardedOptions{8});
///   for (...) sharded.Add(clone[i % 8]->StartSession(seeded_config), ...);
///   sharded.EnableDurability("/var/lib/isrl/pop");       // optional
///   sharded.Start([&](id, q) { /* deliver q to user id */ });
///   ... sharded.TryPostAnswer(id, answer) from any thread ...
///   sharded.WaitUntilDrained();
///   sharded.Stop();
///   ... sharded.TryTake(id) ...
///
/// Add/EnableDurability/Start/Stop are main-thread lifecycle calls;
/// TryPostAnswer/TryCancel are safe from any thread while serving.
class ShardedScheduler {
 public:
  using SessionId = size_t;
  /// Question delivery callback; invoked on the owning shard's worker
  /// thread, exactly once per question per Start(): a question still
  /// unanswered when serving stopped (or when the population was
  /// recovered) is delivered again by the next Start(). It may call
  /// TryPostAnswer/TryCancel, including for the session it was invoked for.
  using QuestionSink = std::function<void(SessionId, const SessionQuestion&)>;

  explicit ShardedScheduler(ShardedOptions options);
  ~ShardedScheduler();
  ShardedScheduler(const ShardedScheduler&) = delete;
  ShardedScheduler& operator=(const ShardedScheduler&) = delete;

  /// Adopts a session (routed to shard id % shards). Sessions MUST be
  /// seeded; the overload with `algorithm` is required for durable
  /// populations (mirrors SessionScheduler::Add).
  SessionId Add(std::unique_ptr<InteractionSession> session);
  SessionId Add(std::unique_ptr<InteractionSession> session,
                InteractiveAlgorithm* algorithm);

  /// Arms per-shard durability: each shard snapshots its population into
  /// its own SessionStore and writes "<prefix>.shard<k>" (atomic write +
  /// fsync). Call after Add()s and before Start(). Serving then
  /// write-ahead-logs every answer to the shard's file before applying it.
  /// When `registry` is given, the manifest also records its latest
  /// version + fingerprint, so Recover can refuse a provider that no longer
  /// serves the models this population's sessions are pinned to (§18).
  Status EnableDurability(const std::string& path_prefix,
                          const nn::ModelRegistry* registry = nullptr);

  /// The per-shard store file path: "<prefix>.shard<k>".
  static std::string ShardPath(const std::string& prefix, size_t shard);

  /// The manifest path: "<prefix>.manifest". EnableDurability records the
  /// shard count and population size there; Recover refuses shard files
  /// reopened under a different layout (which could otherwise alias a
  /// smaller consistent-looking population).
  static std::string ManifestPath(const std::string& prefix);

  /// Rebuilds a sharded population from the per-shard store files written
  /// by a durable serving run: every shard recovers independently
  /// (snapshot + WAL replay, RecoverScheduler semantics). The recovered
  /// engine is not yet durable — call EnableDurability (typically with the
  /// same prefix) to begin a fresh epoch, then Start().
  static Result<std::unique_ptr<ShardedScheduler>> Recover(
      const ShardedOptions& options, const std::string& path_prefix,
      const ShardAlgorithmResolver& resolver,
      const ShardModelProvider& models = nullptr);

  /// Installs a trace-harvest sink invoked with GLOBAL session ids as
  /// sessions finish (DESIGN.md §18). Main-thread lifecycle call (before
  /// Start, after Add/Recover). The sink runs on shard worker threads under
  /// the shard's exec capability: it must be thread-safe (e.g. a TraceStore)
  /// and must not call back into this engine.
  void SetHarvestSink(HarvestSink sink);

  /// Spawns one worker per shard and begins serving: workers drain their
  /// inbound queues, apply answers, tick their scheduler, and deliver new
  /// questions through `sink`. Each worker's first pass also delivers its
  /// shard's in-flight questions (SessionScheduler::InFlight()).
  void Start(QuestionSink sink);

  /// Blocks until every session has finished (returns Ok), a shard halts on
  /// a durability error (returns it), or Stop() is called from another
  /// thread (returns Ok with sessions possibly still active).
  Status WaitUntilDrained();

  /// Stops serving: workers drain already-queued answers, then exit and are
  /// joined. Idempotent. Unfinished sessions keep their state and can be
  /// checkpointed or resumed by a new Start().
  void Stop();

  // ---- Thread-safe serving boundary. -------------------------------------

  /// Queues a user's answer to the owning shard. NotFound for an unknown
  /// id; FailedPrecondition when the engine is not serving, the session has
  /// no outstanding question, an answer is already queued, the session
  /// already finished, or the shard has halted. Never crashes on client
  /// misuse.
  Status TryPostAnswer(SessionId id, Answer answer);

  /// Queues a cancellation. NotFound for an unknown id; cancelling an
  /// already-finished session is an idempotent Ok no-op.
  Status TryCancel(SessionId id);

  /// The finished session's result (invalidates the slot). Safe while
  /// serving; FailedPrecondition until the session has finished.
  Result<InteractionResult> TryTake(SessionId id);

  size_t shards() const { return shards_.size(); }
  size_t size() const { return size_; }
  /// Sessions not yet finished (approximate while workers are mid-tick).
  size_t active() const { return active_.load(std::memory_order_relaxed); }
  /// First durability/internal error across shards (Ok when healthy).
  Status error() const;

 private:
  /// Boundary-visible slot state, folded from each tick's questions and
  /// finished ids. The SessionScheduler's own state is worker-owned; this
  /// mirror is what the mutex-sharded boundary validates against without
  /// touching it.
  enum class Mirror : uint8_t {
    kRunnable,       ///< between answer application and the next tick
    kAwaiting,       ///< question out, no answer queued yet
    kAnswerQueued,   ///< answer in the inbox, not yet applied
    kCancelQueued,   ///< cancellation in the inbox
    kFinished,       ///< terminated; result available
    kTaken,          ///< result handed out
  };

  struct Inbound {
    size_t local_id = 0;
    uint8_t kind = WalRecord::kAnswer;
    Answer answer = Answer::kFirst;
  };

  /// Per-shard state, split across two capabilities (DESIGN.md §16).
  /// Lock hierarchy: `exec_mu` is acquired BEFORE `mu` wherever both are
  /// held (TryTake, and Halt called from under the worker's exec section);
  /// enforced by ISRL_ACQUIRED_BEFORE under -Wthread-safety-beta.
  struct Shard {
    /// Serializes scheduler execution: the worker's WAL+apply+tick section
    /// vs. TryTake on finished slots (the only cross-thread scheduler
    /// access), plus the stopped-worker lifecycle calls (Add,
    /// EnableDurability, Recover, Start), which take it uncontended.
    Mutex exec_mu ISRL_ACQUIRED_BEFORE(mu);
    SessionScheduler scheduler ISRL_GUARDED_BY(exec_mu);
    SessionStore store ISRL_GUARDED_BY(exec_mu);
    std::string store_path ISRL_GUARDED_BY(exec_mu);
    bool durable ISRL_GUARDED_BY(exec_mu) = false;
    /// scheduler.active() after the previous tick, for drain accounting.
    size_t last_active ISRL_GUARDED_BY(exec_mu) = 0;
    /// Ticks since the current durability epoch began.
    size_t ticks ISRL_GUARDED_BY(exec_mu) = 0;

    /// Guards the boundary-facing state below; never held across scheduler
    /// execution or sink delivery.
    Mutex mu;
    CondVar cv;  ///< signalled on inbox push and on Stop()
    std::vector<Inbound> inbox ISRL_GUARDED_BY(mu);
    std::vector<Mirror> mirror ISRL_GUARDED_BY(mu);
    Status error ISRL_GUARDED_BY(mu);
    bool halted ISRL_GUARDED_BY(mu) = false;

    /// Spawned by Start(), joined by Stop(); no capability — the thread
    /// object itself is only touched by main-thread lifecycle calls.
    std::thread worker;
  };

  Shard& ShardOf(SessionId id) { return *shards_[id % shards_.size()]; }
  size_t LocalOf(SessionId id) const { return id / shards_.size(); }
  SessionId GlobalOf(size_t shard, size_t local) const {
    return local * shards_.size() + shard;
  }

  /// TryPostAnswer/TryCancel: validates `kind` against the mirror and
  /// queues it to the owning shard's worker.
  Status Enqueue(SessionId id, uint8_t kind, Answer answer);
  void WorkerLoop(size_t shard_index);
  /// Marks the shard failed and wakes every waiter. Callable with exec_mu
  /// held (the worker's failure paths) but never with mu held — it takes mu
  /// itself, consistent with the exec_mu → mu hierarchy.
  void Halt(Shard& shard, Status cause) ISRL_EXCLUDES(shard.mu);
  void NotifyDrained() ISRL_EXCLUDES(drain_mu_);
  /// Rebuilds a shard's boundary mirror from its scheduler's state (used at
  /// Recover; the shard's worker must be stopped, and the caller holds both
  /// of the shard's capabilities).
  static void SyncMirror(Shard& shard)
      ISRL_REQUIRES(shard.exec_mu, shard.mu);

  ShardedOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t size_ = 0;  ///< written only while no worker runs (Add/Recover)
  std::atomic<size_t> active_{0};
  std::atomic<bool> stop_{true};
  std::atomic<bool> running_{false};
  std::atomic<bool> any_halted_{false};
  QuestionSink sink_;  ///< set by Start() before any worker is spawned
  /// Pure wakeup channel for WaitUntilDrained: the predicate reads only the
  /// atomics above, so the mutex guards no fields — it exists to make the
  /// notify/wait handoff race-free.
  Mutex drain_mu_;
  CondVar drain_cv_;
};

/// Convenience driver mirroring DriveWithUsers: serves every session
/// against its oracle `users[id]` on the shard workers until the population
/// drains, then collects results in session-id order. For seeded sessions
/// the results are bit-identical to DriveWithUsers on one SessionScheduler
/// (and to N sequential Interact() calls).
Result<std::vector<InteractionResult>> DriveSharded(
    ShardedScheduler& sharded, const std::vector<UserOracle*>& users);

}  // namespace isrl

#endif  // ISRL_SERVE_SHARDING_H_
