// Versioned model registry with atomic hot-swap (DESIGN.md §18).
//
// Serving code never holds a raw nn::Network or rl::DqnAgent: it holds
// immutable, fingerprinted ModelSnapshots handed out by a ModelRegistry.
// Publish() installs a new version by swapping one shared pointer under a
// mutex; sessions pin the snapshot they started with, so a publish never
// changes what an in-flight episode computes — hot-swap only affects
// sessions started after it. The fingerprint is the same §14 identity that
// session checkpoints bind to, so restore-under-the-wrong-model keeps
// failing with the precise FailedPrecondition it always has.
#ifndef ISRL_NN_REGISTRY_H_
#define ISRL_NN_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/vec.h"
#include "nn/network.h"

namespace isrl {
class Matrix;
}  // namespace isrl

namespace isrl::nn {

/// One immutable published model: a private copy of the network's weights
/// plus the version and §14 fingerprint they were published under. The
/// weights never change after construction; Score() is const but NOT
/// thread-safe (PredictBatch reuses per-layer scratch) — replicate per
/// thread (Replicate(), ModelReplicaCache) instead of sharing one snapshot
/// across concurrent scorers.
class ModelSnapshot {
 public:
  /// Copies `weights` and fingerprints the copy. Version 0 is reserved for
  /// an algorithm's unregistered live model (Ea/Aa::ServingModel);
  /// registry-published snapshots start at 1.
  ModelSnapshot(uint64_t version, const Network& weights);

  uint64_t version() const { return version_; }
  /// nn::NetworkFingerprint of the held weights — the identity §14 session
  /// snapshots bind to.
  uint64_t fingerprint() const { return fingerprint_; }

  /// Q-values of row-stacked candidate features, one per row. Bit-identical
  /// to scoring through the network the snapshot was published from.
  Vec Score(const Matrix& candidate_features) const;

  /// True when `other` holds exactly the same parameter values: layer kinds
  /// and dimensions, then every weight and bias compared bit for bit with
  /// the held copy (used to detect a stale live snapshot after out-of-band
  /// weight mutation).
  bool SameWeights(const Network& other) const;

  /// A fresh snapshot with the same version, fingerprint, and weights but
  /// its own inference scratch — one per thread/shard for concurrent Score.
  std::shared_ptr<const ModelSnapshot> Replicate() const;

  /// The snapshot's private network (for audit checks and retrain seeding).
  /// Weights are immutable by contract; only inference scratch may mutate.
  Network& network() const { return network_; }

 private:
  uint64_t version_;
  uint64_t fingerprint_;
  /// mutable: PredictBatch scratch. The parameters themselves are never
  /// written after the constructor.
  mutable Network network_;
};

/// Resolves a model version to a pinned snapshot — the restore-time hook
/// that lets checkpointed sessions re-pin the exact model they were saved
/// under (SessionConfig::models). Returns nullptr for unknown versions.
class ModelProvider {
 public:
  virtual ~ModelProvider() = default;
  virtual std::shared_ptr<const ModelSnapshot> Pin(uint64_t version) = 0;
};

/// Thread-safe versioned registry. Publish() copies the weights into a new
/// immutable snapshot and installs it as Latest() via a shared-pointer swap
/// under `mu_` — readers that already pinned a snapshot are untouched, and
/// every version stays pinnable until the registry dies. The mutex (rather
/// than std::atomic<shared_ptr>) keeps the swap inside the §16 clang
/// thread-safety analysis; the critical sections are a few pointer moves.
class ModelRegistry : public ModelProvider {
 public:
  /// Installs `weights` as the next version (1, 2, ...) and returns it.
  uint64_t Publish(const Network& weights);

  /// The most recently published snapshot (nullptr before any Publish).
  std::shared_ptr<const ModelSnapshot> Latest() const;
  /// Version of Latest() (0 before any Publish).
  uint64_t latest_version() const;

  /// The snapshot published as `version`, or nullptr when unknown.
  std::shared_ptr<const ModelSnapshot> Pin(uint64_t version) override;

  /// Published versions so far.
  size_t size() const;

  /// Persists every published version ("model-registry" frame, atomic
  /// write) so a restarted process can re-pin recovered sessions.
  Status SaveFile(const std::string& path) const;

  /// Re-publishes the versions saved by SaveFile into this registry (which
  /// must be empty). Each snapshot's fingerprint is recomputed from the
  /// loaded weights and checked against the saved value.
  Status LoadFile(const std::string& path);

 private:
  mutable Mutex mu_;
  std::vector<std::shared_ptr<const ModelSnapshot>> versions_
      ISRL_GUARDED_BY(mu_);
  std::shared_ptr<const ModelSnapshot> latest_ ISRL_GUARDED_BY(mu_);
};

/// Single-threaded per-shard cache of snapshot replicas over a shared
/// provider: the first Pin of a version replicates it (fresh scratch), later
/// Pins reuse the replica. One cache per shard worker keeps PredictBatch
/// scratch unshared across threads while the underlying registry stays
/// shared and hot-swappable. NOT thread-safe — one cache per thread.
class ModelReplicaCache : public ModelProvider {
 public:
  /// `source` must outlive the cache.
  explicit ModelReplicaCache(ModelProvider* source) : source_(source) {}

  std::shared_ptr<const ModelSnapshot> Pin(uint64_t version) override;

 private:
  ModelProvider* source_;
  std::unordered_map<uint64_t, std::shared_ptr<const ModelSnapshot>> replicas_;
};

}  // namespace isrl::nn

#endif  // ISRL_NN_REGISTRY_H_
