#include "nn/registry.h"

#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/matrix.h"
#include "common/strings.h"
#include "core/snapshot.h"
#include "nn/serialize.h"

namespace isrl::nn {

namespace {
constexpr char kRegistryKind[] = "model-registry";
constexpr uint32_t kRegistryVersion = 1;
}  // namespace

ModelSnapshot::ModelSnapshot(uint64_t version, const Network& weights)
    : version_(version),
      fingerprint_(NetworkFingerprint(weights)),
      network_(weights.Clone()) {}

Vec ModelSnapshot::Score(const Matrix& candidate_features) const {
  return network_.PredictBatch(candidate_features);
}

namespace {
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}
}  // namespace

bool ModelSnapshot::SameWeights(const Network& other) const {
  // Bit for bit against the held copy, with no hash of `other`: at least
  // as strict as comparing fingerprints, and it stops at the first
  // differing layer.
  if (other.num_layers() != network_.num_layers()) return false;
  for (size_t i = 0; i < other.num_layers(); ++i) {
    const Layer& mine = network_.layer(i);
    const Layer& theirs = other.layer(i);
    if (mine.Kind() != theirs.Kind() ||
        mine.input_dim() != theirs.input_dim() ||
        mine.output_dim() != theirs.output_dim()) {
      return false;
    }
    if (mine.Kind() == "linear") {
      const auto& a = static_cast<const Linear&>(mine);
      const auto& b = static_cast<const Linear&>(theirs);
      if (!SameBits(a.weights(), b.weights()) ||
          !SameBits(a.biases(), b.biases())) {
        return false;
      }
    }
  }
  return true;
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::Replicate() const {
  return std::make_shared<const ModelSnapshot>(version_, network_);
}

// Publish builds the snapshot (a network copy + fingerprint) under mu_.
// Publishes are retrain-rate rare and Latest()/Pin() critical sections are a
// few pointer moves, so the simplicity beats a build-outside-lock dance.
uint64_t ModelRegistry::Publish(const Network& weights) {
  MutexLock lock(mu_);
  const uint64_t version = versions_.size() + 1;
  auto snapshot = std::make_shared<const ModelSnapshot>(version, weights);
  versions_.push_back(snapshot);
  latest_ = std::move(snapshot);
  return version;
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::Latest() const {
  MutexLock lock(mu_);
  return latest_;
}

uint64_t ModelRegistry::latest_version() const {
  MutexLock lock(mu_);
  return latest_ == nullptr ? 0 : latest_->version();
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::Pin(uint64_t version) {
  MutexLock lock(mu_);
  if (version == 0 || version > versions_.size()) return nullptr;
  return versions_[version - 1];
}

size_t ModelRegistry::size() const {
  MutexLock lock(mu_);
  return versions_.size();
}

Status ModelRegistry::SaveFile(const std::string& path) const {
  snapshot::Writer w;
  {
    MutexLock lock(mu_);
    w.U64(versions_.size());
    for (const auto& snapshot : versions_) {
      w.U64(snapshot->version());
      w.U64(snapshot->fingerprint());
      w.Str(SerializeNetwork(snapshot->network()));
    }
  }
  return snapshot::WriteFileBytes(
      path, snapshot::WrapFrame(kRegistryKind, kRegistryVersion, w.Take()));
}

Status ModelRegistry::LoadFile(const std::string& path) {
  ISRL_ASSIGN_OR_RETURN(std::string bytes, snapshot::ReadFileBytes(path));
  ISRL_ASSIGN_OR_RETURN(
      std::string payload,
      snapshot::UnwrapFrame(kRegistryKind, kRegistryVersion, bytes));
  snapshot::Reader r(payload);
  const uint64_t count = r.U64();
  if (!r.failed() && count > snapshot::kMaxElements) {
    return Status::InvalidArgument("model registry file: implausible count");
  }
  std::vector<std::shared_ptr<const ModelSnapshot>> loaded;
  for (uint64_t i = 0; i < count && !r.failed(); ++i) {
    const uint64_t version = r.U64();
    const uint64_t fingerprint = r.U64();
    const std::string text = r.Str();
    if (r.failed()) break;
    if (version != i + 1) {
      return Status::InvalidArgument(Format(
          "model registry file: version %llu out of sequence (expected %llu)",
          static_cast<unsigned long long>(version),
          static_cast<unsigned long long>(i + 1)));
    }
    ISRL_ASSIGN_OR_RETURN(Network network, DeserializeNetwork(text));
    auto snapshot = std::make_shared<const ModelSnapshot>(version, network);
    if (snapshot->fingerprint() != fingerprint) {
      return Status::InvalidArgument(Format(
          "model registry file: version %llu weights hash to %016llx but the "
          "file records %016llx (corrupted or edited)",
          static_cast<unsigned long long>(version),
          static_cast<unsigned long long>(snapshot->fingerprint()),
          static_cast<unsigned long long>(fingerprint)));
    }
    loaded.push_back(std::move(snapshot));
  }
  ISRL_RETURN_IF_ERROR(r.status());
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        "model registry file: trailing payload bytes");
  }
  MutexLock lock(mu_);
  if (!versions_.empty()) {
    return Status::FailedPrecondition(
        "model registry load requires an empty registry");
  }
  versions_ = std::move(loaded);
  latest_ = versions_.empty() ? nullptr : versions_.back();
  return Status::Ok();
}

std::shared_ptr<const ModelSnapshot> ModelReplicaCache::Pin(uint64_t version) {
  auto it = replicas_.find(version);
  if (it != replicas_.end()) return it->second;
  std::shared_ptr<const ModelSnapshot> source = source_->Pin(version);
  if (source == nullptr) return nullptr;
  std::shared_ptr<const ModelSnapshot> replica = source->Replicate();
  replicas_.emplace(version, replica);
  return replica;
}

}  // namespace isrl::nn
