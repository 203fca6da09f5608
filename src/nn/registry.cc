#include "nn/registry.h"

#include <cstring>
#include <utility>

#include "common/matrix.h"
#include "nn/serialize.h"

namespace isrl::nn {

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

std::shared_ptr<const ModelSnapshot> ModelRegistry::Pin(uint64_t version) {
  MutexLock lock(mu_);
  if (version == 0 || version > versions_.size()) return nullptr;
  return versions_[version - 1];
}

}  // namespace isrl::nn
