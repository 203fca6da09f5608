#include "rl/prioritized_replay.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace isrl::rl {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

PrioritizedReplayMemory::PrioritizedReplayMemory(size_t capacity,
                                                 PrioritizedOptions options)
    : capacity_(capacity),
      options_(options),
      leaf_base_(NextPowerOfTwo(capacity)) {
  ISRL_CHECK_GE(capacity, 1u);
  buffer_.resize(capacity);
  generations_.assign(capacity, 0);
  sum_tree_.assign(2 * leaf_base_, 0.0);
  min_tree_.assign(2 * leaf_base_, kInf);
}

void PrioritizedReplayMemory::SetPriority(size_t slot, double p) {
  size_t node = leaf_base_ + slot;
  sum_tree_[node] = p;
  min_tree_[node] = p;
  while (node > 1) {
    node >>= 1;
    sum_tree_[node] = sum_tree_[2 * node] + sum_tree_[2 * node + 1];
    min_tree_[node] = std::min(min_tree_[2 * node], min_tree_[2 * node + 1]);
  }
}

size_t PrioritizedReplayMemory::FindPrefix(double r) const {
  size_t node = 1;
  while (node < leaf_base_) {
    const size_t left = 2 * node;
    // Descend left when the offset falls inside the left subtree — or when
    // the right subtree is empty, which is the single tail-clamp absorbing
    // the floating-point residue of r ≈ total.
    if (r < sum_tree_[left] || sum_tree_[left + 1] <= 0.0) {
      node = left;
    } else {
      r -= sum_tree_[left];
      node = left + 1;
    }
  }
  size_t slot = node - leaf_base_;
  if (slot >= size_) slot = size_ - 1;  // unreachable; belt-and-braces
  return slot;
}

void PrioritizedReplayMemory::Add(Transition t) {
  buffer_[next_] = std::move(t);
  generations_[next_] = ++add_count_;
  SetPriority(next_, max_priority_);
  next_ = (next_ + 1) % capacity_;
  if (size_ < capacity_) ++size_;
}

std::vector<PrioritizedSample> PrioritizedReplayMemory::Sample(
    size_t count, Rng& rng) const {
  ISRL_CHECK(!empty());
  const double total = total_priority();
  ISRL_CHECK_GT(total, 0.0);

  // Max weight for normalisation corresponds to the *minimum* probability.
  const double n = static_cast<double>(size_);
  const double max_weight =
      std::pow(n * (min_priority() / total), -options_.beta);

  std::vector<PrioritizedSample> out;
  out.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    const size_t idx = FindPrefix(rng.Uniform(0.0, total));
    PrioritizedSample sample;
    sample.index = idx;
    sample.generation = generations_[idx];
    sample.transition = &buffer_[idx];
    const double prob = sum_tree_[leaf_base_ + idx] / total;
    sample.weight = std::pow(n * prob, -options_.beta) / max_weight;
    out.push_back(sample);
  }
  return out;
}

bool PrioritizedReplayMemory::UpdatePriority(const PrioritizedSample& handle,
                                             double td_error) {
  ISRL_CHECK_LT(handle.index, size_);
  if (generations_[handle.index] != handle.generation) return false;
  const double p = std::pow(std::abs(td_error) + options_.priority_floor,
                            options_.alpha);
  SetPriority(handle.index, p);
  max_priority_ = std::max(max_priority_, p);
  return true;
}

double PrioritizedReplayMemory::priority(size_t index) const {
  ISRL_CHECK_LT(index, size_);
  return sum_tree_[leaf_base_ + index];
}

}  // namespace isrl::rl
