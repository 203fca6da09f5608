// Proportional prioritized experience replay (Schaul et al., ICLR 2016) —
// an opt-in upgrade over the paper's uniform replay, wired as a DESIGN.md §6
// ablation. Transitions are sampled with probability ∝ (|TD error| + ε)^α
// and importance-weighted by (N·P(i))^{−β} to keep the update unbiased.
//
// Sampling runs on a maintained segment tree (sum + min per node), so a
// draw is O(log capacity) instead of an O(size) cumulative scan, and the
// numerical tail of the scan ("r never reaches the total") is handled by a
// single clamp in the tree descent. Samples carry a generation stamp: a slot
// overwritten by Add invalidates outstanding handles, so a late
// UpdatePriority can never re-prioritise a *different* transition that now
// occupies the same ring-buffer slot.
#ifndef ISRL_RL_PRIORITIZED_REPLAY_H_
#define ISRL_RL_PRIORITIZED_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "rl/replay.h"

namespace isrl::rl {

/// Configuration for proportional prioritisation.
struct PrioritizedOptions {
  double alpha = 0.6;          ///< priority exponent (0 = uniform)
  double beta = 0.4;           ///< importance-sampling exponent
  double priority_floor = 1e-3;///< added to |TD error| so nothing starves
};

/// One sampled transition with its buffer slot, the slot's generation stamp
/// at sampling time, and its importance weight.
struct PrioritizedSample {
  size_t index = 0;
  uint64_t generation = 0;  ///< Add-time stamp; stale ⇒ UpdatePriority no-ops
  const Transition* transition = nullptr;
  double weight = 1.0;  ///< normalised importance weight in (0, 1]
};

/// Fixed-capacity ring buffer with proportional priority sampling. New
/// transitions enter at the current maximum priority so they are replayed
/// at least once soon after insertion.
class PrioritizedReplayMemory {
 public:
  PrioritizedReplayMemory(size_t capacity, PrioritizedOptions options = {});

  /// Adds a transition at max priority, evicting the oldest when full.
  /// Overwriting a slot bumps its generation, invalidating any sample
  /// handles still pointing at it.
  void Add(Transition t);

  /// Samples `count` transitions ∝ priority^α (with replacement). Memory
  /// must be non-empty.
  std::vector<PrioritizedSample> Sample(size_t count, Rng& rng) const;

  /// Re-prioritises the sampled slot after its TD error was recomputed.
  /// Returns false — leaving every priority untouched — when the handle is
  /// stale, i.e. an Add overwrote the slot between Sample and this call.
  bool UpdatePriority(const PrioritizedSample& handle, double td_error);

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }
  double priority(size_t index) const;
  /// Sum of all stored priorities (maintained, O(1)).
  double total_priority() const { return sum_tree_[1]; }
  /// Minimum stored priority (maintained, O(1)); meaningless when empty.
  double min_priority() const { return min_tree_[1]; }

 private:
  /// Writes priority `p` into `slot` and refreshes the tree path above it.
  void SetPriority(size_t slot, double p);
  /// Leaf slot holding the cumulative offset `r` ∈ [0, total).
  size_t FindPrefix(double r) const;

  size_t capacity_;
  PrioritizedOptions options_;
  size_t size_ = 0;
  size_t next_ = 0;
  uint64_t add_count_ = 0;  ///< generation source: one tick per Add
  double max_priority_ = 1.0;
  std::vector<Transition> buffer_;
  std::vector<uint64_t> generations_;
  size_t leaf_base_;                ///< first leaf index in the trees
  std::vector<double> sum_tree_;    ///< subtree priority sums (α-exponentiated)
  std::vector<double> min_tree_;    ///< subtree priority minima (+inf = empty)
};

}  // namespace isrl::rl

#endif  // ISRL_RL_PRIORITIZED_REPLAY_H_
