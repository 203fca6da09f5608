// Training pins shared by tests/test_ea.cc and tests/test_aa.cc.
//
// A pin is the bit-level outcome of Train() on a seeded small skyline,
// recorded when each algorithm still ran its own hand-written training
// loop. Training now drives the serving session; the pins prove it replays
// the old loop's RNG order (pick, answer, re-plan, updates) exactly. A
// moved pin means a guard diverged (an empty R, an infeasible H, the AA
// stop round, or the round cap), not that the pin is stale.
#ifndef ISRL_TESTS_TRAINING_PIN_H_
#define ISRL_TESTS_TRAINING_PIN_H_

#include <bit>
#include <cstdint>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "common/vec.h"
#include "core/algorithm.h"
#include "core/ea.h"
#include "data/dataset.h"
#include "nn/serialize.h"
#include "user/user.h"

namespace isrl {

struct TrainingPin {
  uint64_t main_fingerprint;
  uint64_t target_fingerprint;
  size_t episodes;
  uint64_t mean_rounds_bits;
  uint64_t final_loss_bits;
  size_t replay_size;
  size_t num_updates;
  size_t greedy_rounds;
  size_t greedy_best;
};

/// Prints a pin as the initializer a test would record.
inline std::ostream& operator<<(std::ostream& os, const TrainingPin& p) {
  return os << std::hex << "{0x" << p.main_fingerprint << "ull, 0x"
            << p.target_fingerprint << "ull, " << std::dec << p.episodes
            << ", 0x" << std::hex << p.mean_rounds_bits << "ull, 0x"
            << p.final_loss_bits << "ull, " << std::dec << p.replay_size
            << ", " << p.num_updates << ", " << p.greedy_rounds << ", "
            << p.greedy_best << "}";
}

inline void ExpectPin(const TrainingPin& got, const TrainingPin& want) {
  EXPECT_EQ(got.main_fingerprint, want.main_fingerprint) << got;
  EXPECT_EQ(got.target_fingerprint, want.target_fingerprint) << got;
  EXPECT_EQ(got.episodes, want.episodes) << got;
  EXPECT_EQ(got.mean_rounds_bits, want.mean_rounds_bits) << got;
  EXPECT_EQ(got.final_loss_bits, want.final_loss_bits) << got;
  EXPECT_EQ(got.replay_size, want.replay_size) << got;
  EXPECT_EQ(got.num_updates, want.num_updates) << got;
  EXPECT_EQ(got.greedy_rounds, want.greedy_rounds) << got;
  EXPECT_EQ(got.greedy_best, want.greedy_best) << got;
}

/// Trains a fresh `Algorithm` (Ea or Aa) on `train`, then plays one greedy
/// episode for a linear user with utility `user_u`.
template <typename Algorithm, typename Options>
TrainingPin TrainAndPin(const Dataset& sky, const Options& opt,
                        const std::vector<Vec>& train, const Vec& user_u) {
  Algorithm algorithm(sky, opt);
  const TrainStats stats = algorithm.Train(train);
  LinearUser user(user_u);
  const InteractionResult r = algorithm.Interact(user);
  return {nn::NetworkFingerprint(algorithm.agent().main_network()),
          nn::NetworkFingerprint(algorithm.agent().target_network()),
          stats.episodes,
          std::bit_cast<uint64_t>(stats.mean_rounds),
          std::bit_cast<uint64_t>(stats.final_loss),
          algorithm.agent().replay().size(),
          algorithm.agent().num_updates(),
          r.rounds,
          r.best_index};
}

}  // namespace isrl

#endif  // ISRL_TESTS_TRAINING_PIN_H_
