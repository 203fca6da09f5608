// Deterministic random number generation. Every stochastic component takes an
// Rng& so experiments are reproducible bit-for-bit given a seed.
#ifndef ISRL_COMMON_RNG_H_
#define ISRL_COMMON_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "common/vec.h"

namespace isrl {

/// SplitMix64-style derivation of an independent stream seed from a master
/// seed: a pure function of (master, stream), so a per-task seed never
/// depends on how much any other stream has been consumed — the property the
/// deterministic parallel evaluation layer (common/parallel.h) relies on.
uint64_t SplitSeed(uint64_t master, uint64_t stream);

/// The 64-bit Mersenne Twister of the C++ standard ([rand.predef]
/// mt19937_64): same seeding, recurrence and tempering, so it draws the
/// standard's sequence bit for bit (the 10,000th draw from seed 5489 is
/// 9981545732273789042). Unlike std::mt19937_64 its 312 state words and
/// its position are visible, so a checkpoint stores them as raw words
/// instead of the standard's decimal text (DESIGN.md §14).
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr size_t kStateSize = 312;
  static constexpr result_type kDefaultSeed = 5489u;

  explicit Mt19937_64(result_type seed = kDefaultSeed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ >= kStateSize) Twist();
    result_type z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    z ^= z >> 43;
    return z;
  }

  const std::array<uint64_t, kStateSize>& state() const { return state_; }
  /// Index of the next state word to temper; kStateSize means the next draw
  /// twists first.
  size_t position() const { return pos_; }
  /// Adopts saved words and position verbatim (position ≤ kStateSize).
  void Restore(const std::array<uint64_t, kStateSize>& state, size_t position);

 private:
  void Twist();

  std::array<uint64_t, kStateSize> state_;
  size_t pos_;
};

/// Seedable pseudo-random generator (Mt19937_64 under the hood) with the
/// sampling helpers used by the data generators and RL components.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x15b1u) : seed_(seed), engine_(seed) {}

  /// Derives an independent child generator for stream `stream_id`. The
  /// derivation uses the *construction seed*, not the current engine state:
  /// Split(k) returns the same generator no matter how many draws have been
  /// made, so per-task streams are bit-identical at any thread count.
  Rng Split(uint64_t stream_id) const { return Rng(SplitSeed(seed_, stream_id)); }

  /// The seed this generator was constructed with (basis of Split()).
  uint64_t seed() const { return seed_; }

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0);
  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi);
  /// Standard normal draw scaled to (mean, stddev).
  double Gaussian(double mean = 0.0, double stddev = 1.0);
  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  /// Uniform point on the standard (d−1)-simplex {u ≥ 0, Σu = 1}, via
  /// normalised exponential draws.
  Vec SimplexUniform(size_t d);

  /// k distinct indices drawn uniformly from [0, n) (k ≤ n).
  std::vector<size_t> SampleIndices(size_t n, size_t k);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  Mt19937_64& engine() { return engine_; }
  /// Read-only engine access (checkpointing reads the state words without
  /// disturbing the draw sequence).
  const Mt19937_64& engine() const { return engine_; }

 private:
  uint64_t seed_;
  Mt19937_64 engine_;
};

}  // namespace isrl

#endif  // ISRL_COMMON_RNG_H_
