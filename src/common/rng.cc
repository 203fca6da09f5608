#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace isrl {

uint64_t SplitSeed(uint64_t master, uint64_t stream) {
  // Fixed-increment SplitMix64 (Steele et al.) over the combined word; the
  // odd multiplier decorrelates adjacent stream ids before mixing.
  uint64_t z = master + 0x9E3779B97F4A7C15ull * (stream + 1);
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ull;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z;
}

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (size_t i = 1; i < kStateSize; ++i) {
    const uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
  }
  pos_ = kStateSize;
}

void Mt19937_64::Restore(const std::array<uint64_t, kStateSize>& state,
                         size_t position) {
  ISRL_CHECK_LE(position, kStateSize);
  state_ = state;
  pos_ = position;
}

void Mt19937_64::Twist() {
  // Three split loops so no index needs a modulo: words whose partner
  // k + 156 is still in range, words that wrap to the freshly twisted
  // front, and the last word, which pairs with word 0.
  constexpr size_t kShift = 156;
  constexpr uint64_t kUpper = ~uint64_t{0} << 31;
  constexpr uint64_t kLower = ~kUpper;
  constexpr uint64_t kMatrix = 0xB5026F5AA96619E9ull;
  auto mix = [](uint64_t hi, uint64_t lo) {
    const uint64_t y = (hi & kUpper) | (lo & kLower);
    return (y >> 1) ^ ((y & 1u) ? kMatrix : 0u);
  };
  size_t k = 0;
  for (; k < kStateSize - kShift; ++k) {
    state_[k] = state_[k + kShift] ^ mix(state_[k], state_[k + 1]);
  }
  for (; k < kStateSize - 1; ++k) {
    state_[k] =
        state_[k + kShift - kStateSize] ^ mix(state_[k], state_[k + 1]);
  }
  state_[kStateSize - 1] =
      state_[kShift - 1] ^ mix(state_[kStateSize - 1], state_[0]);
  pos_ = 0;
}

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  ISRL_CHECK_LE(lo, hi);
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::Gaussian(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

Vec Rng::SimplexUniform(size_t d) {
  ISRL_CHECK_GE(d, 1u);
  Vec u(d);
  double sum = 0.0;
  for (size_t i = 0; i < d; ++i) {
    // Exponential(1) draws normalised to sum 1 are uniform on the simplex.
    double e = -std::log(1.0 - Uniform(0.0, 1.0));
    u[i] = e;
    sum += e;
  }
  ISRL_CHECK_GT(sum, 0.0);
  u /= sum;
  return u;
}

std::vector<size_t> Rng::SampleIndices(size_t n, size_t k) {
  ISRL_CHECK_LE(k, n);
  // Floyd's algorithm: O(k) expected, no O(n) allocation.
  std::vector<size_t> out;
  out.reserve(k);
  for (size_t j = n - k; j < n; ++j) {
    size_t t = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(j)));
    bool seen = false;
    for (size_t s : out) {
      if (s == t) {
        seen = true;
        break;
      }
    }
    out.push_back(seen ? j : t);
  }
  return out;
}

}  // namespace isrl
