#include "user/sampler.h"

namespace isrl {

std::vector<Vec> SampleUtilityVectors(size_t count, size_t dim, Rng& rng) {
  std::vector<Vec> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(rng.SimplexUniform(dim));
  return out;
}

}  // namespace isrl
