// Utility-vector sampling for training and evaluation populations.
#ifndef ISRL_USER_SAMPLER_H_
#define ISRL_USER_SAMPLER_H_

#include <vector>

#include "common/rng.h"
#include "common/vec.h"

namespace isrl {

/// `count` utility vectors sampled uniformly from the utility space U (the
/// paper trains on 10,000 of these).
std::vector<Vec> SampleUtilityVectors(size_t count, size_t dim, Rng& rng);

}  // namespace isrl

#endif  // ISRL_USER_SAMPLER_H_
