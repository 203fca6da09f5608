// The regret-ratio criterion (Section III) and the ε-optimality certificates
// shared by the algorithms and the experiment harness.
#ifndef ISRL_CORE_REGRET_H_
#define ISRL_CORE_REGRET_H_

#include <vector>

#include "common/vec.h"
#include "data/dataset.h"

namespace isrl {

/// regratio(q, u) = (max_p f_u(p) − f_u(q)) / max_p f_u(p). Requires a
/// non-empty dataset and a positive top utility (guaranteed on (0,1]-
/// normalised data with u on the simplex).
double RegretRatio(const Dataset& data, const Vec& q, const Vec& u);

/// regratio of the point at `index`.
double RegretRatioAt(const Dataset& data, size_t index, const Vec& u);

/// max_{v ∈ utilities} regratio(p, v) (the Figures 7/8 "maximum regret
/// ratio"). Requires non-empty `utilities`.
double MaxRegretOver(const Dataset& data, const Vec& p,
                     const std::vector<Vec>& utilities);

}  // namespace isrl

#endif  // ISRL_CORE_REGRET_H_
