#include "core/regret.h"

#include <algorithm>

#include "common/check.h"

namespace isrl {
namespace {

// regratio(q, u) given top = max_p f_u(p).
double RegretGivenTop(double top, const Vec& q, const Vec& u) {
  // Degenerate utility (top ≤ 0, e.g. a numerically zero vector): every
  // point is equally good, so the regret ratio is 0 by convention.
  if (top <= 0.0) return 0.0;
  double mine = Dot(u, q);
  return std::max(0.0, (top - mine) / top);
}

}  // namespace

double RegretRatio(const Dataset& data, const Vec& q, const Vec& u) {
  return RegretGivenTop(data.TopUtility(u), q, u);
}

double RegretRatioAt(const Dataset& data, size_t index, const Vec& u) {
  return RegretRatio(data, data.point(index), u);
}

bool IsEpsOptimalForAll(const Dataset& data, const Vec& p,
                        const std::vector<Vec>& utilities, double epsilon) {
  // regratio(p, v) ≤ ε  ⇔  ∀q: (1−ε)·v·q − v·p ≤ 0. For ε ≤ 1 both
  // roundings are monotone in v·q, so the top point decides for every q.
  const std::vector<size_t> tops = data.TopIndices(utilities);
  for (size_t i = 0; i < utilities.size(); ++i) {
    const Vec& v = utilities[i];
    double vp = Dot(v, p);
    if ((1.0 - epsilon) * Dot(v, data.point(tops[i])) - vp > 0.0) return false;
  }
  return true;
}

double MaxRegretOver(const Dataset& data, const Vec& p,
                     const std::vector<Vec>& utilities) {
  // Over an empty sample the maximum is vacuously 0 (nothing contradicts p).
  const std::vector<size_t> tops = data.TopIndices(utilities);
  double worst = 0.0;
  for (size_t i = 0; i < utilities.size(); ++i) {
    const Vec& v = utilities[i];
    worst = std::max(worst,
                     RegretGivenTop(Dot(v, data.point(tops[i])), p, v));
  }
  return worst;
}

}  // namespace isrl
