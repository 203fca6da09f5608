#include "geometry/halfspace.h"

#include <cmath>

namespace isrl {

Halfspace PreferenceHalfspace(const Vec& preferred, const Vec& other) {
  ISRL_CHECK_EQ(preferred.dim(), other.dim());
  return Halfspace{preferred - other, 0.0};
}

double DistanceToHyperplane(const Vec& c, const Halfspace& h) {
  double norm = h.normal.Norm();
  ISRL_CHECK_GT(norm, 0.0);
  return std::abs(h.Margin(c)) / norm;
}

}  // namespace isrl
