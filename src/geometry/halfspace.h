// Hyper-planes and half-spaces over the utility space.
//
// For a question ⟨p_i, p_j⟩ the paper builds the hyper-plane
//   h_{i,j} = { r : r · (p_i − p_j) = 0 }
// and learns, from the user's answer, that the utility vector lies in the
// positive half-space h⁺ = { r : r · (p_i − p_j) > 0 } (Lemma 1). The
// ε-relaxed hyper-planes of Lemma 4 use normal p_i − (1−ε)·p_j.
#ifndef ISRL_GEOMETRY_HALFSPACE_H_
#define ISRL_GEOMETRY_HALFSPACE_H_

#include "common/vec.h"

namespace isrl {

/// Closed half-space { u : normal · u ≥ offset }. All half-spaces produced by
/// pairwise comparisons pass through the origin (offset 0); the general
/// offset supports tests and auxiliary constructions.
struct Halfspace {
  Vec normal;
  double offset = 0.0;

  /// Signed margin normal·u − offset (positive inside).
  [[nodiscard]] double Margin(const Vec& u) const {
    return Dot(normal, u) - offset;
  }

  /// True when u satisfies the half-space up to `tol` slack.
  [[nodiscard]] bool Contains(const Vec& u, double tol = 1e-9) const {
    return Margin(u) >= -tol;
  }

  /// The complementary half-space { u : normal·u ≤ offset }, i.e. the other
  /// side of the same hyper-plane.
  [[nodiscard]] Halfspace Flipped() const {
    return Halfspace{normal * -1.0, -offset};
  }
};

/// Half-space h⁺_{i,j} learned when the user prefers p_i to p_j (Lemma 1).
Halfspace PreferenceHalfspace(const Vec& preferred, const Vec& other);

/// Euclidean distance from point `c` to the hyper-plane boundary of `h`
/// (|normal·c − offset| / ‖normal‖). Used by AA's action ranking.
double DistanceToHyperplane(const Vec& c, const Halfspace& h);

}  // namespace isrl

#endif  // ISRL_GEOMETRY_HALFSPACE_H_
