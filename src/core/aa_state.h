// AA's state representation (Section IV-C MDP: State).
//
// AA never materialises R; it keeps only the set H of learned half-spaces
// and describes R through two LP-computed summaries: the inner sphere (the
// largest ball centred in R and inside every half-space) and the outer
// rectangle (per-dimension min/max of u over R). The state vector is the
// concatenation (B_c, B_r, e_min, e_max): 3d + 1 values.
#ifndef ISRL_CORE_AA_STATE_H_
#define ISRL_CORE_AA_STATE_H_

#include <vector>

#include "common/status.h"
#include "common/vec.h"
#include "geometry/enclosing_ball.h"
#include "geometry/halfspace.h"

namespace isrl {

/// One learned half-space with its defining pair (winner preferred to loser).
struct LearnedHalfspace {
  size_t winner = 0;
  size_t loser = 0;
  Halfspace h;  ///< { u : (p_winner − p_loser) · u ≥ 0 }
};

/// LP-computed geometry of R = U ∩ H.
struct AaGeometry {
  bool feasible = false;  ///< false ⇒ H is contradictory (noisy users)
  Ball inner;             ///< inner sphere (B_c, B_r)
  Vec e_min, e_max;       ///< outer rectangle corners
};

/// Computes the inner sphere and outer rectangle from the half-space set via
/// the Section IV-C linear programs (2d + 1 LP solves). In addition to the
/// paper's constraints, the inner sphere is kept inside the simplex facets
/// (B_c[i] ≥ B_r) so the LP stays bounded when H is small; see DESIGN.md.
/// LPs run through lp::SolveWithRecovery; `max_lp_iterations` (0 = solver
/// default) caps each solve, for budgeted sessions. Degenerate (zero-normal)
/// half-spaces are skipped rather than fatal.
///
/// The 2d rectangle LPs share constraint structure and differ only in
/// objective, so they run through lp::FamilySolver, which runs simplex
/// phase 1 once and replays it per member — each answer stays bit-identical
/// to its own SolveWithRecovery (DESIGN.md §17), so encoded AA states and
/// checkpoints are unchanged.
[[nodiscard]] AaGeometry ComputeAaGeometry(
    size_t d, const std::vector<LearnedHalfspace>& h,
    size_t max_lp_iterations = 0);

/// State vector (B_c ⊕ B_r ⊕ e_min ⊕ e_max); geometry must be feasible.
Vec EncodeAaState(const AaGeometry& geometry);

/// Dimension of the encoded state: 3d + 1.
size_t AaStateDim(size_t d);

}  // namespace isrl

#endif  // ISRL_CORE_AA_STATE_H_
