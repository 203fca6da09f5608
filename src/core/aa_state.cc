#include "core/aa_state.h"

#include <algorithm>

#include "audit/audit.h"
#include "audit/checkers.h"
#include "lp/simplex.h"

namespace isrl {
namespace {

// Adds the simplex constraints (Σu = 1; u ≥ 0 is the variables' own bound)
// over the first d variables of the model.
void AddSimplexConstraints(lp::Model* model, size_t d) {
  Vec ones(d, 1.0);
  model->AddConstraint(ones, lp::Relation::kEq, 1.0);
}

lp::SimplexOptions LpOptions(size_t max_lp_iterations) {
  lp::SimplexOptions options;
  if (max_lp_iterations > 0) options.max_iterations = max_lp_iterations;
  return options;
}

}  // namespace

size_t AaStateDim(size_t d) { return 3 * d + 1; }

AaGeometry ComputeAaGeometry(size_t d, const std::vector<LearnedHalfspace>& h,
                             size_t max_lp_iterations) {
  AaGeometry geo;
  const lp::SimplexOptions lp_options = LpOptions(max_lp_iterations);

  // ---- Inner sphere LP: maximise B_r subject to
  //   B_c on the simplex,
  //   (p_i − p_j)·B_c / ‖p_i − p_j‖ ≥ B_r   for each half-space,
  //   B_c[i] ≥ B_r                           (keep the ball off the simplex
  //                                           facets; bounds the LP). ----
  {
    lp::Model model;
    for (size_t i = 0; i < d; ++i) model.AddVariable(0.0);  // B_c
    size_t radius_var = model.AddVariable(1.0);             // B_r (objective)
    AddSimplexConstraints(&model, d);
    for (const LearnedHalfspace& lh : h) {
      double norm = lh.h.normal.Norm();
      // A zero-normal half-space (two identical points compared) constrains
      // nothing; skip it instead of dividing by zero.
      if (norm <= 0.0) continue;
      Vec row(d + 1);
      for (size_t c = 0; c < d; ++c) row[c] = lh.h.normal[c] / norm;
      row[radius_var] = -1.0;
      model.AddConstraint(row, lp::Relation::kGe, lh.h.offset / norm);
    }
    for (size_t i = 0; i < d; ++i) {
      Vec row(d + 1);
      row[i] = 1.0;
      row[radius_var] = -1.0;
      model.AddConstraint(row, lp::Relation::kGe, 0.0);
    }
    lp::SolveResult result = lp::SolveWithRecovery(model, lp_options);
    if (!result.ok()) return geo;  // infeasible H
    geo.inner.center = Vec(d);
    for (size_t i = 0; i < d; ++i) geo.inner.center[i] = result.x[i];
    geo.inner.radius = std::max(0.0, result.x[radius_var]);
  }

  // ---- Outer rectangle: 2d LPs min/max u[i] over U ∩ H. All 2d models
  // share their constraint rows and differ only in objective, so the family
  // solver runs simplex phase 1 once and replays it per member; every answer
  // is bit-identical to solving that model alone (DESIGN.md §17). ----
  geo.e_min = Vec(d);
  geo.e_max = Vec(d);
  lp::FamilySolver family(lp_options);
  for (size_t i = 0; i < d; ++i) {
    for (int direction = 0; direction < 2; ++direction) {
      lp::Model model;
      for (size_t v = 0; v < d; ++v) {
        model.AddVariable(v == i ? 1.0 : 0.0);
      }
      model.SetSense(direction == 0 ? lp::Sense::kMinimize
                                    : lp::Sense::kMaximize);
      AddSimplexConstraints(&model, d);
      for (const LearnedHalfspace& lh : h) {
        model.AddConstraint(lh.h.normal, lp::Relation::kGe, lh.h.offset);
      }
      lp::SolveResult result = family.Solve(model);
      if (!result.ok()) return geo;
      if (direction == 0) {
        geo.e_min[i] = result.objective;
      } else {
        geo.e_max[i] = result.objective;
      }
    }
  }

  geo.feasible = true;
  // Audit: the 2d+1 LP answers describe one region, so they must agree with
  // each other (centre in rectangle, e_min ≤ e_max, centre feasible for H).
  if (audit::ShouldCheck(audit::Checker::kAaGeometry)) {
    audit::Auditor().Record(audit::Checker::kAaGeometry, "ComputeAaGeometry",
                            audit::CheckAaGeometry(geo, h, 1e-6));
  }
  return geo;
}

Vec EncodeAaState(const AaGeometry& geometry) {
  ISRL_CHECK(geometry.feasible);
  Vec state = geometry.inner.center;
  state.PushBack(geometry.inner.radius);
  state.Append(geometry.e_min);
  state.Append(geometry.e_max);
  ISRL_CHECK_EQ(state.dim(), AaStateDim(geometry.e_min.dim()));
  // Audit: AA states are LP outputs — a non-finite entry means an LP
  // answer escaped its own diagnostics.
  if (audit::ShouldCheck(audit::Checker::kNnFinite)) {
    audit::Auditor().Record(audit::Checker::kNnFinite, "EncodeAaState",
                            audit::CheckFiniteVec(state, "AA state"));
  }
  return state;
}

}  // namespace isrl
