#include "lp/model.h"

namespace isrl::lp {

size_t Model::AddVariable(double objective_coeff, bool nonneg) {
  objective_.push_back(objective_coeff);
  nonneg_.push_back(nonneg);
  return objective_.size() - 1;
}

void Model::AddConstraint(const Vec& coeffs, Relation relation, double rhs) {
  ISRL_CHECK_LE(coeffs.dim(), objective_.size());
  constraints_.push_back(Constraint{coeffs, relation, rhs});
}

bool SameConstraintStructure(const Model& a, const Model& b) {
  if (a.num_variables() != b.num_variables()) return false;
  if (a.nonneg() != b.nonneg()) return false;
  if (a.num_constraints() != b.num_constraints()) return false;
  for (size_t r = 0; r < a.num_constraints(); ++r) {
    const Constraint& ca = a.constraints()[r];
    const Constraint& cb = b.constraints()[r];
    if (ca.relation != cb.relation) return false;
    // Bitwise comparison on purpose: family membership must guarantee an
    // identical tableau, not an approximately equal one.
    if (ca.rhs != cb.rhs) return false;  // float-eq-ok: bitwise family test
    if (ca.coeffs.dim() != cb.coeffs.dim()) return false;
    for (size_t c = 0; c < ca.coeffs.dim(); ++c) {
      if (ca.coeffs[c] != cb.coeffs[c]) return false;  // float-eq-ok: bitwise
    }
  }
  return true;
}

}  // namespace isrl::lp
