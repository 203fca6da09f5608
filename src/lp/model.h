// Linear-program model builder. The paper's algorithm AA expresses all of its
// geometry through LPs over the utility simplex (inner sphere, outer
// rectangle, half-space feasibility); the baselines use LPs for candidate
// pruning. This is the shared front-end for the simplex solver.
#ifndef ISRL_LP_MODEL_H_
#define ISRL_LP_MODEL_H_

#include <cstddef>
#include <vector>

#include "common/vec.h"

namespace isrl::lp {

/// Relation of a linear constraint a·x (rel) rhs.
enum class Relation { kLe, kGe, kEq };

/// Objective direction.
enum class Sense { kMaximize, kMinimize };

/// One linear constraint over the model's variables. Coefficient vectors may
/// be shorter than the variable count; missing entries are zero.
struct Constraint {
  Vec coeffs;
  Relation relation = Relation::kLe;
  double rhs = 0.0;
};

/// An LP: optimise c·x subject to linear constraints, with per-variable
/// non-negativity flags (free variables are supported and handled by the
/// solver via a positive/negative split).
class Model {
 public:
  /// Adds a variable with the given objective coefficient. `nonneg` = true
  /// constrains x ≥ 0; false leaves it free. Returns the variable index.
  size_t AddVariable(double objective_coeff, bool nonneg = true);

  /// Adds the constraint `coeffs · x (relation) rhs`.
  void AddConstraint(const Vec& coeffs, Relation relation, double rhs);

  /// Sets the optimisation direction (default: maximise).
  void SetSense(Sense sense) { sense_ = sense; }

  size_t num_variables() const { return objective_.size(); }
  size_t num_constraints() const { return constraints_.size(); }
  Sense sense() const { return sense_; }
  const std::vector<double>& objective() const { return objective_; }
  const std::vector<bool>& nonneg() const { return nonneg_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }

 private:
  Sense sense_ = Sense::kMaximize;
  std::vector<double> objective_;
  std::vector<bool> nonneg_;
  std::vector<Constraint> constraints_;
};

/// True when `a` and `b` share bitwise-identical constraint structure:
/// variable count, non-negativity flags, and every constraint's coefficients,
/// relation and rhs. Objective and sense are deliberately ignored — this is
/// the membership test for an LP *family* (see lp::FamilySolver): phase 1 of
/// the simplex depends only on the structure compared here.
[[nodiscard]] bool SameConstraintStructure(const Model& a, const Model& b);

}  // namespace isrl::lp

#endif  // ISRL_LP_MODEL_H_
