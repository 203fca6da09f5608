#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "audit/checkers.h"
#include "common/simd.h"

namespace isrl::lp {
namespace {

// The tableau's two element-wise row kernels (DESIGN.md §17). `n` is a
// multiple of 4 (the tableau stride), so the 4-wide lanes need no tail.
// Each lane does the scalar loop's separate multiply and subtract, so every
// entry rounds exactly as `y[j] -= a * x[j]` / `y[j] *= a` would.
using simd::LoadV4;
using simd::SplatV4;
using simd::StoreV4;
using simd::V4;

// y[j] -= a * x[j]: pricing's reduced-cost update and the pivot's row
// elimination.
ISRL_SIMD_TARGET_CLONES
void SubtractScaled(double* y, const double* x, double a, size_t n) {
  const V4 av = SplatV4(a);
  for (size_t j = 0; j < n; j += 4) {
    StoreV4(y + j, LoadV4(y + j) - av * LoadV4(x + j));
  }
}

// y[j] *= a: the pivot row's normalisation.
ISRL_SIMD_TARGET_CLONES
void Scale(double* y, double a, size_t n) {
  const V4 av = SplatV4(a);
  for (size_t j = 0; j < n; j += 4) StoreV4(y + j, LoadV4(y + j) * av);
}

constexpr size_t RoundUpTo4(size_t n) { return (n + 3) & ~size_t{3}; }

// Test-only fault injection (see SetLpFaultHookForTest). One global attempt
// counter across all solves so a hook can fail "the first k attempts".
LpFaultHook g_fault_hook;  // NOLINT(cert-err58-cpp)
size_t g_attempt_counter = 0;

// Internal standard form: maximise c·y subject to A y = b, y ≥ 0, b ≥ 0.
// Columns: split structural variables, then slacks/surpluses, then
// artificials. A full dense tableau is maintained in one row-major buffer:
// row r is `stride_` doubles at Row(r), the first `num_cols_` of them live
// and the rest zero padding up to a multiple of 4.
class Tableau {
 public:
  Tableau(const Model& model, const SimplexOptions& options)
      : options_(options) {
    BuildColumns(model);
    BuildRows(model);
  }

  SolveResult Run() {
    SolveResult result;
    result.diagnostics.attempts = 1;
    if (num_artificial_ > 0 && !RunPhase1(&result)) return result;
    RunPhase2(&result);
    return result;
  }

  // ----- Phase 1: minimise the sum of artificials. -----
  // The phase-1 objective, the artificial-sum feasibility verdict and the
  // drive-out pass never read `cost_`, so the end state of this phase is
  // identical for every model that shares constraint structure — the fact
  // FamilySolver exploits. Returns false (with result->status set) on
  // failure; on success the tableau is primal feasible and artificial-free
  // (up to neutralised redundant rows).
  bool RunPhase1(SolveResult* result) {
    result->diagnostics.phase = 1;
    std::vector<double> phase1_cost(num_cols_, 0.0);
    for (size_t j = first_artificial_; j < num_cols_; ++j) {
      phase1_cost[j] = -1.0;  // maximise -(sum of artificials)
    }
    Status st = Optimize(phase1_cost, /*allow_artificial_entering=*/true);
    FillPivotDiagnostics(&result->diagnostics);
    if (!st.ok()) {
      result->status = st;
      return false;
    }
    double artificial_sum = 0.0;
    for (size_t r = 0; r < num_rows_; ++r) {
      if (basis_[r] >= first_artificial_) artificial_sum += rhs_[r];
    }
    if (artificial_sum > options_.feasibility_tol) {
      result->status = Status::Infeasible("phase 1 optimum positive");
      return false;
    }
    DriveOutArtificials();
    return true;
  }

  // ----- Phase 2: the real objective. -----
  // Accumulates onto result->diagnostics (iterations +=), so a caller that
  // replayed a cached phase-1 state seeds the phase-1 numbers first.
  void RunPhase2(SolveResult* result) {
    result->diagnostics.phase = 2;
    Status st = Optimize(cost_, /*allow_artificial_entering=*/false);
    FillPivotDiagnostics(&result->diagnostics);
    if (!st.ok()) {
      result->status = st;
      return;
    }

    // Final-state audit: the optimal tableau the solution is read from.
    if (audit::ShouldCheck(audit::Checker::kLpTableau)) {
      AuditTableau(cost_, 2, "simplex.Run");
    }

    result->status = Status::Ok();
    result->objective = ObjectiveValue();
    result->x = ExtractSolution();
    result->warm.basis = basis_;
    result->warm.num_rows = num_rows_;
    result->warm.num_cols = num_cols_;
    result->warm.first_artificial = first_artificial_;
  }

  // Re-factorises a previous optimal basis against this tableau: one crash
  // pivot per basic column, each claiming the unclaimed row with the largest
  // magnitude in that column. Returns false when the warm basis is unusable
  // — stale shape fingerprint, corrupt content (artificials, duplicates,
  // out-of-range), a numerically lost pivot, or a primal-infeasible basic
  // solution. On false the tableau may be partially pivoted and must be
  // discarded; the caller falls back to a cold solve. On true phase 1 can be
  // skipped: the installed basis is feasible and artificial-free, which is
  // its own certificate.
  bool InstallWarmBasis(const WarmStart& warm) {
    if (warm.num_rows != num_rows_ || warm.num_cols != num_cols_ ||
        warm.first_artificial != first_artificial_ ||
        warm.basis.size() != num_rows_) {
      return false;
    }
    std::vector<char> seen(num_cols_, 0);
    for (size_t col : warm.basis) {
      if (col >= first_artificial_) return false;  // artificials never reused
      if (seen[col] != 0) return false;
      seen[col] = 1;
    }
    std::vector<char> claimed(num_rows_, 0);
    for (size_t col : warm.basis) {
      if (is_basic_[col] != 0) {
        // Already basic (a slack from the initial basis): claim its row.
        for (size_t r = 0; r < num_rows_; ++r) {
          if (basis_[r] == col) {
            if (claimed[r] != 0) return false;
            claimed[r] = 1;
            break;
          }
        }
        continue;
      }
      size_t best_row = kNoCol;
      double best_abs = options_.pivot_tol;
      for (size_t r = 0; r < num_rows_; ++r) {
        if (claimed[r] != 0) continue;
        double a = std::abs(Row(r)[col]);
        if (a > best_abs) {
          best_abs = a;
          best_row = r;
        }
      }
      if (best_row == kNoCol) return false;  // singular under this basis
      Pivot(best_row, col);
      claimed[best_row] = 1;
    }
    // warm.basis covers every row (distinct, num_rows_ of them), so every
    // row is claimed and no artificial remains basic. The basic solution
    // must be primal feasible for the phase-1 skip to be sound.
    for (size_t r = 0; r < num_rows_; ++r) {
      if (rhs_[r] < -options_.feasibility_tol) return false;
      if (rhs_[r] < 0.0) rhs_[r] = 0.0;  // round-off within tolerance
    }
    return true;
  }

  // Phase 2 from an installed warm basis (InstallWarmBasis must have
  // returned true).
  SolveResult RunWarm() {
    SolveResult result;
    result.diagnostics.attempts = 1;
    RunPhase2(&result);
    return result;
  }

  size_t num_artificial() const { return num_artificial_; }

  // Snapshot / replay of the mutable tableau state, used by FamilySolver to
  // share one phase-1 run across a family of objectives. Everything else
  // (column layout, cost rows) is rebuilt per member from its own model;
  // members share the constraint structure, so the flat buffer's shape
  // matches and the restore is one copy.
  void SaveState(std::vector<double>* rows, std::vector<double>* rhs,
                 std::vector<size_t>* basis) const {
    *rows = tableau_;
    *rhs = rhs_;
    *basis = basis_;
  }
  void RestoreState(const std::vector<double>& rows,
                    const std::vector<double>& rhs,
                    const std::vector<size_t>& basis) {
    tableau_ = rows;
    rhs_ = rhs;
    basis_ = basis;
    is_basic_.assign(num_cols_, 0);
    for (size_t b : basis_) is_basic_[b] = 1;
  }

  // Maps internal objective back to the model's sense and variable split.
  void SetModelMapping(const Model& model) { model_ = &model; }

 private:
  void BuildColumns(const Model& model) {
    // Structural columns: one per non-negative variable, two (x+ / x-) per
    // free variable.
    const size_t nv = model.num_variables();
    col_of_var_.resize(nv);
    neg_col_of_var_.assign(nv, kNoCol);
    double sense_sign =
        model.sense() == Sense::kMaximize ? 1.0 : -1.0;
    for (size_t v = 0; v < nv; ++v) {
      col_of_var_[v] = struct_cost_.size();
      struct_cost_.push_back(sense_sign * model.objective()[v]);
      if (!model.nonneg()[v]) {
        neg_col_of_var_[v] = struct_cost_.size();
        struct_cost_.push_back(-sense_sign * model.objective()[v]);
      }
    }
    num_struct_ = struct_cost_.size();
    sense_sign_ = sense_sign;
  }

  void BuildRows(const Model& model) {
    num_rows_ = model.num_constraints();
    // Count slack columns first so artificials can sit at the end.
    size_t num_slack = 0;
    for (const Constraint& c : model.constraints()) {
      if (c.relation != Relation::kEq) ++num_slack;
    }
    first_slack_ = num_struct_;
    first_artificial_ = num_struct_ + num_slack;

    // Determine which rows need an artificial: kEq rows always; inequality
    // rows whose slack coefficient ends up -1 after sign normalisation.
    // Build the dense rows.
    rhs_.assign(num_rows_, 0.0);
    basis_.assign(num_rows_, kNoCol);

    size_t slack_cursor = first_slack_;
    size_t artificial_count = 0;
    struct RowPlan {
      double sign;          // row multiplier to make rhs non-negative
      size_t slack_col;     // kNoCol if none
      double slack_coeff;   // +1 or -1 (post sign-normalisation)
      bool needs_artificial;
    };
    std::vector<RowPlan> plans(num_rows_);
    for (size_t r = 0; r < num_rows_; ++r) {
      const Constraint& c = model.constraints()[r];
      double sign = c.rhs < 0.0 ? -1.0 : 1.0;
      Relation rel = c.relation;
      if (sign < 0.0) {
        if (rel == Relation::kLe) rel = Relation::kGe;
        else if (rel == Relation::kGe) rel = Relation::kLe;
      }
      RowPlan plan;
      plan.sign = sign;
      plan.slack_col = kNoCol;
      plan.slack_coeff = 0.0;
      plan.needs_artificial = false;
      if (c.relation != Relation::kEq) {
        plan.slack_col = slack_cursor++;
        plan.slack_coeff = (rel == Relation::kLe) ? 1.0 : -1.0;
        plan.needs_artificial = (rel == Relation::kGe);
      } else {
        plan.needs_artificial = true;
      }
      if (plan.needs_artificial) ++artificial_count;
      plans[r] = plan;
    }
    num_artificial_ = artificial_count;
    num_cols_ = first_artificial_ + num_artificial_;
    stride_ = RoundUpTo4(num_cols_);
    tableau_.assign(num_rows_ * stride_, 0.0);
    reduced_.assign(stride_, 0.0);

    size_t artificial_cursor = first_artificial_;
    for (size_t r = 0; r < num_rows_; ++r) {
      const Constraint& c = model.constraints()[r];
      const RowPlan& plan = plans[r];
      double* row = Row(r);
      for (size_t v = 0; v < c.coeffs.dim(); ++v) {
        double a = plan.sign * c.coeffs[v];
        row[col_of_var_[v]] += a;
        if (neg_col_of_var_[v] != kNoCol) row[neg_col_of_var_[v]] -= a;
      }
      rhs_[r] = plan.sign * c.rhs;
      if (plan.slack_col != kNoCol) row[plan.slack_col] = plan.slack_coeff;
      if (plan.needs_artificial) {
        size_t ac = artificial_cursor++;
        row[ac] = 1.0;
        basis_[r] = ac;
      } else {
        basis_[r] = plan.slack_col;  // slack coeff is +1 here by construction
      }
    }

    cost_.assign(num_cols_, 0.0);
    for (size_t j = 0; j < num_struct_; ++j) cost_[j] = struct_cost_[j];

    is_basic_.assign(num_cols_, 0);
    for (size_t b : basis_) is_basic_[b] = 1;
  }

  void FillPivotDiagnostics(SolveDiagnostics* diag) const {
    diag->iterations += last_iterations_;
    diag->used_bland = diag->used_bland || last_used_bland_;
  }

  // Primal simplex on the current tableau with objective `cost`.
  Status Optimize(const std::vector<double>& cost,
                  bool allow_artificial_entering) {
    size_t iterations = 0;
    last_iterations_ = 0;
    last_used_bland_ = false;
    while (true) {
      if (++iterations > options_.max_iterations) {
        last_iterations_ = iterations - 1;
        return Status::Internal("simplex iteration cap exceeded");
      }
      last_iterations_ = iterations;
      const bool bland = iterations > options_.bland_after;
      last_used_bland_ = last_used_bland_ || bland;

      // Reduced costs: c_j - c_B · B^{-1} A_j. With the tableau kept in
      // canonical form (basis columns are unit), the multiplier c_B over
      // row r is cost[basis_[r]]. Priced row-major: every column starts at
      // cost[j] and takes `-= cb * row_r[j]` for the rows with cb != 0 in
      // ascending r, the same subtractions in the same order as a
      // column-at-a-time sum, so each reduced cost is bit-identical to it.
      size_t entering = kNoCol;
      double best_reduced = options_.pivot_tol;
      const size_t col_limit =
          allow_artificial_entering ? num_cols_ : first_artificial_;
      const size_t priced = RoundUpTo4(col_limit);
      double* reduced_cost = reduced_.data();
      std::copy(cost.begin(), cost.begin() + col_limit, reduced_cost);
      std::fill(reduced_cost + col_limit, reduced_cost + priced, 0.0);
      for (size_t r = 0; r < num_rows_; ++r) {
        const double cb = cost[basis_[r]];
        // float-eq-ok: exact-zero skip-work test
        if (cb != 0.0) SubtractScaled(reduced_cost, Row(r), cb, priced);
      }
      for (size_t j = 0; j < col_limit; ++j) {
        if (is_basic_[j] != 0) continue;
        const double reduced = reduced_cost[j];
        if (reduced > options_.pivot_tol) {
          if (bland) {
            entering = j;
            break;
          }
          if (reduced > best_reduced) {
            best_reduced = reduced;
            entering = j;
          }
        }
      }
      if (entering == kNoCol) return Status::Ok();  // optimal

      // Ratio test.
      size_t leaving_row = kNoCol;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (size_t r = 0; r < num_rows_; ++r) {
        double a = Row(r)[entering];
        if (a > options_.pivot_tol) {
          double ratio = rhs_[r] / a;
          if (ratio < best_ratio - 1e-12 ||
              (ratio < best_ratio + 1e-12 && leaving_row != kNoCol &&
               basis_[r] < basis_[leaving_row])) {
            best_ratio = ratio;
            leaving_row = r;
          }
        }
      }
      if (leaving_row == kNoCol) {
        return Status::Unbounded("no leaving row in ratio test");
      }
      Pivot(leaving_row, entering);
      // Audit ladder step: every pivot must leave the tableau primal
      // feasible with a canonical basis (sampled via ISRL_AUDIT=sample=N —
      // the unit-column sweep is quadratic in the row count).
      if (audit::ShouldCheck(audit::Checker::kLpTableau)) {
        AuditTableau(cost, allow_artificial_entering ? 1 : 2,
                     "simplex.Pivot");
      }
    }
  }

  // Runs the tableau checker and records the outcome. `cost` is the phase's
  // active objective (the basic-objective finiteness check uses it).
  void AuditTableau(const std::vector<double>& cost, int phase,
                    const char* site) const {
    audit::TableauView view;
    view.rows = tableau_.data();
    view.stride = stride_;
    view.rhs = &rhs_;
    view.basis = &basis_;
    view.cost = &cost;
    view.num_cols = num_cols_;
    view.first_artificial = first_artificial_;
    view.phase = phase;
    view.feasibility_tol = options_.feasibility_tol;
    audit::Auditor().Record(audit::Checker::kLpTableau, site,
                            audit::CheckSimplexTableau(view));
  }

  // Padding columns stay ±0 through both kernels and are never read.
  void Pivot(size_t pivot_row, size_t pivot_col) {
    double* prow = Row(pivot_row);
    const double pivot = prow[pivot_col];
    ISRL_DCHECK_GT(std::abs(pivot), 0.0);
    const double inv = 1.0 / pivot;
    Scale(prow, inv, stride_);
    rhs_[pivot_row] *= inv;
    prow[pivot_col] = 1.0;  // kill residual round-off

    for (size_t r = 0; r < num_rows_; ++r) {
      if (r == pivot_row) continue;
      double* row = Row(r);
      const double factor = row[pivot_col];
      if (factor == 0.0) continue;  // float-eq-ok: exact-zero skip-work
      SubtractScaled(row, prow, factor, stride_);
      row[pivot_col] = 0.0;
      rhs_[r] -= factor * rhs_[pivot_row];
      if (rhs_[r] < 0.0 && rhs_[r] > -1e-11) rhs_[r] = 0.0;
    }
    is_basic_[basis_[pivot_row]] = 0;
    is_basic_[pivot_col] = 1;
    basis_[pivot_row] = pivot_col;
  }

  // After phase 1: swap basic artificials (at value 0) for non-artificial
  // columns where possible; rows with no eligible pivot are redundant and
  // neutralised.
  void DriveOutArtificials() {
    for (size_t r = 0; r < num_rows_; ++r) {
      if (basis_[r] < first_artificial_) continue;
      double* row = Row(r);
      size_t col = kNoCol;
      for (size_t j = 0; j < first_artificial_; ++j) {
        if (std::abs(row[j]) > options_.pivot_tol && is_basic_[j] == 0) {
          col = j;
          break;
        }
      }
      if (col != kNoCol) {
        Pivot(r, col);
      } else {
        // Redundant row: zero it so the artificial stays basic at 0 and can
        // never re-enter with a nonzero value.
        std::fill(row, row + first_artificial_, 0.0);
        rhs_[r] = 0.0;
      }
    }
  }

  double ObjectiveValue() const {
    double z = 0.0;
    for (size_t r = 0; r < num_rows_; ++r) {
      if (basis_[r] < num_struct_) z += struct_cost_[basis_[r]] * rhs_[r];
    }
    return sense_sign_ * z;  // undo the internal max-normalisation
  }

  Vec ExtractSolution() const {
    std::vector<double> col_value(num_cols_, 0.0);
    for (size_t r = 0; r < num_rows_; ++r) col_value[basis_[r]] = rhs_[r];
    Vec x(col_of_var_.size());
    for (size_t v = 0; v < col_of_var_.size(); ++v) {
      double value = col_value[col_of_var_[v]];
      if (neg_col_of_var_[v] != kNoCol) value -= col_value[neg_col_of_var_[v]];
      x[v] = value;
    }
    return x;
  }

  static constexpr size_t kNoCol = static_cast<size_t>(-1);

  double* Row(size_t r) { return tableau_.data() + r * stride_; }

  const SimplexOptions options_;
  const Model* model_ = nullptr;

  std::vector<size_t> col_of_var_;      // model var -> positive column
  std::vector<size_t> neg_col_of_var_;  // model var -> negative column or kNoCol
  std::vector<double> struct_cost_;     // internal (max-sense) structural costs
  double sense_sign_ = 1.0;

  size_t num_struct_ = 0;
  size_t first_slack_ = 0;
  size_t first_artificial_ = 0;
  size_t num_artificial_ = 0;
  size_t num_rows_ = 0;
  size_t num_cols_ = 0;
  size_t stride_ = 0;  // num_cols_ rounded up to a multiple of 4

  std::vector<double> tableau_;  // num_rows_ × stride_, row-major
  std::vector<double> reduced_;  // Optimize()'s reduced-cost scratch row
  std::vector<double> rhs_;
  std::vector<double> cost_;    // internal phase-2 costs over all columns
  std::vector<size_t> basis_;   // basic column per row
  std::vector<char> is_basic_;  // column -> basic? (kept in sync with basis_;
                                // O(1) pricing test instead of a row scan)

  size_t last_iterations_ = 0;  // iterations of the most recent Optimize()
  bool last_used_bland_ = false;
};

// Copy of `model` with inequality right-hand sides nudged in the relaxing
// direction — breaks the degenerate ties that make the ratio test cycle
// while keeping every feasible point feasible. Equalities are left exact.
Model PerturbModel(const Model& model, double scale) {
  Model out;
  for (size_t v = 0; v < model.num_variables(); ++v) {
    out.AddVariable(model.objective()[v], model.nonneg()[v]);
  }
  out.SetSense(model.sense());
  size_t r = 0;
  for (const Constraint& c : model.constraints()) {
    double delta = scale * (1.0 + std::abs(c.rhs)) *
                   static_cast<double>((r++ % 7) + 1);
    double rhs = c.rhs;
    if (c.relation == Relation::kLe) rhs += delta;
    if (c.relation == Relation::kGe) rhs -= delta;
    out.AddConstraint(c.coeffs, c.relation, rhs);
  }
  return out;
}

}  // namespace

SolveResult Solve(const Model& model, const SimplexOptions& options) {
  if (g_fault_hook) {
    const size_t attempt = ++g_attempt_counter;
    Status injected = g_fault_hook(model, attempt);
    if (!injected.ok()) {
      SolveResult r;
      r.status = std::move(injected);
      r.diagnostics.attempts = 1;
      r.diagnostics.injected_fault = true;
      return r;
    }
  }
  if (model.num_variables() == 0) {
    SolveResult r;
    r.status = Status::InvalidArgument("model has no variables");
    r.diagnostics.attempts = 1;
    return r;
  }
  Tableau tableau(model, options);
  tableau.SetModelMapping(model);
  return tableau.Run();
}

SolveResult SolveWithRecovery(const Model& model, const SimplexOptions& options,
                              const RetryOptions& retry) {
  SolveDiagnostics aggregate;
  SolveResult result;
  const size_t attempts = std::max<size_t>(1, retry.max_attempts);
  for (size_t attempt = 1; attempt <= attempts; ++attempt) {
    SimplexOptions attempt_options = options;
    const Model* attempt_model = &model;
    Model perturbed;
    if (attempt > 1) {
      // Escalation ladder: Bland's rule from the first pivot (the provably
      // terminating rule) plus widened tolerances; the final attempt also
      // perturbs the model to break degenerate ties.
      double factor = 1.0;
      for (size_t k = 1; k < attempt; ++k) factor *= retry.tol_escalation;
      attempt_options.bland_after = 0;
      attempt_options.feasibility_tol = options.feasibility_tol * factor;
      attempt_options.pivot_tol = options.pivot_tol * factor;
      aggregate.escalated = true;
      if (attempt == attempts && retry.perturbation > 0.0) {
        perturbed = PerturbModel(model, retry.perturbation);
        attempt_model = &perturbed;
        aggregate.perturbed = true;
      }
    }
    result = Solve(*attempt_model, attempt_options);
    aggregate.attempts += result.diagnostics.attempts;
    aggregate.iterations = result.diagnostics.iterations;
    aggregate.phase = result.diagnostics.phase;
    aggregate.used_bland = aggregate.used_bland || result.diagnostics.used_bland;
    aggregate.injected_fault =
        aggregate.injected_fault || result.diagnostics.injected_fault;
    // kInfeasible / kUnbounded are genuine answers; only numerical trouble
    // (kInternal: iteration cap, cycling) earns a retry.
    if (result.status.code() != StatusCode::kInternal) break;
  }
  result.diagnostics = aggregate;
  return result;
}

SolveResult SolveWithWarmStart(const Model& model, const WarmStart& warm,
                               const SimplexOptions& options,
                               const RetryOptions& retry) {
  if (warm.empty() || model.num_variables() == 0) {
    return SolveWithRecovery(model, options, retry);
  }
  if (audit::ShouldCheck(audit::Checker::kLpTableau)) {
    // A stale-but-well-formed basis is a legitimate miss (we degrade to a
    // cold solve); an internally inconsistent one means the caller's cached
    // state was corrupted in flight — that is worth a report.
    audit::Auditor().Record(
        audit::Checker::kLpTableau, "simplex.WarmStart",
        audit::CheckWarmStartBasis(warm.basis, warm.num_rows, warm.num_cols,
                                   warm.first_artificial));
  }
  bool injected = false;
  if (g_fault_hook) {
    const size_t attempt = ++g_attempt_counter;
    injected = !g_fault_hook(model, attempt).ok();
  }
  if (!injected) {
    Tableau tableau(model, options);
    tableau.SetModelMapping(model);
    if (tableau.InstallWarmBasis(warm)) {
      SolveResult result = tableau.RunWarm();
      if (result.ok()) {
        result.diagnostics.warm_started = true;
        return result;
      }
      // A phase-2 failure from a warm basis (iteration cap, spurious
      // unboundedness from escalated round-off) is not trusted: re-derive
      // everything through the cold ladder below.
    }
  }
  SolveResult cold = SolveWithRecovery(model, options, retry);
  cold.diagnostics.warm_rejected = true;
  cold.diagnostics.injected_fault =
      cold.diagnostics.injected_fault || injected;
  return cold;
}

// Per-rung cache for FamilySolver: the member-independent phase-1 outcome of
// one escalation rung — either a failure status every member reports, or the
// post-drive-out tableau state every member's phase 2 starts from.
struct FamilySolver::State {
  struct Rung {
    bool ready = false;
    Status ph1_status;  // Ok, or the shared phase-1 failure
    std::vector<double> rows;  // the flat tableau after phase 1
    std::vector<double> rhs;
    std::vector<size_t> basis;
    size_t iterations = 0;
    bool used_bland = false;
  };

  SimplexOptions options;
  RetryOptions retry;
  bool have_family = false;
  Model family;  // constraint-structure reference: the first model seen
  std::vector<Rung> rungs;

  static SolveResult SolveMember(const Model& model,
                                 const SimplexOptions& options, Rung* rung);
};

// One member attempt at one rung. Mirrors Solve() exactly — fault hook,
// empty-model check, fresh tableau — except that phase 1 is replayed from
// the rung cache when available (and cached when not). Phase-1 pivots never
// read the objective, so the replayed state is bit-identical to what this
// member's own phase 1 would have produced.
SolveResult FamilySolver::State::SolveMember(const Model& model,
                                             const SimplexOptions& options,
                                             Rung* rung) {
  if (g_fault_hook) {
    const size_t attempt = ++g_attempt_counter;
    Status injected = g_fault_hook(model, attempt);
    if (!injected.ok()) {
      SolveResult r;
      r.status = std::move(injected);
      r.diagnostics.attempts = 1;
      r.diagnostics.injected_fault = true;
      return r;
    }
  }
  if (model.num_variables() == 0) {
    SolveResult r;
    r.status = Status::InvalidArgument("model has no variables");
    r.diagnostics.attempts = 1;
    return r;
  }
  Tableau tableau(model, options);
  tableau.SetModelMapping(model);
  if (tableau.num_artificial() == 0) return tableau.Run();

  if (!rung->ready) {
    SolveResult result;
    result.diagnostics.attempts = 1;
    const bool ph1_ok = tableau.RunPhase1(&result);
    rung->ready = true;
    rung->ph1_status = ph1_ok ? Status::Ok() : result.status;
    rung->iterations = result.diagnostics.iterations;
    rung->used_bland = result.diagnostics.used_bland;
    if (!ph1_ok) return result;
    tableau.SaveState(&rung->rows, &rung->rhs, &rung->basis);
    tableau.RunPhase2(&result);
    return result;
  }

  SolveResult result;
  result.diagnostics.attempts = 1;
  result.diagnostics.phase = 1;
  result.diagnostics.iterations = rung->iterations;
  result.diagnostics.used_bland = rung->used_bland;
  if (!rung->ph1_status.ok()) {
    result.status = rung->ph1_status;
    return result;
  }
  tableau.RestoreState(rung->rows, rung->rhs, rung->basis);
  tableau.RunPhase2(&result);
  return result;
}

FamilySolver::FamilySolver(const SimplexOptions& options,
                           const RetryOptions& retry)
    : state_(std::make_unique<State>()) {
  state_->options = options;
  state_->retry = retry;
}

FamilySolver::~FamilySolver() = default;

SolveResult FamilySolver::Solve(const Model& model) {
  State& st = *state_;
  if (!st.have_family) {
    st.family = model;
    st.have_family = true;
  } else if (!SameConstraintStructure(model, st.family)) {
    // Not a member of the family after all: solve it cold. Same answer,
    // just without the shared-phase-1 saving.
    return SolveWithRecovery(model, st.options, st.retry);
  }

  // The escalation ladder below must stay rung-for-rung identical to
  // SolveWithRecovery()'s: each member's result is contractually bit-equal
  // to what its own cold recovery solve would return.
  SolveDiagnostics aggregate;
  SolveResult result;
  const size_t attempts = std::max<size_t>(1, st.retry.max_attempts);
  if (st.rungs.size() < attempts) st.rungs.resize(attempts);
  for (size_t attempt = 1; attempt <= attempts; ++attempt) {
    SimplexOptions attempt_options = st.options;
    const Model* attempt_model = &model;
    Model perturbed;
    if (attempt > 1) {
      double factor = 1.0;
      for (size_t k = 1; k < attempt; ++k) factor *= st.retry.tol_escalation;
      attempt_options.bland_after = 0;
      attempt_options.feasibility_tol = st.options.feasibility_tol * factor;
      attempt_options.pivot_tol = st.options.pivot_tol * factor;
      aggregate.escalated = true;
      if (attempt == attempts && st.retry.perturbation > 0.0) {
        // PerturbModel's rhs deltas depend only on the (shared) constraints,
        // so the perturbed members form a family again and the rung cache
        // stays valid for them.
        perturbed = PerturbModel(model, st.retry.perturbation);
        attempt_model = &perturbed;
        aggregate.perturbed = true;
      }
    }
    result = State::SolveMember(*attempt_model, attempt_options,
                                &st.rungs[attempt - 1]);
    aggregate.attempts += result.diagnostics.attempts;
    aggregate.iterations = result.diagnostics.iterations;
    aggregate.phase = result.diagnostics.phase;
    aggregate.used_bland =
        aggregate.used_bland || result.diagnostics.used_bland;
    aggregate.injected_fault =
        aggregate.injected_fault || result.diagnostics.injected_fault;
    if (result.status.code() != StatusCode::kInternal) break;
  }
  result.diagnostics = aggregate;
  return result;
}

void SetLpFaultHookForTest(LpFaultHook hook) {
  g_fault_hook = std::move(hook);
  if (!g_fault_hook) g_attempt_counter = 0;
}

FailingLpHook::FailingLpHook(size_t failures) : failures_(failures) {
  SetLpFaultHookForTest([this](const Model&, size_t) {
    ++seen_;
    if (injected_ < failures_) {
      ++injected_;
      return Status::Internal("injected LP fault");
    }
    return Status::Ok();
  });
}

FailingLpHook::~FailingLpHook() { SetLpFaultHookForTest(nullptr); }

size_t FailingLpHook::attempts_seen() const { return seen_; }

size_t FailingLpHook::failures_injected() const { return injected_; }

}  // namespace isrl::lp
