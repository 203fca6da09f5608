// Dense two-phase primal simplex solver with failure recovery.
//
// Problem sizes in this system are small (tens of variables, up to a few
// hundred constraints from accumulated half-spaces), so a dense tableau with
// Dantzig pricing and a Bland's-rule anti-cycling fallback is both simple and
// fast. All LPs issued by the algorithms go through Solve() or, on the
// interaction hot path, SolveWithRecovery() — which retries kInternal /
// numerically troubled solves with escalated tolerances, Bland-from-start
// pricing, and a tiny deterministic perturbation before giving up.
#ifndef ISRL_LP_SIMPLEX_H_
#define ISRL_LP_SIMPLEX_H_

#include <functional>
#include <memory>

#include "common/status.h"
#include "common/vec.h"
#include "lp/model.h"

namespace isrl::lp {

/// Solver tuning knobs. Defaults are appropriate for the well-scaled LPs in
/// this codebase (coefficients are attribute differences in [-1, 1]).
struct SimplexOptions {
  double feasibility_tol = 1e-9;  ///< Phase-1 residual below this = feasible.
  double pivot_tol = 1e-9;        ///< Entries below this are not pivots.
  size_t max_iterations = 100000; ///< Hard iteration cap across both phases.
  size_t bland_after = 2000;      ///< Switch to Bland's rule after this many
                                  ///< Dantzig iterations (anti-cycling).
};

/// What it took to solve (or fail) an LP — filled by Solve() for the single
/// attempt and aggregated across attempts by SolveWithRecovery().
struct SolveDiagnostics {
  size_t attempts = 0;      ///< solve attempts made (1 = no retry needed)
  size_t iterations = 0;    ///< simplex iterations of the last attempt
  int phase = 0;            ///< phase the last attempt ended in (1 or 2)
  bool used_bland = false;  ///< the last attempt pivoted under Bland's rule
  bool escalated = false;   ///< a retry ran with escalated tolerances
  bool perturbed = false;   ///< a retry ran on a perturbed model
  bool injected_fault = false;  ///< a test hook forced at least one failure
};

/// Outcome of Solve(). On kOk, `objective` and `x` hold the optimum; on
/// kInfeasible / kUnbounded they are unspecified. [[nodiscard]]: ignoring a
/// solve outcome means acting on an unspecified optimum.
struct [[nodiscard]] SolveResult {
  Status status;
  double objective = 0.0;
  Vec x;  ///< Values of the model's variables (original indexing).
  SolveDiagnostics diagnostics;

  [[nodiscard]] bool ok() const { return status.ok(); }
};

/// Solves the model. Returns kInfeasible when no point satisfies the
/// constraints, kUnbounded when the objective is unbounded in the optimise
/// direction, kInternal when the iteration cap is hit.
[[nodiscard]] SolveResult Solve(const Model& model,
                                const SimplexOptions& options = {});

/// Recovery policy for SolveWithRecovery().
struct RetryOptions {
  size_t max_attempts = 3;        ///< total attempts including the first
  double tol_escalation = 100.0;  ///< tolerance multiplier per retry
  double perturbation = 1e-9;     ///< deterministic rhs nudge on the last try
};

/// Solve() plus structured recovery: a kInternal outcome (iteration cap /
/// cycling / numerical trouble) is retried with Bland's rule from the first
/// pivot and escalated tolerances, then once more with a tiny deterministic
/// rhs perturbation. kInfeasible and kUnbounded are genuine answers and are
/// returned immediately. The returned diagnostics describe all attempts.
[[nodiscard]] SolveResult SolveWithRecovery(const Model& model,
                                            const SimplexOptions& options = {},
                                            const RetryOptions& retry = {});

/// Shared-phase-1 solver for a *family* of LPs that differ only in objective
/// (sense, costs) over bitwise-identical constraints and variable domains —
/// AA's 2d rectangle extent LPs are the motivating case. Phase 1 of the
/// two-phase simplex never reads the objective, so its end state (tableau
/// rows, rhs, basis) is member-independent: FamilySolver runs it once per
/// retry-ladder rung and replays the cached state for every member, then runs
/// phase 2 with the member's own cost row. The per-member pivot sequence —
/// and therefore the returned objective and x, bit for bit — is identical to
/// what that member's own SolveWithRecovery() would produce; only the
/// repeated phase-1 work is elided. Members whose constraint structure does
/// not match the first model seen are detected and solved cold. Not
/// thread-safe; use one instance per call site.
class FamilySolver {
 public:
  explicit FamilySolver(const SimplexOptions& options = {},
                        const RetryOptions& retry = {});
  ~FamilySolver();

  FamilySolver(const FamilySolver&) = delete;
  FamilySolver& operator=(const FamilySolver&) = delete;

  /// Solves one member. Bit-identical to SolveWithRecovery(model, options,
  /// retry) for every member whose constraints match the family's.
  [[nodiscard]] SolveResult Solve(const Model& model);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Test-only fault injection: when set, the hook runs before every solve
/// attempt (attempt is 1-based and global across Solve*/ calls) and a non-OK
/// return is reported as that attempt's outcome without running the solver.
/// Not thread-safe; intended for deterministic fault-injection tests.
using LpFaultHook = std::function<Status(const Model& model, size_t attempt)>;
void SetLpFaultHookForTest(LpFaultHook hook);

/// RAII installer for an LpFaultHook that fails the first `failures` solve
/// attempts with kInternal — forces the solver down its retry paths.
class FailingLpHook {
 public:
  explicit FailingLpHook(size_t failures);
  ~FailingLpHook();

  FailingLpHook(const FailingLpHook&) = delete;
  FailingLpHook& operator=(const FailingLpHook&) = delete;

  /// Attempts intercepted so far (failed + passed-through).
  size_t attempts_seen() const;
  /// Attempts forced to fail so far.
  size_t failures_injected() const;

 private:
  size_t failures_;
  size_t seen_ = 0;
  size_t injected_ = 0;
};

}  // namespace isrl::lp

#endif  // ISRL_LP_SIMPLEX_H_
