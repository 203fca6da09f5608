// Concrete invariant predicates for the audit layer (see audit.h).
//
// Each checker is a pure function from a structure (or a lightweight view of
// one) to a list of human-readable problems — empty means the invariant
// holds. Keeping the predicates free of the auditor lets the unit tests
// drive them with seeded corruptions directly, while the production hooks
// (in lp/, geometry/, rl/, core/) call them behind audit::ShouldCheck().
#ifndef ISRL_AUDIT_CHECKERS_H_
#define ISRL_AUDIT_CHECKERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/vec.h"
#include "core/aa_state.h"
#include "geometry/enclosing_ball.h"
#include "geometry/halfspace.h"
#include "nn/network.h"
#include "rl/prioritized_replay.h"

namespace isrl::audit {

// ---------------------------------------------------------------------------
// LP: simplex tableau.
// ---------------------------------------------------------------------------

/// Read-only view of the dense tableau's state between pivots. The tableau
/// class itself is file-local to lp/simplex.cc; the solver builds this view
/// (pointers only) for the hook, and tests build corrupted ones by hand.
/// The tableau is one row-major buffer: entry (r, c) is rows[r * stride + c]
/// for c < num_cols ≤ stride.
struct TableauView {
  const double* rows = nullptr;
  size_t stride = 0;                            ///< doubles per row
  const std::vector<double>* rhs = nullptr;     ///< one entry per row
  const std::vector<size_t>* basis = nullptr;   ///< basic column per row
  const std::vector<double>* cost = nullptr;    ///< objective over all columns
  size_t num_cols = 0;
  size_t first_artificial = 0;  ///< == num_cols when no artificials exist
  int phase = 2;                ///< artificials may be basic only in phase 1
  double feasibility_tol = 1e-9;

  [[nodiscard]] double At(size_t r, size_t c) const {
    return rows[r * stride + c];
  }
};

/// Simplex invariants that must hold after every pivot:
///  - primal feasibility: every rhs entry ≥ −tol (the ratio test preserves
///    non-negativity; a negative basic value means the pivot corrupted it);
///  - basis consistency: basic columns are in range, pairwise distinct, and
///    each is a unit column of the tableau (1 in its own row, ~0 elsewhere);
///  - bounded objective: the basic objective value Σ c_B·rhs is finite, as
///    is every tableau entry on the basic columns;
///  - phase separation: in phase 2 a basic artificial may persist only on a
///    neutralised redundant row, i.e. at value ~0.
[[nodiscard]] std::vector<std::string> CheckSimplexTableau(
    const TableauView& view);

/// Internal consistency of a warm-start basis (lp::WarmStart, passed as raw
/// fields so this header stays solver-independent): `basis` must hold exactly
/// `num_rows` pairwise-distinct structural/slack column indices — each
/// < `first_artificial` ≤ `num_cols` — and the fingerprint itself must be
/// coherent (first_artificial ≤ num_cols). A *stale* basis (right shape,
/// wrong model) is not detectable here and is a legitimate cold-fallback at
/// the solver; a basis that fails these checks was corrupted after export.
[[nodiscard]] std::vector<std::string> CheckWarmStartBasis(
    const std::vector<size_t>& basis, size_t num_rows, size_t num_cols,
    size_t first_artificial);

// ---------------------------------------------------------------------------
// Geometry: polyhedron vertex set and enclosing balls.
// ---------------------------------------------------------------------------

/// Every stored extreme vertex must lie in the polyhedron it claims to
/// describe: finite, on the unit simplex (u ≥ −tol, Σu = 1 ± d·tol), and on
/// the feasible side of every retained cut (margin ≥ −tol·‖normal‖).
[[nodiscard]] std::vector<std::string> CheckPolyhedronVertices(
    size_t dim, const std::vector<Halfspace>& cuts,
    const std::vector<Vec>& vertices, double tol);

/// Vertex–facet adjacency consistency (DESIGN.md §17): `facets` must be
/// parallel to `vertices`, each facet set must hold exactly d−1 sorted,
/// distinct, in-range inequality-constraint indices (0..d−1 the
/// non-negativity rows, d+j the j-th cut), pairwise-distinct across
/// vertices, every listed constraint must be tight at its vertex within
/// `tight_tol`·scale, and every edge (a facet set minus one entry) must be
/// shared by exactly two vertices — a dangling edge means the enumeration
/// lost a vertex.
[[nodiscard]] std::vector<std::string> CheckPolyhedronAdjacency(
    size_t dim, const std::vector<Halfspace>& cuts,
    const std::vector<Vec>& vertices,
    const std::vector<std::vector<uint32_t>>& facets, double tight_tol);

/// Cut monotonicity: a cut intersects R with a half-space, so any monotone
/// volume proxy (we use the vertex-set diameter) must not grow. `slack`
/// absorbs re-enumeration round-off.
[[nodiscard]] std::vector<std::string> CheckCutMonotonicity(
    double proxy_before, double proxy_after, double slack);

/// An enclosing ball must contain every point it was computed from, within
/// `tol` slack, and have a finite centre / non-negative finite radius.
[[nodiscard]] std::vector<std::string> CheckBallEncloses(
    const Ball& ball, const std::vector<Vec>& points, double tol);

/// Every entry of `v` is finite. Used at the EA/AA call sites on the encoded
/// state vectors — a NaN smuggled into a state poisons every Q-value the
/// agent computes from it, silently.
[[nodiscard]] std::vector<std::string> CheckFiniteVec(const Vec& v,
                                                      const char* what);

// ---------------------------------------------------------------------------
// RL: network finiteness, target-net sync epoch, replay segment tree.
// ---------------------------------------------------------------------------

/// No NaN/Inf anywhere in the network's parameters or accumulated
/// gradients. `label` names the network in the report ("main", "target").
/// (Network::Params() is non-const by design; the checker only reads.)
[[nodiscard]] std::vector<std::string> CheckNetworkFinite(
    nn::Network& network, const char* label);

/// Target-network sync epoch: immediately after an update that completed a
/// sync epoch (num_updates ≡ 0 mod target_sync_every), the target must be a
/// bit-exact copy of the main network (SyncTarget copies, never re-derives).
[[nodiscard]] std::vector<std::string> CheckTargetSyncEpoch(
    uint64_t num_updates, size_t target_sync_every, nn::Network& main_network,
    nn::Network& target_network);

/// Raw segment-tree consistency: the maintained root aggregates must match
/// the leaf priorities (Σ within rel_tol·Σ absolute slack, min exactly up to
/// rel_tol), and every occupied leaf priority must be finite and > 0.
/// Exposed raw so tests can seed corrupted aggregates.
[[nodiscard]] std::vector<std::string> CheckReplayTreeRaw(
    const std::vector<double>& leaf_priorities, double total_priority,
    double min_priority, double rel_tol);

/// CheckReplayTreeRaw over a live PER memory's occupied slots.
[[nodiscard]] std::vector<std::string> CheckReplayTree(
    const rl::PrioritizedReplayMemory& memory, double rel_tol);

// ---------------------------------------------------------------------------
// Core: AA's LP-derived geometry.
// ---------------------------------------------------------------------------

/// A feasible AaGeometry must be internally consistent: finite values,
/// radius ≥ 0, per-coordinate e_min ≤ e_max + tol, the inner-ball centre on
/// the feasible side of every learned half-space (margin ≥ −tol) and inside
/// the outer rectangle (±tol).
[[nodiscard]] std::vector<std::string> CheckAaGeometry(
    const AaGeometry& geometry, const std::vector<LearnedHalfspace>& h,
    double tol);

}  // namespace isrl::audit

#endif  // ISRL_AUDIT_CHECKERS_H_
