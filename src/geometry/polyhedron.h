// The utility range R: the intersection of the unit simplex
// U = { u ≥ 0, Σu = 1 } with the half-spaces learned from user answers.
//
// Algorithm EA needs R's extreme utility vectors (its corner points) for the
// state representation, the terminal test of Lemma 6, and sampling. R lives
// inside the simplex, so it is a bounded polytope and equals the convex hull
// of its vertices. Vertices correspond to subsets of d−1 tight constraints
// drawn from { u_i = 0 } ∪ { cut boundaries } (plus Σu = 1), and the seed
// implementation enumerated ALL such subsets after every cut — exponential in
// practice and the main scaling wall for high dimension and long sessions.
//
// This version maintains vertex–facet adjacency across cuts (DESIGN.md §17):
// each vertex carries the sorted index set of its d−1 tight inequality
// constraints (its incident facets). A new half-space then classifies the
// existing vertices in O(V·d); only the dead vertices are replaced, by
// walking the adjacency graph — two vertices are adjacent (share an edge) iff
// their facet sets share d−2 indices, and every new vertex lies where a
// live–dead edge crosses the new hyperplane. The incremental step is
// *certified*: guard-band tests prove the polytope is in simple position and
// that the update reproduces the full enumeration bit-for-bit; any ambiguity
// (a vertex within the guard band of the new cut, a near-degenerate solve, a
// near-duplicate vertex) falls back to the full combinatorial enumeration,
// which doubles as the adjacency (re)builder. Results are therefore always
// bit-identical to the seed path, which is retained as the audit-gated
// reference. Tests and benchmarks reach that reference through
// FromSnapshotParts(d, cuts(), vertices()): the restored copy carries no
// adjacency, so its next Cut() re-enumerates in full.
#ifndef ISRL_GEOMETRY_POLYHEDRON_H_
#define ISRL_GEOMETRY_POLYHEDRON_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/vec.h"
#include "geometry/halfspace.h"

namespace isrl {

/// Bounded polytope R = U ∩ h₁⁺ ∩ … ∩ h_k⁺ with explicit vertex enumeration
/// and incremental vertex–facet adjacency maintenance across cuts.
class Polyhedron {
 public:
  /// The whole utility space U (the unit simplex) in d dimensions, d ≥ 2.
  static Polyhedron UnitSimplex(size_t d);

  /// Rebuilds a polyhedron from checkpointed cuts + vertices (core/snapshot
  /// codec). The vertex set is adopted verbatim — NOT re-enumerated — so a
  /// restored session sees bit-identical extreme vectors; the parts are
  /// validated instead (dimension agreement, every vertex feasible under
  /// the cuts and the simplex constraints) and inconsistent input surfaces
  /// as an InvalidArgument Status, never a CHECK. The adjacency structure is
  /// NOT serialized: it is rebuilt deterministically by the first Cut()
  /// after restore (which re-enumerates), so snapshot bytes and
  /// restart-at-every-round bit-identity are unchanged (DESIGN.md §17).
  static Result<Polyhedron> FromSnapshotParts(size_t d,
                                              std::vector<Halfspace> cuts,
                                              std::vector<Vec> vertices);

  /// Intersects R with the half-space and recomputes the vertex set —
  /// incrementally via the adjacency graph when certified, by full
  /// re-enumeration otherwise. Redundant cuts (strictly slack at every
  /// vertex) are dropped.
  void Cut(const Halfspace& h);

  /// Cut() that refuses to empty R: when the half-space would leave no
  /// feasible vertex (a conflicting answer from an inconsistent user), the
  /// previous state is restored and false is returned. The degradation
  /// primitive of the fault-tolerant interaction engine. [[nodiscard]]: a
  /// dropped return means a rejected answer is treated as learned.
  [[nodiscard]] bool TryCut(const Halfspace& h);

  /// Corner points (extreme utility vectors E) of R. Empty iff R is empty
  /// (up to tolerance).
  const std::vector<Vec>& vertices() const { return vertices_; }

  /// The retained (non-redundant) cuts, excluding the simplex constraints.
  const std::vector<Halfspace>& cuts() const { return cuts_; }

  /// Per-vertex incident-facet sets (parallel to vertices(), valid only when
  /// adjacency_valid()): the sorted indices of the d−1 inequality
  /// constraints tight at each vertex. Index space: 0..d−1 are the
  /// non-negativity facets u_i ≥ 0, d+j is cuts()[j]. Exposed for the audit
  /// checkers and tests.
  const std::vector<std::vector<uint32_t>>& vertex_facets() const {
    return facets_;
  }

  /// True when vertex_facets() describes vertices() and the polytope is in
  /// certified simple position (every vertex has exactly d−1 tight
  /// inequality constraints, pairwise distinct). False after a snapshot
  /// restore or a degenerate configuration — the next Cut() then rebuilds
  /// the structure by full enumeration.
  [[nodiscard]] bool adjacency_valid() const { return adjacency_valid_; }

  size_t dim() const { return dim_; }

  /// True when no vertex satisfies all constraints.
  [[nodiscard]] bool IsEmpty() const { return vertices_.empty(); }

  /// True when `u` satisfies the simplex constraints and all cuts.
  [[nodiscard]] bool Contains(const Vec& u, double tol = 1e-9) const;

  /// Arithmetic mean of the vertices (inside R by convexity). R must be
  /// non-empty.
  [[nodiscard]] Vec Centroid() const;

  /// A random point of R: a Dirichlet(1)-weighted convex combination of the
  /// vertices. Covers all of R with positive density (not volume-uniform;
  /// EA only needs representative interior points, see DESIGN.md).
  Vec SampleInterior(Rng& rng) const;

  /// Largest pairwise vertex distance (0 for a point, R must be non-empty).
  [[nodiscard]] double Diameter() const;

 private:
  explicit Polyhedron(size_t d) : dim_(d) {}

  /// Full combinatorial vertex enumeration from the current constraint set
  /// (the seed path). Also records each vertex's tight-facet set and
  /// certifies simple position, setting adjacency_valid_.
  void EnumerateVertices();

  /// One incremental update for the just-appended cut. Returns false —
  /// leaving vertices_/facets_ untouched — whenever the update cannot be
  /// certified bit-identical to full re-enumeration.
  bool TryIncrementalCut();

  /// Removes cuts that are strictly slack at every vertex (safe: R is the
  /// convex hull of its vertices) and renumbers the facet indices of the
  /// retained cuts in the adjacency structure.
  void DropRedundantCuts();

  size_t dim_;
  std::vector<Halfspace> cuts_;
  std::vector<Vec> vertices_;
  /// Tight-facet set per vertex (see vertex_facets()); maintained sorted by
  /// lexicographic facet-set order, which is exactly the enumeration order
  /// of the seed path.
  std::vector<std::vector<uint32_t>> facets_;
  bool adjacency_valid_ = false;
};

}  // namespace isrl

#endif  // ISRL_GEOMETRY_POLYHEDRON_H_
