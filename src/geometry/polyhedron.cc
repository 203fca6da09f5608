#include "geometry/polyhedron.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "audit/audit.h"
#include "audit/checkers.h"
#include "common/matrix.h"

namespace isrl {
namespace {

// A subset solution counts as feasible when no constraint is violated by
// more than this; two solutions closer than kDedupTol are one vertex.
constexpr double kFeasibilityTol = 1e-9;
constexpr double kDedupTol = 1e-7;
// Guard band for the simple-position certificate: a constraint counts as
// strictly slack at a vertex only when its margin exceeds this × the
// constraint scale. The band is one kDedupTol wide, so two subset solutions
// closer than the dedup distance can never both be certified (DESIGN.md §17).
constexpr double kSlackGuard = 1e-7;
// Residual bound for a constraint claimed tight at a vertex; well above the
// solver's ~1e-15 residual on a well-conditioned system, well below the guard.
constexpr double kTightSlop = 1e-9;

/// Scale of inequality constraint `idx` (non-negativity rows are unit).
double ConstraintScale(size_t dim, const std::vector<Halfspace>& cuts,
                       size_t idx) {
  if (idx < dim) return 1.0;
  return std::max(1.0, cuts[idx - dim].normal.Norm());
}

/// Margin of inequality constraint `idx` at `u`, with the exact accumulation
/// order of the seed enumerator's feasibility test.
double ConstraintMargin(size_t dim, const std::vector<Halfspace>& cuts,
                        size_t idx, const Vec& u) {
  double margin = idx < dim ? -0.0 : -cuts[idx - dim].offset;
  for (size_t c = 0; c < dim; ++c) {
    const double normal_c =
        idx < dim ? (idx == c ? 1.0 : 0.0) : cuts[idx - dim].normal[c];
    margin += normal_c * u[c];
  }
  return margin;
}

/// Full certificate for one vertex: every constraint in `facet_set` (sorted)
/// is tight within kTightSlop × scale, every other constraint is strictly
/// slack beyond kSlackGuard × scale. This is what "simple position" means
/// operationally; see DESIGN.md §17 for why it implies the incremental
/// update is bit-identical to full enumeration.
bool CertifyVertex(size_t dim, const std::vector<Halfspace>& cuts,
                   const Vec& u, const std::vector<uint32_t>& facet_set) {
  const size_t num_ineq = dim + cuts.size();
  size_t next = 0;  // cursor into the sorted facet set
  for (size_t idx = 0; idx < num_ineq; ++idx) {
    const double margin = ConstraintMargin(dim, cuts, idx, u);
    const double scale = ConstraintScale(dim, cuts, idx);
    if (next < facet_set.size() && facet_set[next] == idx) {
      ++next;
      if (std::abs(margin) > kTightSlop * scale) return false;
    } else {
      if (margin <= kSlackGuard * scale) return false;
    }
  }
  return next == facet_set.size();
}

/// Edge map of the adjacency structure: each (d−2)-subset obtained by
/// dropping one facet from a vertex's facet set is an edge key; the value
/// lists the vertices incident to that edge. In certified simple position on
/// a bounded polytope every edge has exactly two endpoints, so every value
/// must have size 2 — a count of 1 is a dangling edge and proves a vertex is
/// missing from the enumeration (e.g. a pivot-rejected near-singular subset
/// system), which is exactly the configuration where an incremental update
/// could silently diverge from the seed path.
using EdgeMap = std::map<std::vector<uint32_t>, std::vector<uint32_t>>;

EdgeMap BuildEdgeMap(const std::vector<std::vector<uint32_t>>& facets) {
  EdgeMap edges;
  std::vector<uint32_t> key;
  for (size_t i = 0; i < facets.size(); ++i) {
    for (size_t drop = 0; drop < facets[i].size(); ++drop) {
      key.clear();
      for (size_t f = 0; f < facets[i].size(); ++f) {
        if (f != drop) key.push_back(facets[i][f]);
      }
      edges[key].push_back(static_cast<uint32_t>(i));
    }
  }
  return edges;
}

bool EdgeGraphComplete(const EdgeMap& edges) {
  for (const auto& [key, ends] : edges) {
    if (ends.size() != 2) return false;
  }
  return true;
}

/// Verbatim seed-path vertex enumeration: solve every (d−1)-subset of the
/// inequality constraints together with Σu = 1, keep feasible non-duplicate
/// solutions in lexicographic subset order. With `track`, also records the
/// generating subset of every accepted vertex and whether dedup ever fired.
/// Every arithmetic operation matches the seed implementation exactly — this
/// function IS the bit-identity reference.
struct EnumerationResult {
  std::vector<Vec> vertices;
  std::vector<std::vector<uint32_t>> facets;
  bool dedup_fired = false;
};

void EnumerateFromScratch(size_t dim, const std::vector<Halfspace>& cuts,
                          bool track, EnumerationResult* out) {
  out->vertices.clear();
  out->facets.clear();
  out->dedup_fired = false;

  // Inequality constraints: d non-negativity rows then the cuts.
  const size_t num_ineq = dim + cuts.size();
  auto ineq_normal = [&](size_t idx, size_t coord) -> double {
    if (idx < dim) return idx == coord ? 1.0 : 0.0;
    return cuts[idx - dim].normal[coord];
  };
  auto ineq_offset = [&](size_t idx) -> double {
    return idx < dim ? 0.0 : cuts[idx - dim].offset;
  };

  const size_t k = dim - 1;  // tight inequalities per vertex
  if (num_ineq < k) return;

  std::vector<size_t> subset(k);
  for (size_t i = 0; i < k; ++i) subset[i] = i;

  Matrix a(dim, dim);
  Vec b(dim);
  Vec x(dim);

  auto feasible = [&](const Vec& u) {
    for (size_t idx = 0; idx < num_ineq; ++idx) {
      double margin = -ineq_offset(idx);
      for (size_t c = 0; c < dim; ++c) margin += ineq_normal(idx, c) * u[c];
      if (margin < -kFeasibilityTol) return false;
    }
    return true;
  };

  while (true) {
    // Build the d×d system: Σu = 1 plus the k chosen tight constraints.
    for (size_t c = 0; c < dim; ++c) a(0, c) = 1.0;
    b[0] = 1.0;
    for (size_t r = 0; r < k; ++r) {
      for (size_t c = 0; c < dim; ++c) a(r + 1, c) = ineq_normal(subset[r], c);
      b[r + 1] = ineq_offset(subset[r]);
    }
    if (SolveLinearSystem(a, b, &x) && feasible(x)) {
      bool duplicate = false;
      for (const Vec& v : out->vertices) {
        if (ApproxEqual(v, x, kDedupTol)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        out->vertices.push_back(x);
        if (track) {
          out->facets.emplace_back(subset.begin(), subset.end());
        }
      } else if (track) {
        out->dedup_fired = true;
      }
    }

    // Advance to the next k-subset of [0, num_ineq).
    size_t i = k;
    while (i > 0) {
      --i;
      if (subset[i] + (k - i) < num_ineq) {
        ++subset[i];
        for (size_t j = i + 1; j < k; ++j) subset[j] = subset[j - 1] + 1;
        break;
      }
      if (i == 0) return;
    }
    if (k == 0) return;  // d == 1 degenerate guard (excluded by UnitSimplex)
  }
}

}  // namespace

Polyhedron Polyhedron::UnitSimplex(size_t d) {
  ISRL_CHECK_GE(d, 2u);
  Polyhedron p(d);
  p.EnumerateVertices();
  return p;
}

Result<Polyhedron> Polyhedron::FromSnapshotParts(size_t d,
                                                 std::vector<Halfspace> cuts,
                                                 std::vector<Vec> vertices) {
  if (d < 2) {
    return Status::InvalidArgument("polyhedron snapshot: dimension < 2");
  }
  for (const Halfspace& h : cuts) {
    if (h.normal.dim() != d) {
      return Status::InvalidArgument(
          "polyhedron snapshot: cut normal dimension mismatch");
    }
  }
  Polyhedron p(d);
  p.cuts_ = std::move(cuts);
  // Containment at a loose tolerance: snapshot vertices were enumerated at
  // kFeasibilityTol, so an honest snapshot passes easily, while corrupted
  // coordinates (bit flips survive CRC only if re-framed) are rejected.
  const double tol = 1e-6;
  for (const Vec& v : vertices) {
    if (v.dim() != d || !p.Contains(v, tol)) {
      return Status::InvalidArgument(
          "polyhedron snapshot: vertex outside the polyhedron");
    }
  }
  p.vertices_ = std::move(vertices);
  // adjacency_valid_ stays false: the facet structure is not serialized and
  // is rebuilt (deterministically, by full enumeration) on the first Cut().
  return p;
}

void Polyhedron::Cut(const Halfspace& h) {
  ISRL_CHECK_EQ(h.normal.dim(), dim_);
  // A cut already satisfied everywhere would survive DropRedundantCuts but
  // wastes enumeration work; skip it outright.
  bool all_strictly_inside = !vertices_.empty();
  for (const Vec& v : vertices_) {
    if (h.Margin(v) <= kFeasibilityTol) {
      all_strictly_inside = false;
      break;
    }
  }
  if (all_strictly_inside) return;
  // Audit: a cut only ever shrinks R, so the vertex-set diameter (a
  // monotone volume proxy) must not grow, and every re-enumerated vertex
  // must satisfy the full constraint set.
  const bool auditing = audit::ShouldCheck(audit::Checker::kPolyhedron);
  const bool had_vertices = !vertices_.empty();
  double proxy_before = 0.0;
  if (auditing && had_vertices) proxy_before = Diameter();
  cuts_.push_back(h);
  const bool incremental_done = adjacency_valid_ && TryIncrementalCut();
  if (!incremental_done) {
    EnumerateVertices();
  } else if (audit::ShouldCheck(audit::Checker::kPolyhedronAdjacency)) {
    // Audit-gated reference: re-run the seed enumeration from scratch and
    // demand bitwise agreement with the incremental result.
    EnumerationResult ref;
    EnumerateFromScratch(dim_, cuts_, /*track=*/false, &ref);
    std::vector<std::string> problems;
    if (ref.vertices.size() != vertices_.size()) {
      problems.push_back("incremental vertex count " +
                         std::to_string(vertices_.size()) +
                         " != reference " +
                         std::to_string(ref.vertices.size()));
    } else {
      for (size_t i = 0; i < vertices_.size() && problems.empty(); ++i) {
        for (size_t c = 0; c < dim_; ++c) {
          // float-eq-ok: bit-identity is the contract being audited.
          if (vertices_[i][c] != ref.vertices[i][c]) {
            problems.push_back("incremental vertex " + std::to_string(i) +
                               " coord " + std::to_string(c) +
                               " differs from the seed-path reference");
            break;
          }
        }
      }
    }
    audit::Auditor().Record(audit::Checker::kPolyhedronAdjacency,
                            "Polyhedron.Cut.reference", problems);
  }
  DropRedundantCuts();
  if (auditing) {
    std::vector<std::string> problems = audit::CheckPolyhedronVertices(
        dim_, cuts_, vertices_, 10.0 * kFeasibilityTol);
    if (had_vertices && !vertices_.empty()) {
      std::vector<std::string> monotone = audit::CheckCutMonotonicity(
          proxy_before, Diameter(), 1e-7);
      problems.insert(problems.end(), monotone.begin(), monotone.end());
    }
    audit::Auditor().Record(audit::Checker::kPolyhedron, "Polyhedron.Cut",
                            problems);
  }
  if (adjacency_valid_ &&
      audit::ShouldCheck(audit::Checker::kPolyhedronAdjacency)) {
    audit::Auditor().Record(
        audit::Checker::kPolyhedronAdjacency, "Polyhedron.Cut",
        audit::CheckPolyhedronAdjacency(dim_, cuts_, vertices_, facets_,
                                        kSlackGuard));
  }
}

bool Polyhedron::TryCut(const Halfspace& h) {
  std::vector<Halfspace> saved_cuts = cuts_;
  std::vector<Vec> saved_vertices = vertices_;
  std::vector<std::vector<uint32_t>> saved_facets = facets_;
  const bool saved_valid = adjacency_valid_;
  Cut(h);
  if (!vertices_.empty()) return true;
  cuts_ = std::move(saved_cuts);
  vertices_ = std::move(saved_vertices);
  facets_ = std::move(saved_facets);
  adjacency_valid_ = saved_valid;
  return false;
}

bool Polyhedron::Contains(const Vec& u, double tol) const {
  if (u.dim() != dim_) return false;
  double sum = 0.0;
  for (size_t i = 0; i < dim_; ++i) {
    if (u[i] < -tol) return false;
    sum += u[i];
  }
  if (std::abs(sum - 1.0) > tol) return false;
  for (const Halfspace& h : cuts_) {
    if (!h.Contains(u, tol)) return false;
  }
  return true;
}

Vec Polyhedron::Centroid() const {
  ISRL_CHECK(!vertices_.empty());
  Vec c(dim_);
  for (const Vec& v : vertices_) c += v;
  c /= static_cast<double>(vertices_.size());
  return c;
}

Vec Polyhedron::SampleInterior(Rng& rng) const {
  ISRL_CHECK(!vertices_.empty());
  Vec weights = rng.SimplexUniform(vertices_.size());
  Vec u(dim_);
  for (size_t i = 0; i < vertices_.size(); ++i) u += vertices_[i] * weights[i];
  return u;
}

double Polyhedron::Diameter() const {
  ISRL_CHECK(!vertices_.empty());
  double best = 0.0;
  for (size_t i = 0; i < vertices_.size(); ++i) {
    for (size_t j = i + 1; j < vertices_.size(); ++j) {
      best = std::max(best, Distance(vertices_[i], vertices_[j]));
    }
  }
  return best;
}

void Polyhedron::EnumerateVertices() {
  EnumerationResult result;
  EnumerateFromScratch(dim_, cuts_, /*track=*/true, &result);
  vertices_ = std::move(result.vertices);
  facets_.clear();
  adjacency_valid_ = false;
  // Certify simple position: no dedup event (a dedup hides a subset solution
  // and breaks the one-subset-per-vertex invariant), every vertex strictly
  // slack outside its facet set, and a complete edge graph (every edge has
  // both endpoints — a dangling edge means a pivot-rejected subset system
  // hid a vertex). Only a fully certified structure enables the incremental
  // path; anything else re-enumerates on the next cut.
  if (result.dedup_fired) return;
  for (size_t i = 0; i < vertices_.size(); ++i) {
    if (!CertifyVertex(dim_, cuts_, vertices_[i], result.facets[i])) return;
  }
  if (!EdgeGraphComplete(BuildEdgeMap(result.facets))) return;
  facets_ = std::move(result.facets);
  adjacency_valid_ = true;
}

bool Polyhedron::TryIncrementalCut() {
  // cuts_ already contains the new half-space as its last element.
  const size_t num_ineq = dim_ + cuts_.size();
  const auto m = static_cast<uint32_t>(num_ineq - 1);
  const Halfspace& h = cuts_.back();
  if (vertices_.empty()) return false;

  // 1. Classify every vertex against the new constraint. Any vertex inside
  //    the guard band is ambiguous — the certified argument needs every old
  //    vertex strictly on one side — so fall back.
  const double guard = kSlackGuard * std::max(1.0, h.normal.Norm());
  std::vector<char> dead(vertices_.size(), 0);
  bool any_dead = false;
  bool any_live = false;
  for (size_t i = 0; i < vertices_.size(); ++i) {
    const double margin = ConstraintMargin(dim_, cuts_, m, vertices_[i]);
    if (std::abs(margin) <= guard) return false;
    dead[i] = margin < 0.0 ? 1 : 0;
    (dead[i] ? any_dead : any_live) = true;
  }
  // All-live is handled by Cut()'s skip (its threshold is looser than the
  // guard); all-dead empties R, which only the reference path may declare.
  if (!any_dead || !any_live) return false;

  // 2. Walk the adjacency graph: candidate vertices lie where an edge with
  //    one live and one dead endpoint crosses the new hyper-plane. The edge
  //    map doubles as the completeness re-check of the stored structure.
  const EdgeMap edges = BuildEdgeMap(facets_);
  if (!EdgeGraphComplete(edges)) return false;

  // 3. Solve each crossing edge's subset (the shared d−2 facets plus the new
  //    constraint) with the seed-identical linear system, in lexicographic
  //    subset order (std::map iteration order), and certify each solution:
  //    exact-tight on its subset, strictly slack elsewhere, and not within
  //    dedup distance of any retained or new vertex. Any failed certificate
  //    falls back to full enumeration, untouched state.
  Matrix a(dim_, dim_);
  Vec b(dim_);
  Vec x(dim_);
  std::vector<Vec> fresh;
  std::vector<std::vector<uint32_t>> fresh_facets;
  std::vector<uint32_t> subset;
  for (const auto& [key, ends] : edges) {
    if (dead[ends[0]] == dead[ends[1]]) continue;
    subset = key;
    subset.push_back(m);  // m is the largest index: stays sorted
    for (size_t c = 0; c < dim_; ++c) a(0, c) = 1.0;
    b[0] = 1.0;
    for (size_t r = 0; r < subset.size(); ++r) {
      const size_t idx = subset[r];
      for (size_t c = 0; c < dim_; ++c) {
        a(r + 1, c) =
            idx < dim_ ? (idx == c ? 1.0 : 0.0) : cuts_[idx - dim_].normal[c];
      }
      b[r + 1] = idx < dim_ ? 0.0 : cuts_[idx - dim_].offset;
    }
    if (!SolveLinearSystem(a, b, &x)) return false;
    if (!CertifyVertex(dim_, cuts_, x, subset)) return false;
    for (size_t i = 0; i < vertices_.size(); ++i) {
      if (!dead[i] && ApproxEqual(vertices_[i], x, kDedupTol)) {
        return false;
      }
    }
    for (const Vec& f : fresh) {
      if (ApproxEqual(f, x, kDedupTol)) return false;
    }
    fresh.push_back(x);
    fresh_facets.push_back(subset);
  }
  if (fresh.empty()) return false;

  // 4. Merge surviving and new vertices in lexicographic facet-set order —
  //    exactly the acceptance order of the seed enumerator, so the resulting
  //    vertex sequence is bit-identical to a full re-enumeration.
  std::vector<Vec> merged;
  std::vector<std::vector<uint32_t>> merged_facets;
  merged.reserve(vertices_.size() + fresh.size());
  merged_facets.reserve(merged.capacity());
  size_t io = 0;
  size_t in = 0;
  while (io < vertices_.size() || in < fresh.size()) {
    while (io < vertices_.size() && dead[io]) ++io;
    const bool take_old =
        io < vertices_.size() &&
        (in >= fresh.size() || facets_[io] < fresh_facets[in]);
    if (take_old) {
      merged.push_back(std::move(vertices_[io]));
      merged_facets.push_back(std::move(facets_[io]));
      ++io;
    } else if (in < fresh.size()) {
      merged.push_back(std::move(fresh[in]));
      merged_facets.push_back(std::move(fresh_facets[in]));
      ++in;
    }
  }
  vertices_ = std::move(merged);
  facets_ = std::move(merged_facets);

  // 5. The output above is certified bit-identical regardless, but the new
  //    structure is only reusable for the NEXT cut if its own edge graph is
  //    complete (new near-singular subsets can appear with the new facet).
  adjacency_valid_ = EdgeGraphComplete(BuildEdgeMap(facets_));
  if (!adjacency_valid_) facets_.clear();
  return true;
}

void Polyhedron::DropRedundantCuts() {
  if (vertices_.empty()) return;
  // Keep only cuts that are tight at some vertex; a cut strictly slack at
  // every vertex cannot touch conv(vertices) = R. This is the one-constraint
  // relaxation test: with the cut removed, every vertex stays feasible, so
  // the cut was redundant.
  const double tight_tol = 1e-7;
  constexpr uint32_t kDropped = 0xffffffffu;
  std::vector<Halfspace> kept;
  kept.reserve(cuts_.size());
  std::vector<uint32_t> remap(cuts_.size(), kDropped);
  for (size_t j = 0; j < cuts_.size(); ++j) {
    const Halfspace& h = cuts_[j];
    bool tight_somewhere = false;
    for (const Vec& v : vertices_) {
      if (std::abs(h.Margin(v)) <= tight_tol * std::max(1.0, h.normal.Norm())) {
        tight_somewhere = true;
        break;
      }
    }
    if (tight_somewhere) {
      remap[j] = static_cast<uint32_t>(kept.size());
      kept.push_back(h);
    }
  }
  const bool dropped_any = kept.size() != cuts_.size();
  cuts_ = std::move(kept);
  if (!adjacency_valid_ || !dropped_any) return;
  // Renumber facet indices of the retained cuts. A certified-tight facet has
  // |margin| ≤ kTightSlop·scale < tight_tol·scale, so a referenced cut is
  // never dropped; if one is anyway (numerics at the threshold), the
  // structure is stale — discard it rather than crash.
  for (std::vector<uint32_t>& fs : facets_) {
    for (uint32_t& f : fs) {
      if (f < dim_) continue;
      const uint32_t nj = remap[f - dim_];
      if (nj == kDropped) {
        facets_.clear();
        adjacency_valid_ = false;
        return;
      }
      f = static_cast<uint32_t>(dim_) + nj;
    }
  }
}

}  // namespace isrl
