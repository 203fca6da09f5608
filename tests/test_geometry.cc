// Unit + property tests for the geometry substrate: half-spaces, the utility
// range polyhedron (vertex enumeration), enclosing balls, convex-hull
// extremeness, and hit-and-run sampling.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geometry/convex_hull.h"
#include "geometry/enclosing_ball.h"
#include "geometry/halfspace.h"
#include "geometry/hit_and_run.h"
#include "geometry/polyhedron.h"

namespace isrl {
namespace {

// ---------- Halfspace ----------

TEST(HalfspaceTest, PreferenceHalfspaceContainsAgreeingVectors) {
  Vec pi{0.8, 0.2};
  Vec pj{0.2, 0.8};
  Halfspace h = PreferenceHalfspace(pi, pj);
  // Utility weighting dim 0 prefers pi: must be inside.
  EXPECT_TRUE(h.Contains(Vec{0.9, 0.1}));
  EXPECT_FALSE(h.Contains(Vec{0.1, 0.9}));
  // On the hyper-plane: contained up to tolerance (Lemma 1 boundary).
  EXPECT_TRUE(h.Contains(Vec{0.5, 0.5}, 1e-9));
}

TEST(HalfspaceTest, FlippedIsComplement) {
  Halfspace h{Vec{1.0, -1.0}, 0.0};
  Halfspace f = h.Flipped();
  Vec inside{0.9, 0.1};
  EXPECT_TRUE(h.Contains(inside));
  EXPECT_FALSE(f.Contains(inside));
  EXPECT_DOUBLE_EQ(h.Margin(inside), -f.Margin(inside));
}

TEST(HalfspaceTest, EpsilonHalfspaceLooserThanStrict) {
  // εh contains everything h_{i,j} contains (for points in the positive
  // orthant) plus an ε-band on the other side.
  Vec pi{0.5, 0.5};
  Vec pj{0.6, 0.4};
  Halfspace strict = PreferenceHalfspace(pi, pj);
  Halfspace relaxed = EpsilonHalfspace(pi, pj, 0.2);
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    Vec u = rng.SimplexUniform(2);
    if (strict.Contains(u, 0.0)) {
      EXPECT_TRUE(relaxed.Contains(u, 1e-12));
    }
  }
}

TEST(HalfspaceTest, DistanceToHyperplane) {
  Halfspace h{Vec{1.0, 0.0}, 0.0};  // plane x = 0
  EXPECT_NEAR(DistanceToHyperplane(Vec{3.0, 7.0}, h), 3.0, 1e-12);
  Halfspace diag{Vec{1.0, 1.0}, 1.0};  // plane x + y = 1
  EXPECT_NEAR(DistanceToHyperplane(Vec{1.0, 1.0}, diag), 1.0 / std::sqrt(2.0),
              1e-12);
}

// ---------- Polyhedron ----------

TEST(PolyhedronTest, UnitSimplexVertices) {
  for (size_t d = 2; d <= 6; ++d) {
    Polyhedron p = Polyhedron::UnitSimplex(d);
    ASSERT_EQ(p.vertices().size(), d);
    // Every vertex is a coordinate unit vector.
    for (const Vec& v : p.vertices()) {
      EXPECT_NEAR(v.Sum(), 1.0, 1e-9);
      EXPECT_NEAR(v.Max(), 1.0, 1e-9);
    }
  }
}

TEST(PolyhedronTest, CutHalvesTriangle) {
  // Cut the 2-simplex with u[0] ≥ u[1]: vertices (1,0), (.5,.5).
  Polyhedron p = Polyhedron::UnitSimplex(2);
  p.Cut(Halfspace{Vec{1.0, -1.0}, 0.0});
  ASSERT_EQ(p.vertices().size(), 2u);
  bool has_corner = false, has_mid = false;
  for (const Vec& v : p.vertices()) {
    if (ApproxEqual(v, Vec{1.0, 0.0}, 1e-8)) has_corner = true;
    if (ApproxEqual(v, Vec{0.5, 0.5}, 1e-8)) has_mid = true;
  }
  EXPECT_TRUE(has_corner);
  EXPECT_TRUE(has_mid);
}

TEST(PolyhedronTest, RedundantCutDropped) {
  Polyhedron p = Polyhedron::UnitSimplex(3);
  // u[0] ≥ -1 holds everywhere on the simplex: must not be retained.
  p.Cut(Halfspace{Vec{1.0, 0.0, 0.0}, -1.0});
  EXPECT_TRUE(p.cuts().empty());
  EXPECT_EQ(p.vertices().size(), 3u);
}

TEST(PolyhedronTest, InfeasibleCutEmptiesRange) {
  Polyhedron p = Polyhedron::UnitSimplex(3);
  p.Cut(Halfspace{Vec{1.0, 1.0, 1.0}, 2.0});  // Σu ≥ 2 impossible
  EXPECT_TRUE(p.IsEmpty());
}

TEST(PolyhedronTest, ContainsChecksEverything) {
  Polyhedron p = Polyhedron::UnitSimplex(3);
  p.Cut(Halfspace{Vec{1.0, -1.0, 0.0}, 0.0});  // u0 ≥ u1
  EXPECT_TRUE(p.Contains(Vec{0.5, 0.2, 0.3}));
  EXPECT_FALSE(p.Contains(Vec{0.2, 0.5, 0.3}));   // violates cut
  EXPECT_FALSE(p.Contains(Vec{0.6, 0.2, 0.1}));   // sum ≠ 1
  EXPECT_FALSE(p.Contains(Vec{1.2, -0.1, -0.1})); // negative coord
}

TEST(PolyhedronTest, CentroidInsideRange) {
  Rng rng(3);
  Polyhedron p = Polyhedron::UnitSimplex(4);
  for (int i = 0; i < 5; ++i) {
    Vec a = rng.SimplexUniform(4), b = rng.SimplexUniform(4);
    Polyhedron copy = p;
    copy.Cut(Halfspace{a - b, 0.0});
    if (copy.IsEmpty()) continue;
    p = copy;
    EXPECT_TRUE(p.Contains(p.Centroid(), 1e-7));
  }
}

TEST(PolyhedronTest, SampleInteriorStaysInside) {
  Rng rng(4);
  Polyhedron p = Polyhedron::UnitSimplex(3);
  p.Cut(Halfspace{Vec{1.0, -1.0, 0.0}, 0.0});
  p.Cut(Halfspace{Vec{0.0, 1.0, -1.0}, 0.0});
  ASSERT_FALSE(p.IsEmpty());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(p.Contains(p.SampleInterior(rng), 1e-7));
  }
}

TEST(PolyhedronTest, DiameterOfSimplex) {
  Polyhedron p = Polyhedron::UnitSimplex(2);
  EXPECT_NEAR(p.Diameter(), std::sqrt(2.0), 1e-9);
}

TEST(PolyhedronTest, CutsShrinkDiameterMonotonically) {
  Rng rng(5);
  Polyhedron p = Polyhedron::UnitSimplex(4);
  double prev = p.Diameter();
  for (int i = 0; i < 8; ++i) {
    Vec a = rng.SimplexUniform(4), b = rng.SimplexUniform(4);
    Polyhedron copy = p;
    copy.Cut(Halfspace{a - b, 0.0});
    if (copy.IsEmpty()) continue;
    p = copy;
    double cur = p.Diameter();
    EXPECT_LE(cur, prev + 1e-9);
    prev = cur;
  }
}

// Property: vertex enumeration agrees with membership — every enumerated
// vertex is contained; and cutting preserves exactly the vertices that
// satisfy the new half-space.
class PolyhedronCutProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(PolyhedronCutProperty, VerticesConsistentUnderRandomCuts) {
  const size_t d = GetParam();
  Rng rng(40 + d);
  Polyhedron p = Polyhedron::UnitSimplex(d);
  for (int round = 0; round < 6; ++round) {
    Vec a = rng.SimplexUniform(d), b = rng.SimplexUniform(d);
    Halfspace h{a - b, 0.0};
    std::vector<Vec> surviving;
    for (const Vec& v : p.vertices()) {
      if (h.Contains(v, 1e-9)) surviving.push_back(v);
    }
    Polyhedron next = p;
    next.Cut(h);
    if (next.IsEmpty()) break;
    // All enumerated vertices satisfy every constraint.
    for (const Vec& v : next.vertices()) {
      EXPECT_TRUE(next.Contains(v, 1e-6));
      EXPECT_TRUE(p.Contains(v, 1e-6));  // nested ranges
    }
    // Old vertices inside the cut must still be vertices of the new range.
    for (const Vec& v : surviving) {
      bool found = false;
      for (const Vec& w : next.vertices()) {
        if (ApproxEqual(v, w, 1e-6)) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found);
    }
    p = next;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, PolyhedronCutProperty,
                         ::testing::Values(2, 3, 4, 5));

// ---------- Incremental adjacency maintenance (DESIGN.md §17) ----------

// The seed-path reference: a polyhedron rebuilt from its own snapshot parts
// carries no adjacency structure, so its next Cut() re-enumerates every
// vertex from the full H-rep. The Rebuild* helpers do that before each cut.
void RoundTrip(Polyhedron& p) {
  Result<Polyhedron> restored =
      Polyhedron::FromSnapshotParts(p.dim(), p.cuts(), p.vertices());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_FALSE(restored->adjacency_valid());
  p = std::move(restored.value());
}

bool RebuildTryCut(Polyhedron& p, const Halfspace& h) {
  RoundTrip(p);
  return p.TryCut(h);
}

void RebuildCut(Polyhedron& p, const Halfspace& h) {
  RoundTrip(p);
  p.Cut(h);
}

void ExpectBitIdentical(const Polyhedron& a, const Polyhedron& b) {
  ASSERT_EQ(a.vertices().size(), b.vertices().size());
  for (size_t i = 0; i < a.vertices().size(); ++i) {
    for (size_t c = 0; c < a.dim(); ++c) {
      ASSERT_EQ(a.vertices()[i][c], b.vertices()[i][c])
          << "vertex " << i << " coord " << c;
    }
  }
  ASSERT_EQ(a.cuts().size(), b.cuts().size());
  for (size_t j = 0; j < a.cuts().size(); ++j) {
    ASSERT_EQ(a.cuts()[j].offset, b.cuts()[j].offset);
    for (size_t c = 0; c < a.dim(); ++c) {
      ASSERT_EQ(a.cuts()[j].normal[c], b.cuts()[j].normal[c]);
    }
  }
}

// Preference cut between two hypercube-uniform items — the production EA
// geometry (src/data/synthetic.cc draws item coordinates from U[0,1], so cut
// normals have no common zero and the arrangement is generic).
Halfspace RandomItemCut(Rng& rng, size_t d) {
  Vec a(d), b(d);
  for (size_t c = 0; c < d; ++c) {
    a[c] = rng.Uniform(0.0, 1.0);
    b[c] = rng.Uniform(0.0, 1.0);
  }
  return PreferenceHalfspace(a, b);
}

class PolyhedronIncrementalProperty : public ::testing::TestWithParam<size_t> {
};

// The contract of the incremental path: the vertex sequence after every cut
// is bit-identical to the seed full re-enumeration, in value AND order.
TEST_P(PolyhedronIncrementalProperty, BitIdenticalToRebuildUnderRandomCuts) {
  const size_t d = GetParam();
  Rng rng(90 + d);
  Polyhedron incremental = Polyhedron::UnitSimplex(d);
  Polyhedron rebuild = Polyhedron::UnitSimplex(d);
  EXPECT_TRUE(incremental.adjacency_valid());
  for (int round = 0; round < 12; ++round) {
    Halfspace h = RandomItemCut(rng, d);
    const bool ok_inc = incremental.TryCut(h);
    const bool ok_ref = RebuildTryCut(rebuild, h);
    ASSERT_EQ(ok_inc, ok_ref) << "round " << round;
    ExpectBitIdentical(incremental, rebuild);
  }
  // In generic position the certified structure must survive the whole run —
  // otherwise the fast path silently degraded to permanent re-enumeration.
  EXPECT_TRUE(incremental.adjacency_valid());
}

INSTANTIATE_TEST_SUITE_P(Dims, PolyhedronIncrementalProperty,
                         ::testing::Values(2, 3, 4, 5, 6));

// Simplex-point differences are the adversarial case: every such cut passes
// through the barycenter (Σ normal = 0 with offset 0), so once the
// barycenter reaches R's boundary the polytope is genuinely degenerate
// there — many subsets resolve to the same point. The incremental path must
// refuse the certificate and degrade to the seed enumeration, bit-identical.
TEST(PolyhedronIncrementalTest, CentralArrangementDegradesBitIdentical) {
  for (size_t d = 3; d <= 5; ++d) {
    Rng rng(90 + d);
    Polyhedron incremental = Polyhedron::UnitSimplex(d);
    Polyhedron rebuild = Polyhedron::UnitSimplex(d);
    for (int round = 0; round < 8; ++round) {
      Vec a = rng.SimplexUniform(d), b = rng.SimplexUniform(d);
      Halfspace h{a - b, 0.0};
      ASSERT_EQ(incremental.TryCut(h), RebuildTryCut(rebuild, h))
          << "d " << d << " round " << round;
      ExpectBitIdentical(incremental, rebuild);
    }
  }
}

// A repeated (duplicate) cut is degenerate input: every boundary vertex lies
// inside the guard band of the copy, so the incremental path must refuse and
// fall back — and the result must still match the seed path bitwise.
TEST(PolyhedronIncrementalTest, DuplicateCutFallsBackBitIdentical) {
  Rng rng(123);
  Polyhedron incremental = Polyhedron::UnitSimplex(3);
  Polyhedron rebuild = Polyhedron::UnitSimplex(3);
  Halfspace h = RandomItemCut(rng, 3);
  incremental.Cut(h);
  RebuildCut(rebuild, h);
  ExpectBitIdentical(incremental, rebuild);
  incremental.Cut(h);  // exact duplicate: tight at the new boundary vertices
  RebuildCut(rebuild, h);
  ExpectBitIdentical(incremental, rebuild);
}

// TryCut that rejects an emptying cut must restore the adjacency structure
// along with the vertex set, and later cuts must still match the seed path.
TEST(PolyhedronIncrementalTest, TryCutRejectionRestoresAdjacency) {
  Rng rng(321);
  Polyhedron incremental = Polyhedron::UnitSimplex(4);
  Polyhedron rebuild = Polyhedron::UnitSimplex(4);
  Halfspace h = RandomItemCut(rng, 4);
  incremental.Cut(h);
  RebuildCut(rebuild, h);
  const bool was_valid = incremental.adjacency_valid();
  EXPECT_TRUE(was_valid);
  // Σu = 1 everywhere, so normal −1 with offset 0.5 is violated by all of R.
  Halfspace emptying{Vec{-1.0, -1.0, -1.0, -1.0}, 0.5};
  EXPECT_FALSE(incremental.TryCut(emptying));
  EXPECT_FALSE(RebuildTryCut(rebuild, emptying));
  EXPECT_EQ(incremental.adjacency_valid(), was_valid);
  ExpectBitIdentical(incremental, rebuild);
  Halfspace h2 = RandomItemCut(rng, 4);
  ASSERT_EQ(incremental.TryCut(h2), RebuildTryCut(rebuild, h2));
  ExpectBitIdentical(incremental, rebuild);
}

// Snapshot restore adopts vertices verbatim without the facet structure; the
// first post-restore Cut must rebuild it deterministically and keep emitting
// bit-identical vertex sets (PR 6 restart-at-every-round bit-identity).
TEST(PolyhedronIncrementalTest, SnapshotRestoreRebuildsAdjacency) {
  Rng rng(555);
  Polyhedron incremental = Polyhedron::UnitSimplex(3);
  for (int round = 0; round < 3; ++round) {
    (void)incremental.TryCut(RandomItemCut(rng, 3));
  }
  Result<Polyhedron> restored = Polyhedron::FromSnapshotParts(
      3, incremental.cuts(), incremental.vertices());
  ASSERT_TRUE(restored.ok());
  EXPECT_FALSE(restored.value().adjacency_valid());
  ExpectBitIdentical(incremental, restored.value());
  Halfspace h = RandomItemCut(rng, 3);
  ASSERT_EQ(incremental.TryCut(h), restored.value().TryCut(h));
  ExpectBitIdentical(incremental, restored.value());
}

// ---------- Enclosing balls ----------

TEST(EnclosingBallTest, IterativeBallContainsAllPoints) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    size_t d = 2 + static_cast<size_t>(rng.UniformInt(0, 4));
    std::vector<Vec> pts;
    for (int i = 0; i < 12; ++i) {
      Vec p(d);
      for (size_t c = 0; c < d; ++c) p[c] = rng.Uniform(-1.0, 1.0);
      pts.push_back(p);
    }
    Ball ball = IterativeOuterBall(pts);
    for (const Vec& p : pts) EXPECT_TRUE(ball.Contains(p, 1e-9));
  }
}

TEST(EnclosingBallTest, SinglePointBall) {
  Ball b = IterativeOuterBall({Vec{0.3, 0.7}});
  EXPECT_NEAR(b.radius, 0.0, 1e-9);
  EXPECT_TRUE(ApproxEqual(b.center, Vec{0.3, 0.7}, 1e-9));
}

TEST(EnclosingBallTest, SymmetricPairCentered) {
  Ball b = IterativeOuterBall({Vec{0.0, 0.0}, Vec{2.0, 0.0}});
  EXPECT_NEAR(b.center[0], 1.0, 1e-3);
  EXPECT_NEAR(b.radius, 1.0, 1e-3);
}

TEST(EnclosingBallTest, WelzlExactOnKnownCases) {
  Rng rng(8);
  // Equilateral-ish triangle in 2D: circumradius = side/√3.
  std::vector<Vec> tri{Vec{0.0, 0.0}, Vec{1.0, 0.0},
                       Vec{0.5, std::sqrt(3.0) / 2.0}};
  Ball b = WelzlMinimumBall(tri, rng);
  EXPECT_NEAR(b.radius, 1.0 / std::sqrt(3.0), 1e-9);
  // Points inside a segment's ball do not grow it.
  std::vector<Vec> seg{Vec{0.0, 0.0}, Vec{2.0, 0.0}, Vec{1.0, 0.1}};
  b = WelzlMinimumBall(seg, rng);
  EXPECT_NEAR(b.radius, 1.0, 1e-9);
}

TEST(EnclosingBallTest, WelzlContainsAllAndBeatsHeuristic) {
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    size_t d = 2 + static_cast<size_t>(rng.UniformInt(0, 3));
    std::vector<Vec> pts;
    for (int i = 0; i < 15; ++i) {
      Vec p(d);
      for (size_t c = 0; c < d; ++c) p[c] = rng.Uniform(0.0, 1.0);
      pts.push_back(p);
    }
    Ball exact = WelzlMinimumBall(pts, rng);
    Ball heur = IterativeOuterBall(pts);
    for (const Vec& p : pts) EXPECT_TRUE(exact.Contains(p, 1e-7));
    // The exact minimum ball is no larger than the heuristic one.
    EXPECT_LE(exact.radius, heur.radius + 1e-7);
  }
}

TEST(EnclosingBallTest, IterativeShrinksRadiusAcrossIterations) {
  // Lemma 3: successive iterations never grow the covering radius. We check
  // the end-to-end consequence: the final ball is no worse than the start
  // (centred at the mean) by more than numerical noise.
  Rng rng(10);
  std::vector<Vec> pts;
  for (int i = 0; i < 30; ++i) {
    pts.push_back(Vec{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0),
                      rng.Uniform(0.0, 1.0)});
  }
  Vec mean(3);
  for (const Vec& p : pts) mean += p;
  mean /= 30.0;
  double start_radius = 0.0;
  for (const Vec& p : pts) start_radius = std::max(start_radius, Distance(mean, p));
  Ball b = IterativeOuterBall(pts);
  EXPECT_LE(b.radius, start_radius + 1e-9);
}

// ---------- Convex hull ----------

TEST(ConvexHullTest, SquareCornersExtreme) {
  std::vector<Vec> pts{Vec{0.0, 0.0}, Vec{1.0, 0.0}, Vec{0.0, 1.0},
                       Vec{1.0, 1.0}, Vec{0.5, 0.5}};
  auto extreme = ExtremePointIndices(pts);
  ASSERT_EQ(extreme.size(), 4u);
  EXPECT_TRUE(std::find(extreme.begin(), extreme.end(), 4u) == extreme.end());
}

TEST(ConvexHullTest, CollinearMiddleNotExtreme) {
  std::vector<Vec> pts{Vec{0.0, 0.0}, Vec{0.5, 0.5}, Vec{1.0, 1.0}};
  EXPECT_TRUE(IsExtremePoint(pts, 0));
  EXPECT_FALSE(IsExtremePoint(pts, 1));
  EXPECT_TRUE(IsExtremePoint(pts, 2));
}

TEST(ConvexHullTest, SinglePointExtreme) {
  std::vector<Vec> pts{Vec{0.3, 0.4}};
  EXPECT_TRUE(IsExtremePoint(pts, 0));
}

TEST(ConvexHullTest, ArgmaxOfLinearFunctionIsExtreme) {
  // Property: the maximiser of any linear function over a finite set is a
  // hull vertex (used by UH-Simplex's selection rule).
  Rng rng(11);
  std::vector<Vec> pts;
  for (int i = 0; i < 20; ++i) {
    pts.push_back(Vec{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0),
                      rng.Uniform(0.0, 1.0)});
  }
  for (int trial = 0; trial < 5; ++trial) {
    Vec w = rng.SimplexUniform(3);
    size_t best = 0;
    for (size_t i = 1; i < pts.size(); ++i) {
      if (Dot(w, pts[i]) > Dot(w, pts[best])) best = i;
    }
    EXPECT_TRUE(IsExtremePoint(pts, best));
  }
}

TEST(ConvexHullTest, SharedLpMatchesPerPointQueries) {
  // ExtremePointIndices patches one shared LP per query (excluded column +
  // RHS); its verdicts must match fresh single-point IsExtremePoint calls,
  // which rebuild from scratch — a regression check on the column
  // restore/exclude bookkeeping.
  Rng rng(13);
  std::vector<Vec> pts;
  for (int i = 0; i < 15; ++i) {
    pts.push_back(Vec{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0),
                      rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)});
  }
  // Add interior points (convex combinations) that must never be extreme.
  pts.push_back((pts[0] + pts[1]) / 2.0);
  pts.push_back((pts[2] + pts[3] + pts[4]) / 3.0);
  std::vector<size_t> shared = ExtremePointIndices(pts);
  std::vector<size_t> fresh;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (IsExtremePoint(pts, i)) fresh.push_back(i);
  }
  EXPECT_EQ(shared, fresh);
  for (size_t idx : shared) EXPECT_LT(idx, pts.size() - 2);
}

TEST(ConvexHullTest, DuplicateQueriesReuseSharedModel) {
  // Re-querying the same index through the shared model (restore → exclude
  // round trip on the same column) must be idempotent.
  std::vector<Vec> pts{Vec{0.0, 0.0}, Vec{1.0, 0.0}, Vec{0.0, 1.0},
                       Vec{0.25, 0.25}};
  std::vector<size_t> first = ExtremePointIndices(pts);
  std::vector<size_t> second = ExtremePointIndices(pts);
  EXPECT_EQ(first, second);
  ASSERT_EQ(first.size(), 3u);
}

TEST(ConvexHullTest, DuplicatedVertexStaysExtreme) {
  // Regression: a bitwise twin of a hull vertex used to "represent" the
  // query (λ_twin = 1), so every copy reported non-extreme and the vertex
  // vanished from the hull. All points equal to the query are excluded from
  // the combination, so each copy answers like the unique vertex would.
  std::vector<Vec> pts{Vec{0.0, 0.0}, Vec{1.0, 0.0}, Vec{0.0, 1.0},
                       Vec{1.0, 0.0},   // twin of index 1
                       Vec{0.4, 0.3}};  // interior
  EXPECT_TRUE(IsExtremePoint(pts, 1));
  EXPECT_TRUE(IsExtremePoint(pts, 3));
  EXPECT_FALSE(IsExtremePoint(pts, 4));
  std::vector<size_t> extreme = ExtremePointIndices(pts);
  EXPECT_EQ(extreme, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(ConvexHullTest, AllIdenticalPointsAllExtreme) {
  // n copies of one point: the hull is that point, and with every twin
  // excluded the combination LP is infeasible for each copy. Previously the
  // answer was an empty extreme set.
  std::vector<Vec> pts{Vec{0.5, 0.5, 0.5}, Vec{0.5, 0.5, 0.5},
                       Vec{0.5, 0.5, 0.5}};
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE(IsExtremePoint(pts, i)) << "copy " << i;
  }
  EXPECT_EQ(ExtremePointIndices(pts), (std::vector<size_t>{0, 1, 2}));
}

TEST(ConvexHullTest, DimensionOneEndpoints) {
  // d = 1 degenerate case: the hull of scalars is [min, max]; only the
  // endpoints (and their duplicates) are extreme.
  std::vector<Vec> pts{Vec{0.3}, Vec{0.9}, Vec{0.1}, Vec{0.5}, Vec{0.9}};
  EXPECT_EQ(ExtremePointIndices(pts), (std::vector<size_t>{1, 2, 4}));
  EXPECT_FALSE(IsExtremePoint(pts, 0));
  EXPECT_FALSE(IsExtremePoint(pts, 3));
}

TEST(ConvexHullTest, CoplanarSquareInThreeDimensions) {
  // A planar square embedded in R³ (rank-deficient affine hull) plus its
  // centre: the LP certificate needs no full-dimensionality assumption.
  std::vector<Vec> pts{Vec{0.0, 0.0, 0.5}, Vec{1.0, 0.0, 0.5},
                       Vec{0.0, 1.0, 0.5}, Vec{1.0, 1.0, 0.5},
                       Vec{0.5, 0.5, 0.5}};
  EXPECT_EQ(ExtremePointIndices(pts), (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(ConvexHullTest, CollinearSetWithDuplicatesInThreeDimensions) {
  // Collinear points in R³ with a duplicated endpoint and a duplicated
  // midpoint: endpoints (both copies) extreme, midpoints not.
  Vec a{0.0, 0.0, 0.0};
  Vec b{1.0, 2.0, 3.0};
  Vec mid = (a + b) / 2.0;
  std::vector<Vec> pts{a, mid, b, mid, a};
  EXPECT_EQ(ExtremePointIndices(pts), (std::vector<size_t>{0, 2, 4}));
}

// ---------- Hit-and-run ----------

TEST(HitAndRunTest, SamplesSatisfyConstraints) {
  Rng rng(12);
  std::vector<Halfspace> cuts{{Vec{1.0, -1.0, 0.0}, 0.0},
                              {Vec{0.0, 1.0, -1.0}, 0.0}};
  Vec start{0.5, 0.3, 0.2};
  auto samples = HitAndRunSample(cuts, start, 200, rng);
  ASSERT_EQ(samples.size(), 200u);
  for (const Vec& u : samples) {
    EXPECT_NEAR(u.Sum(), 1.0, 1e-7);
    for (size_t i = 0; i < 3; ++i) EXPECT_GE(u[i], -1e-7);
    for (const Halfspace& h : cuts) EXPECT_TRUE(h.Contains(u, 1e-6));
  }
}

TEST(HitAndRunTest, InfeasibleStartReturnsEmpty) {
  Rng rng(13);
  std::vector<Halfspace> cuts{{Vec{1.0, -1.0}, 0.0}};
  auto samples = HitAndRunSample(cuts, Vec{0.1, 0.9}, 10, rng);
  EXPECT_TRUE(samples.empty());
}

TEST(HitAndRunTest, CoversTheRegion) {
  // On the free simplex the chain should reach all three corners' vicinity.
  Rng rng(14);
  auto samples = HitAndRunSample({}, Vec{1.0 / 3, 1.0 / 3, 1.0 / 3}, 500, rng);
  ASSERT_EQ(samples.size(), 500u);
  double max0 = 0.0, max1 = 0.0, max2 = 0.0;
  for (const Vec& u : samples) {
    max0 = std::max(max0, u[0]);
    max1 = std::max(max1, u[1]);
    max2 = std::max(max2, u[2]);
  }
  EXPECT_GT(max0, 0.6);
  EXPECT_GT(max1, 0.6);
  EXPECT_GT(max2, 0.6);
}

}  // namespace
}  // namespace isrl
