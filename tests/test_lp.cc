// Unit + property tests for the two-phase simplex solver.
#include <bit>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "lp/simplex.h"

namespace isrl::lp {
namespace {

TEST(SimplexTest, SimpleMaximize) {
  // max 3x + 2y, x + y ≤ 4, x ≤ 2, x,y ≥ 0 → x=2, y=2, obj=10.
  Model m;
  m.AddVariable(3.0);
  m.AddVariable(2.0);
  m.AddConstraint(Vec{1.0, 1.0}, Relation::kLe, 4.0);
  m.AddConstraint(Vec{1.0, 0.0}, Relation::kLe, 2.0);
  SolveResult r = Solve(m);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_NEAR(r.objective, 10.0, 1e-9);
  EXPECT_NEAR(r.x[0], 2.0, 1e-9);
  EXPECT_NEAR(r.x[1], 2.0, 1e-9);
}

TEST(SimplexTest, SimpleMinimize) {
  // min x + y, x + 2y ≥ 4, 3x + y ≥ 6 → intersection (1.6, 1.2), obj 2.8.
  Model m;
  m.AddVariable(1.0);
  m.AddVariable(1.0);
  m.SetSense(Sense::kMinimize);
  m.AddConstraint(Vec{1.0, 2.0}, Relation::kGe, 4.0);
  m.AddConstraint(Vec{3.0, 1.0}, Relation::kGe, 6.0);
  SolveResult r = Solve(m);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_NEAR(r.objective, 2.8, 1e-9);
  EXPECT_NEAR(r.x[0], 1.6, 1e-9);
  EXPECT_NEAR(r.x[1], 1.2, 1e-9);
}

TEST(SimplexTest, EqualityConstraint) {
  // max x, x + y = 1, x,y ≥ 0 → x=1.
  Model m;
  m.AddVariable(1.0);
  m.AddVariable(0.0);
  m.AddConstraint(Vec{1.0, 1.0}, Relation::kEq, 1.0);
  SolveResult r = Solve(m);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
}

TEST(SimplexTest, DetectsInfeasible) {
  // x ≥ 3 and x ≤ 1 cannot hold.
  Model m;
  m.AddVariable(1.0);
  m.AddConstraint(Vec{1.0}, Relation::kGe, 3.0);
  m.AddConstraint(Vec{1.0}, Relation::kLe, 1.0);
  SolveResult r = Solve(m);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kInfeasible);
}

TEST(SimplexTest, DetectsUnbounded) {
  Model m;
  m.AddVariable(1.0);
  m.AddConstraint(Vec{1.0}, Relation::kGe, 0.0);
  SolveResult r = Solve(m);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kUnbounded);
}

TEST(SimplexTest, NegativeRhsNormalised) {
  // max -x s.t. -x ≤ -2 (i.e. x ≥ 2) → x = 2, obj = -2.
  Model m;
  m.AddVariable(-1.0);
  m.AddConstraint(Vec{-1.0}, Relation::kLe, -2.0);
  SolveResult r = Solve(m);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.objective, -2.0, 1e-9);
  EXPECT_NEAR(r.x[0], 2.0, 1e-9);
}

TEST(SimplexTest, FreeVariableCanGoNegative) {
  // min x (x free), x ≥ -5 → x = -5.
  Model m;
  m.AddVariable(1.0, /*nonneg=*/false);
  m.SetSense(Sense::kMinimize);
  m.AddConstraint(Vec{1.0}, Relation::kGe, -5.0);
  SolveResult r = Solve(m);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.objective, -5.0, 1e-9);
  EXPECT_NEAR(r.x[0], -5.0, 1e-9);
}

TEST(SimplexTest, FreeVariableMaximized) {
  // max x (x free), x ≤ 0.25 → x = 0.25 (positive part of the split unused).
  Model m;
  m.AddVariable(1.0, /*nonneg=*/false);
  m.AddConstraint(Vec{1.0}, Relation::kLe, 0.25);
  SolveResult r = Solve(m);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.x[0], 0.25, 1e-9);
}

TEST(SimplexTest, ChebyshevCentreOfSquare) {
  // Largest ball in the unit square: centre (.5,.5), radius .5.
  // Variables: cx, cy, r. Constraints: cx ± r, cy ± r within [0,1].
  Model m;
  m.AddVariable(0.0);
  m.AddVariable(0.0);
  m.AddVariable(1.0);
  m.AddConstraint(Vec{1.0, 0.0, -1.0}, Relation::kGe, 0.0);   // cx − r ≥ 0
  m.AddConstraint(Vec{1.0, 0.0, 1.0}, Relation::kLe, 1.0);    // cx + r ≤ 1
  m.AddConstraint(Vec{0.0, 1.0, -1.0}, Relation::kGe, 0.0);
  m.AddConstraint(Vec{0.0, 1.0, 1.0}, Relation::kLe, 1.0);
  SolveResult r = Solve(m);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.objective, 0.5, 1e-9);
  EXPECT_NEAR(r.x[0], 0.5, 1e-9);
  EXPECT_NEAR(r.x[1], 0.5, 1e-9);
}

TEST(SimplexTest, DegenerateVertexStillOptimal) {
  // Three constraints through one vertex (degenerate) — classic cycling bait.
  Model m;
  m.AddVariable(1.0);
  m.AddVariable(1.0);
  m.AddConstraint(Vec{1.0, 0.0}, Relation::kLe, 1.0);
  m.AddConstraint(Vec{0.0, 1.0}, Relation::kLe, 1.0);
  m.AddConstraint(Vec{1.0, 1.0}, Relation::kLe, 2.0);
  SolveResult r = Solve(m);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.objective, 2.0, 1e-9);
}

TEST(SimplexTest, RedundantEqualityRows) {
  // The same equality twice: phase 1 must neutralise the redundant row.
  Model m;
  m.AddVariable(1.0);
  m.AddVariable(0.0);
  m.AddConstraint(Vec{1.0, 1.0}, Relation::kEq, 1.0);
  m.AddConstraint(Vec{2.0, 2.0}, Relation::kEq, 2.0);
  SolveResult r = Solve(m);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
}

TEST(SimplexTest, NoVariablesRejected) {
  Model m;
  SolveResult r = Solve(m);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
}

TEST(SimplexTest, ZeroObjectiveFeasibilityProbe) {
  // Pure feasibility use (objective 0): should return OK with obj 0.
  Model m;
  m.AddVariable(0.0);
  m.AddConstraint(Vec{1.0}, Relation::kGe, 0.5);
  m.AddConstraint(Vec{1.0}, Relation::kLe, 0.7);
  SolveResult r = Solve(m);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.objective, 0.0, 1e-12);
  EXPECT_GE(r.x[0], 0.5 - 1e-9);
  EXPECT_LE(r.x[0], 0.7 + 1e-9);
}

// ---------- Property tests ----------

// Over the simplex {u ≥ 0, Σu = 1}, max c·u must equal max_i c[i]: the
// optimum of a linear function over a simplex sits at a corner.
class SimplexCornerProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(SimplexCornerProperty, LinearObjectiveOverSimplexHitsCorner) {
  const size_t d = GetParam();
  Rng rng(100 + d);
  for (int trial = 0; trial < 10; ++trial) {
    Model m;
    Vec c(d);
    for (size_t i = 0; i < d; ++i) {
      c[i] = rng.Uniform(-1.0, 1.0);
      m.AddVariable(c[i]);
    }
    m.AddConstraint(Vec(d, 1.0), Relation::kEq, 1.0);
    SolveResult r = Solve(m);
    ASSERT_TRUE(r.ok());
    EXPECT_NEAR(r.objective, c[c.ArgMax()], 1e-9);
    EXPECT_NEAR(r.x.Sum(), 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, SimplexCornerProperty,
                         ::testing::Values(2, 3, 5, 8, 12, 20));

// Random feasible boxes: solution must satisfy every constraint and be at
// least as good as any random feasible point (optimality spot-check).
class SimplexRandomProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(SimplexRandomProperty, OptimumBeatsRandomFeasiblePoints) {
  const size_t d = GetParam();
  Rng rng(200 + d);
  for (int trial = 0; trial < 5; ++trial) {
    Model m;
    Vec c(d);
    for (size_t i = 0; i < d; ++i) {
      c[i] = rng.Uniform(-1.0, 1.0);
      m.AddVariable(c[i]);
    }
    // Box 0 ≤ x_i ≤ b_i plus a random ≤ halfspace through the box.
    Vec ub(d);
    for (size_t i = 0; i < d; ++i) {
      ub[i] = rng.Uniform(0.5, 2.0);
      Vec row(d);
      row[i] = 1.0;
      m.AddConstraint(row, Relation::kLe, ub[i]);
    }
    Vec a(d);
    for (size_t i = 0; i < d; ++i) a[i] = rng.Uniform(0.0, 1.0);
    double rhs = Dot(a, ub) * 0.6;
    m.AddConstraint(a, Relation::kLe, rhs);

    SolveResult r = Solve(m);
    ASSERT_TRUE(r.ok());
    // Feasibility of the reported optimum.
    for (size_t i = 0; i < d; ++i) {
      EXPECT_GE(r.x[i], -1e-9);
      EXPECT_LE(r.x[i], ub[i] + 1e-9);
    }
    EXPECT_LE(Dot(a, r.x), rhs + 1e-8);
    // Optimality vs random feasible points (rejection-sampled).
    for (int probe = 0; probe < 200; ++probe) {
      Vec p(d);
      for (size_t i = 0; i < d; ++i) p[i] = rng.Uniform(0.0, ub[i]);
      if (Dot(a, p) > rhs) continue;
      EXPECT_LE(Dot(c, p), r.objective + 1e-8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, SimplexRandomProperty,
                         ::testing::Values(2, 3, 5, 10));

// ---------- LP families (DESIGN.md §17) ----------

// AA-shaped member: optimise one coordinate over the utility simplex cut by
// learned ≥ half-spaces. All members over the same `normals` share constraint
// structure and differ only in objective — exactly an lp::FamilySolver
// family (the 2d rectangle-extent LPs of core/aa_state.cc).
Model RectangleExtentModel(const std::vector<Vec>& normals, size_t d,
                           size_t coord, bool maximize) {
  Model m;
  for (size_t i = 0; i < d; ++i) m.AddVariable(i == coord ? 1.0 : 0.0);
  m.SetSense(maximize ? Sense::kMaximize : Sense::kMinimize);
  m.AddConstraint(Vec(d, 1.0), Relation::kEq, 1.0);
  for (const Vec& n : normals) m.AddConstraint(n, Relation::kGe, 0.0);
  return m;
}

// Random cut normals oriented to keep one interior point feasible, so the
// family is non-trivially constrained but never empty.
std::vector<Vec> FeasibleNormals(Rng* rng, size_t d, size_t count) {
  Vec p = rng->SimplexUniform(d);
  std::vector<Vec> normals;
  for (size_t k = 0; k < count; ++k) {
    Vec n(d);
    for (size_t c = 0; c < d; ++c) n[c] = rng->Uniform(-1.0, 1.0);
    if (Dot(n, p) < 0.0) {
      for (size_t c = 0; c < d; ++c) n[c] = -n[c];
    }
    normals.push_back(n);
  }
  return normals;
}

class FamilySolverProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(FamilySolverProperty, BitIdenticalToColdRecoveryPerMember) {
  const size_t d = GetParam();
  Rng rng(400 + d);
  std::vector<Vec> normals = FeasibleNormals(&rng, d, 5);
  FamilySolver family;
  for (size_t coord = 0; coord < d; ++coord) {
    for (bool maximize : {false, true}) {
      Model m = RectangleExtentModel(normals, d, coord, maximize);
      SolveResult shared = family.Solve(m);
      SolveResult cold = SolveWithRecovery(m);
      ASSERT_EQ(shared.status.code(), cold.status.code());
      ASSERT_TRUE(shared.ok()) << shared.status.ToString();
      // The contract is pivot-for-pivot identity with the member's own cold
      // solve: same iteration count, bitwise-equal optimum.
      EXPECT_EQ(shared.diagnostics.iterations, cold.diagnostics.iterations);
      EXPECT_EQ(shared.objective, cold.objective);
      ASSERT_EQ(shared.x.dim(), cold.x.dim());
      for (size_t c = 0; c < d; ++c) EXPECT_EQ(shared.x[c], cold.x[c]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, FamilySolverProperty,
                         ::testing::Values(2, 3, 5, 10, 15));

TEST(FamilySolverTest, NonMemberSolvedColdButCorrect) {
  Rng rng(401);
  std::vector<Vec> normals = FeasibleNormals(&rng, 4, 3);
  FamilySolver family;
  Model a = RectangleExtentModel(normals, 4, 0, /*maximize=*/true);
  SolveResult ra = family.Solve(a);
  ASSERT_TRUE(ra.ok());

  // Same shape as a member, one rhs changed: a different feasible set, so
  // it falls back to a cold recovery solve.
  Model b;
  for (size_t i = 0; i < 4; ++i) b.AddVariable(i == 1 ? 1.0 : 0.0);
  b.SetSense(Sense::kMinimize);
  b.AddConstraint(Vec(4, 1.0), Relation::kEq, 1.0);
  for (size_t k = 0; k < normals.size(); ++k) {
    b.AddConstraint(normals[k], Relation::kGe, k == 0 ? -0.25 : 0.0);
  }
  SolveResult rb = family.Solve(b);
  SolveResult cold = SolveWithRecovery(b);
  ASSERT_EQ(rb.status.code(), cold.status.code());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(rb.objective, cold.objective);
  for (size_t c = 0; c < rb.x.dim(); ++c) EXPECT_EQ(rb.x[c], cold.x[c]);
}

// ---------- Golden pivot path ----------
//
// Every AA state, checkpoint and outcome digest is computed from the
// simplex's exact pivot sequence, so a change to the tableau's layout or
// kernels must leave it bit for bit as it was. The pins below were recorded
// with the column-at-a-time pricing loop over per-row vectors, before the
// row-major pricing on one contiguous tableau (DESIGN.md §17). Each pin holds
// the status, the iteration count, whether Bland's rule ran and an FNV-1a
// hash of the objective and x bits.

constexpr uint64_t kFnvBasis = 14695981039346656037ULL;

uint64_t FnvWord(uint64_t h, uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xffU;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t SolutionHash(const SolveResult& r) {
  uint64_t h = FnvWord(kFnvBasis, std::bit_cast<uint64_t>(r.objective));
  for (size_t i = 0; i < r.x.dim(); ++i) {
    h = FnvWord(h, std::bit_cast<uint64_t>(r.x[i]));
  }
  return h;
}

struct PivotPin {
  const char* name;
  StatusCode code;
  size_t iterations;
  bool used_bland;
  uint64_t solution_hash;
};

// Preference cuts between hypercube-uniform items, oriented around a hidden
// utility, generated as bench/geo_substrates.cc BM_GeoAaGeometry generates
// them: the shape of a live AA session's H.
std::vector<Vec> SessionNormals(size_t d, size_t count) {
  Rng rng(200 + d);
  Vec u = rng.SimplexUniform(d);
  std::vector<Vec> normals;
  while (normals.size() < count) {
    Vec a(d), b(d);
    for (size_t c = 0; c < d; ++c) {
      a[c] = rng.Uniform(0.0, 1.0);
      b[c] = rng.Uniform(0.0, 1.0);
    }
    normals.push_back(Dot(u, a) >= Dot(u, b) ? a - b : b - a);
  }
  return normals;
}

// The inner-sphere LP exactly as ComputeAaGeometry (core/aa_state.cc)
// models it: maximise B_r with B_c on the simplex, each cut's normalised
// normal·B_c ≥ B_r, and B_c[i] ≥ B_r.
Model InnerSphereModel(const std::vector<Vec>& normals, size_t d) {
  Model m;
  for (size_t i = 0; i < d; ++i) m.AddVariable(0.0);
  const size_t radius = m.AddVariable(1.0);
  m.AddConstraint(Vec(d, 1.0), Relation::kEq, 1.0);
  for (const Vec& n : normals) {
    const double norm = n.Norm();
    Vec row(d + 1);
    for (size_t c = 0; c < d; ++c) row[c] = n[c] / norm;
    row[radius] = -1.0;
    m.AddConstraint(row, Relation::kGe, 0.0);
  }
  for (size_t i = 0; i < d; ++i) {
    Vec row(d + 1);
    row[i] = 1.0;
    row[radius] = -1.0;
    m.AddConstraint(row, Relation::kGe, 0.0);
  }
  return m;
}

// A random bounded LP that is feasible by construction (x0 satisfies every
// row): a box on every variable, then `extra_rows` random rows cycling
// through ≤, ≥ and (when `with_eq`) =. Every third variable is free when
// `with_free`, which splits it into two tableau columns.
Model MixedModel(size_t d, uint64_t seed, size_t extra_rows, bool with_free,
                 bool with_eq) {
  Rng rng(seed);
  Model m;
  Vec x0(d);
  std::vector<bool> free_var(d);
  for (size_t v = 0; v < d; ++v) {
    free_var[v] = with_free && v % 3 == 1;
    m.AddVariable(rng.Uniform(-1.0, 1.0), /*nonneg=*/!free_var[v]);
    x0[v] = free_var[v] ? rng.Uniform(-1.0, 1.0) : rng.Uniform(0.0, 1.0);
  }
  m.SetSense(seed % 2 == 0 ? Sense::kMaximize : Sense::kMinimize);
  for (size_t v = 0; v < d; ++v) {
    Vec unit(d);
    unit[v] = 1.0;
    m.AddConstraint(unit, Relation::kLe, 2.0);
    if (free_var[v]) m.AddConstraint(unit, Relation::kGe, -2.0);
  }
  for (size_t k = 0; k < extra_rows; ++k) {
    Vec a(d);
    for (size_t c = 0; c < d; ++c) a[c] = rng.Uniform(-1.0, 1.0);
    const double at_x0 = Dot(a, x0);
    const double slack = rng.Uniform(0.0, 0.5);
    if (k % 3 == 0) {
      m.AddConstraint(a, Relation::kLe, at_x0 + slack);
    } else if (k % 3 == 1) {
      m.AddConstraint(a, Relation::kGe, at_x0 - slack);
    } else if (with_eq) {
      m.AddConstraint(a, Relation::kEq, at_x0);
    } else {
      m.AddConstraint(a, Relation::kLe, at_x0 + slack);
    }
  }
  return m;
}

struct PivotObservation {
  std::string name;
  SolveResult result;
  size_t tableau_rows;
  size_t tableau_cols;
};

// The dense tableau's shape for `m`, laid out as lp/simplex.cc builds it:
// one column per non-negative variable and two per free one, a slack per
// inequality, and an artificial per equality or per row that is a ≥ row
// once its rhs is made non-negative.
std::pair<size_t, size_t> TableauShape(const Model& m) {
  size_t cols = 0;
  for (bool nonneg : m.nonneg()) cols += nonneg ? 1 : 2;
  for (const Constraint& c : m.constraints()) {
    if (c.relation == Relation::kEq) {
      ++cols;
      continue;
    }
    ++cols;  // slack
    const bool ge = (c.relation == Relation::kGe) == (c.rhs >= 0.0);
    if (ge) ++cols;
  }
  return {m.num_constraints(), cols};
}

// snprintf rather than std::string operator+: gcc 12 reports a false
// -Wrestrict on `"literal" + std::to_string(n)` chains.
template <typename... Args>
std::string Label(const char* format, Args... args) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

std::vector<PivotObservation> RunPivotCorpus() {
  std::vector<PivotObservation> out;
  auto add = [&out](std::string name, const Model& m, SolveResult r) {
    const auto [rows, cols] = TableauShape(m);
    out.push_back({std::move(name), std::move(r), rows, cols});
  };
  const size_t dims[] = {2, 3, 5, 10, 15, 20};
  for (size_t d : dims) {
    for (size_t variant = 0; variant < 4; ++variant) {
      const size_t rows = d + variant * (d / 2 + 1);
      const Model m = MixedModel(d, 500 + 10 * d + variant, rows,
                                 /*with_free=*/variant % 2 == 1,
                                 /*with_eq=*/variant >= 2);
      add(Label("mixed_d%zu_v%zu", d, variant), m, SolveWithRecovery(m));
    }
  }
  // Inner-sphere probes; d=20 with 32 and 64 cuts runs past the Bland
  // switch (bland_after = 2000).
  const std::pair<size_t, size_t> spheres[] = {
      {2, 4}, {3, 8}, {5, 16}, {10, 16}, {10, 32}, {15, 32}, {20, 32},
      {20, 64}};
  for (const auto& [d, cuts] : spheres) {
    const Model m = InnerSphereModel(SessionNormals(d, cuts), d);
    add(Label("sphere_d%zu_h%zu", d, cuts), m, SolveWithRecovery(m));
  }
  {
    // One row: phase 1 on a single artificial, then phase 2.
    Model m;
    Rng rng(601);
    for (size_t v = 0; v < 5; ++v) m.AddVariable(rng.Uniform(-1.0, 1.0));
    m.AddConstraint(Vec(5, 1.0), Relation::kEq, 1.0);
    add("one_row_d5", m, SolveWithRecovery(m));
  }
  {
    Model m;  // Σu = 1 with u₀ ≥ 2 is empty.
    for (size_t v = 0; v < 3; ++v) m.AddVariable(1.0);
    m.AddConstraint(Vec(3, 1.0), Relation::kEq, 1.0);
    m.AddConstraint(Vec{1.0, 0.0, 0.0}, Relation::kGe, 2.0);
    add("infeasible_d3", m, SolveWithRecovery(m));
  }
  {
    Model m;  // max x₀ with only x₀ − x₁ ≤ 1: unbounded along x₀ = x₁.
    m.AddVariable(1.0);
    m.AddVariable(0.0);
    m.AddConstraint(Vec{1.0, -1.0}, Relation::kLe, 1.0);
    add("unbounded_d2", m, SolveWithRecovery(m));
  }
  {
    // One FamilySolver family: AA's 2d rectangle-extent LPs.
    const size_t d = 5;
    const std::vector<Vec> normals = SessionNormals(d, 16);
    FamilySolver family;
    for (size_t coord = 0; coord < d; ++coord) {
      for (bool maximize : {false, true}) {
        const Model m = RectangleExtentModel(normals, d, coord, maximize);
        add(Label("family_d5_h16_u%zu_%s", coord, maximize ? "max" : "min"),
            m, family.Solve(m));
      }
    }
  }
  {
    const Model m = MixedModel(10, 777, 12, /*with_free=*/false,
                               /*with_eq=*/false);
    add("cold_d10", m, SolveWithRecovery(m));
  }
  return out;
}

// Solved once and shared by the tests below: the d=20 probes take
// thousands of pivots.
const std::vector<PivotObservation>& PivotCorpus() {
  static const auto* corpus = new std::vector<PivotObservation>(
      RunPivotCorpus());
  return *corpus;
}

const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "kOk";
    case StatusCode::kInfeasible:
      return "kInfeasible";
    case StatusCode::kUnbounded:
      return "kUnbounded";
    case StatusCode::kInternal:
      return "kInternal";
    default:
      return "kUnexpected";
  }
}

// One observation in kGoldenPins' own initialiser syntax, so a failure
// prints the table the corpus produced.
std::string FormatPin(const PivotObservation& o) {
  const SolveResult& r = o.result;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "    {\"%s\", StatusCode::%s, %zu, %s,\n"
                "     0x%016llxULL},\n",
                o.name.c_str(), CodeName(r.status.code()),
                r.diagnostics.iterations,
                r.diagnostics.used_bland ? "true" : "false",
                static_cast<unsigned long long>(SolutionHash(r)));
  return buf;
}

const PivotPin kGoldenPins[] = {
    {"mixed_d2_v0", StatusCode::kOk, 3, false,
     0xbb8b4f111c67787cULL},
    {"mixed_d2_v1", StatusCode::kOk, 3, false,
     0xea8ea510a2c1f9f1ULL},
    {"mixed_d2_v2", StatusCode::kOk, 5, false,
     0x9d0b5e77c46cc569ULL},
    {"mixed_d2_v3", StatusCode::kOk, 5, false,
     0xcc4fdaaddd060f6bULL},
    {"mixed_d3_v0", StatusCode::kOk, 5, false,
     0x96a5f00e9c541462ULL},
    {"mixed_d3_v1", StatusCode::kOk, 8, false,
     0xe240d79e181b5576ULL},
    {"mixed_d3_v2", StatusCode::kOk, 8, false,
     0xa4145f81d752f919ULL},
    {"mixed_d3_v3", StatusCode::kOk, 10, false,
     0x6c7e1f49c28c533eULL},
    {"mixed_d5_v0", StatusCode::kOk, 8, false,
     0x69c3fd18aa7d42c0ULL},
    {"mixed_d5_v1", StatusCode::kOk, 12, false,
     0xa11e1fccf50dd5cbULL},
    {"mixed_d5_v2", StatusCode::kOk, 10, false,
     0x471e8b786aefb8f5ULL},
    {"mixed_d5_v3", StatusCode::kOk, 13, false,
     0x42ce4f90626b0741ULL},
    {"mixed_d10_v0", StatusCode::kOk, 21, false,
     0xa3ae7017e8079445ULL},
    {"mixed_d10_v1", StatusCode::kOk, 26, false,
     0x892f4312f9ccd49aULL},
    {"mixed_d10_v2", StatusCode::kOk, 19, false,
     0x75c6a7dc8ed43871ULL},
    {"mixed_d10_v3", StatusCode::kOk, 23, false,
     0xffc7e0cd883dc534ULL},
    {"mixed_d15_v0", StatusCode::kOk, 30, false,
     0x0836a20f71a16ff7ULL},
    {"mixed_d15_v1", StatusCode::kOk, 41, false,
     0x566e2b0e0d2a6cd7ULL},
    {"mixed_d15_v2", StatusCode::kOk, 38, false,
     0x9e860da3ab7a153cULL},
    {"mixed_d15_v3", StatusCode::kOk, 39, false,
     0xbc870762fa9729ecULL},
    {"mixed_d20_v0", StatusCode::kOk, 32, false,
     0x8ad185939b7e0869ULL},
    {"mixed_d20_v1", StatusCode::kOk, 34, false,
     0xc828b22d2e550402ULL},
    {"mixed_d20_v2", StatusCode::kOk, 47, false,
     0x89a04c6edd308697ULL},
    {"mixed_d20_v3", StatusCode::kOk, 62, false,
     0x0fae4b2aae573123ULL},
    {"sphere_d2_h4", StatusCode::kOk, 9, false,
     0xda184734a4669060ULL},
    {"sphere_d3_h8", StatusCode::kOk, 14, false,
     0xbb91ff574c19ca54ULL},
    {"sphere_d5_h16", StatusCode::kOk, 41, false,
     0x67dde2936596960bULL},
    {"sphere_d10_h16", StatusCode::kOk, 86, false,
     0x999092fd710ac5ffULL},
    {"sphere_d10_h32", StatusCode::kOk, 364, false,
     0x3f2725bc5f644418ULL},
    {"sphere_d15_h32", StatusCode::kOk, 2093, true,
     0xefa5f029e97e6acaULL},
    {"sphere_d20_h32", StatusCode::kOk, 2737, true,
     0x8fcc58dc73bbb49aULL},
    {"sphere_d20_h64", StatusCode::kOk, 3943, true,
     0x9d6c8db7b995dec2ULL},
    {"one_row_d5", StatusCode::kOk, 4, false,
     0x8bc3664df478f865ULL},
    {"infeasible_d3", StatusCode::kInfeasible, 2, false,
     0xa8c7f832281a39c5ULL},
    {"unbounded_d2", StatusCode::kUnbounded, 2, false,
     0xa8c7f832281a39c5ULL},
    {"family_d5_h16_u0_min", StatusCode::kOk, 25, false,
     0xba866fa4cb02f478ULL},
    {"family_d5_h16_u0_max", StatusCode::kOk, 19, false,
     0x943ea0c4603cbfeaULL},
    {"family_d5_h16_u1_min", StatusCode::kOk, 21, false,
     0xc4160423e34b6278ULL},
    {"family_d5_h16_u1_max", StatusCode::kOk, 22, false,
     0xe1c191fcb0660309ULL},
    {"family_d5_h16_u2_min", StatusCode::kOk, 21, false,
     0x804c0710f6814d7aULL},
    {"family_d5_h16_u2_max", StatusCode::kOk, 23, false,
     0xd0c1cca1c6084f59ULL},
    {"family_d5_h16_u3_min", StatusCode::kOk, 22, false,
     0x44e4919acab7ac49ULL},
    {"family_d5_h16_u3_max", StatusCode::kOk, 22, false,
     0x8ab280aff5030918ULL},
    {"family_d5_h16_u4_min", StatusCode::kOk, 21, false,
     0x8b45be4084ffb15dULL},
    {"family_d5_h16_u4_max", StatusCode::kOk, 22, false,
     0x041fb4c6dea74a28ULL},
    {"cold_d10", StatusCode::kOk, 16, false,
     0x97de7237851ffbe6ULL},
};

TEST(GoldenPivotPathTest, EveryPinReproduces) {
  const std::vector<PivotObservation>& observed = PivotCorpus();
  std::string table;
  for (const PivotObservation& o : observed) table += FormatPin(o);
  ASSERT_EQ(observed.size(), std::size(kGoldenPins)) << table;
  for (size_t i = 0; i < observed.size(); ++i) {
    const PivotPin& pin = kGoldenPins[i];
    const SolveResult& r = observed[i].result;
    SCOPED_TRACE(pin.name);
    EXPECT_EQ(observed[i].name, pin.name);
    EXPECT_EQ(r.status.code(), pin.code);
    EXPECT_EQ(r.diagnostics.iterations, pin.iterations);
    EXPECT_EQ(r.diagnostics.used_bland, pin.used_bland);
    EXPECT_EQ(SolutionHash(r), pin.solution_hash);
  }
}

TEST(GoldenPivotPathTest, CorpusCoversTheTableauShapes) {
  const std::vector<PivotObservation>& observed = PivotCorpus();
  // Every column-count residue mod 4 (the tableau stride's padding) and the
  // one-row tableau are exercised; the d=20 probes pivot under Bland's rule.
  bool residue[4] = {false, false, false, false};
  bool one_row = false;
  size_t bland = 0;
  for (const PivotObservation& o : observed) {
    if (!o.result.ok()) continue;
    residue[o.tableau_cols % 4] = true;
    one_row = one_row || o.tableau_rows == 1;
    if (o.result.diagnostics.used_bland) ++bland;
  }
  for (size_t k = 0; k < 4; ++k) EXPECT_TRUE(residue[k]) << "residue " << k;
  EXPECT_TRUE(one_row);
  EXPECT_GE(bland, 2u);
}

TEST(FamilySolverTest, InfeasibleFamilySharedAcrossMembers) {
  // Σu = 1 with u₀ ≥ 2 is empty; every member must report kInfeasible,
  // exactly as its own cold solve does.
  FamilySolver family;
  for (size_t coord = 0; coord < 3; ++coord) {
    // Same structure, member-specific objective.
    Model member;
    for (size_t i = 0; i < 3; ++i) member.AddVariable(i == coord ? 1.0 : 0.0);
    member.SetSense(Sense::kMinimize);
    member.AddConstraint(Vec(3, 1.0), Relation::kEq, 1.0);
    member.AddConstraint(Vec{1.0, 0.0, 0.0}, Relation::kGe, 2.0);
    SolveResult shared = family.Solve(member);
    SolveResult cold = SolveWithRecovery(member);
    EXPECT_EQ(shared.status.code(), StatusCode::kInfeasible);
    EXPECT_EQ(shared.status.code(), cold.status.code());
    EXPECT_EQ(shared.diagnostics.iterations, cold.diagnostics.iterations);
  }
}

}  // namespace
}  // namespace isrl::lp
