// Tests for the invariant-audit layer (src/audit/): configuration parsing,
// the auditor's sampling/recording machinery, each checker against a clean
// structure and against seeded corruptions, and an end-to-end interaction
// run under ISRL_AUDIT=1 that must come back violation-free.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.h"
#include "audit/checkers.h"
#include "baselines/uh_random.h"
#include "common/rng.h"
#include "common/vec.h"
#include "core/aa.h"
#include "core/aa_state.h"
#include "core/ea.h"
#include "core/session.h"
#include "data/skyline.h"
#include "data/synthetic.h"
#include "geometry/enclosing_ball.h"
#include "geometry/halfspace.h"
#include "geometry/polyhedron.h"
#include "nn/network.h"
#include "rl/prioritized_replay.h"
#include "user/sampler.h"

namespace isrl::audit {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// ParseAuditConfig.
// ---------------------------------------------------------------------------

TEST(AuditConfigTest, UnsetAndEmptyDisable) {
  EXPECT_FALSE(ParseAuditConfig(nullptr).enabled);
  EXPECT_FALSE(ParseAuditConfig("").enabled);
  EXPECT_FALSE(ParseAuditConfig("0").enabled);
  EXPECT_FALSE(ParseAuditConfig("off").enabled);
  EXPECT_FALSE(ParseAuditConfig("false").enabled);
}

TEST(AuditConfigTest, SimpleEnable) {
  for (const char* v : {"1", "on", "true"}) {
    AuditConfig c = ParseAuditConfig(v);
    EXPECT_TRUE(c.enabled) << v;
    EXPECT_EQ(c.sample_every, 1u) << v;
    EXPECT_FALSE(c.abort_on_violation) << v;
  }
}

TEST(AuditConfigTest, SampleStride) {
  AuditConfig c = ParseAuditConfig("sample=16");
  EXPECT_TRUE(c.enabled);
  EXPECT_EQ(c.sample_every, 16u);
  // A bare integer is shorthand for sample=N.
  c = ParseAuditConfig("8");
  EXPECT_TRUE(c.enabled);
  EXPECT_EQ(c.sample_every, 8u);
}

TEST(AuditConfigTest, CombinedTokens) {
  AuditConfig c = ParseAuditConfig("sample=4,abort,quiet");
  EXPECT_TRUE(c.enabled);
  EXPECT_EQ(c.sample_every, 4u);
  EXPECT_TRUE(c.abort_on_violation);
  EXPECT_FALSE(c.log_to_stderr);
}

TEST(AuditConfigTest, MalformedDisablesAndReports) {
  // A typo must not silently run as "audited".
  std::string error;
  AuditConfig c = ParseAuditConfig("sample=banana", &error);
  EXPECT_FALSE(c.enabled);
  EXPECT_NE(error.find("sample=banana"), std::string::npos);

  error.clear();
  c = ParseAuditConfig("1,garbage", &error);
  EXPECT_FALSE(c.enabled);
  EXPECT_FALSE(error.empty());

  EXPECT_FALSE(ParseAuditConfig("sample=0").enabled);  // stride 0 is invalid
}

// ---------------------------------------------------------------------------
// InvariantAuditor machinery.
// ---------------------------------------------------------------------------

class AuditorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = Auditor().config();
    Auditor().Reset();
  }
  void TearDown() override {
    Auditor().Configure(saved_);
    Auditor().Reset();
  }
  AuditConfig saved_;
};

AuditConfig QuietEnabled() {
  AuditConfig c;
  c.enabled = true;
  c.log_to_stderr = false;
  return c;
}

TEST_F(AuditorFixture, DisabledHooksNeverFire) {
  AuditConfig off;
  off.enabled = false;
  Auditor().Configure(off);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(Auditor().ShouldCheck(Checker::kLpTableau));
  }
  EXPECT_EQ(Auditor().Snapshot().total_checks, 0u);
}

TEST_F(AuditorFixture, SamplingStrideRunsEveryNth) {
  AuditConfig c = QuietEnabled();
  c.sample_every = 4;
  Auditor().Configure(c);
  int fired = 0;
  for (int i = 0; i < 16; ++i) {
    if (Auditor().ShouldCheck(Checker::kPolyhedron)) ++fired;
  }
  EXPECT_EQ(fired, 4);
}

TEST_F(AuditorFixture, RecordAggregatesPerChecker) {
  Auditor().Configure(QuietEnabled());
  Auditor().Record(Checker::kLpTableau, "test.site", {});
  Auditor().Record(Checker::kLpTableau, "test.site", {"bad tableau"});
  Auditor().Record(Checker::kNnFinite, "test.site", {"nan", "inf"});

  AuditReport report = Auditor().Snapshot();
  EXPECT_EQ(report.total_checks, 3u);
  EXPECT_EQ(report.total_violations, 3u);
  EXPECT_FALSE(report.clean());
  const auto& lp = report.per_checker[static_cast<size_t>(Checker::kLpTableau)];
  EXPECT_EQ(lp.checks, 2u);
  EXPECT_EQ(lp.violations, 1u);
  ASSERT_EQ(report.violations.size(), 3u);
  EXPECT_EQ(report.violations[0].site, "test.site");
  EXPECT_EQ(report.violations[0].message, "bad tableau");
  // The summary names the failing checkers and the stored messages.
  std::string text = report.ToString();
  EXPECT_NE(text.find("lp_tableau"), std::string::npos);
  EXPECT_NE(text.find("bad tableau"), std::string::npos);
}

TEST_F(AuditorFixture, ResetClearsCountersButKeepsConfig) {
  AuditConfig c = QuietEnabled();
  c.sample_every = 2;
  Auditor().Configure(c);
  Auditor().Record(Checker::kReplayTree, "s", {"x"});
  Auditor().Reset();
  AuditReport report = Auditor().Snapshot();
  EXPECT_EQ(report.total_checks, 0u);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(Auditor().config().sample_every, 2u);
}

// ---------------------------------------------------------------------------
// Checker: simplex tableau.
// ---------------------------------------------------------------------------

// A canonical clean tableau: 2 structural columns, 2 basic slacks, laid out
// as the solver lays it out: one row-major buffer. The stride is wider than
// the 4 live columns so that a checker indexing by num_cols instead of the
// stride reads the wrong row.
struct TableauFixture {
  static constexpr size_t kStride = 8;
  std::vector<double> rows{1.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                           3.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0};
  std::vector<double> rhs{4.0, 6.0};
  std::vector<size_t> basis{2, 3};
  std::vector<double> cost{1.0, 1.0, 0.0, 0.0};

  double& At(size_t r, size_t c) { return rows[r * kStride + c]; }

  TableauView View() {
    TableauView v;
    v.rows = rows.data();
    v.stride = kStride;
    v.rhs = &rhs;
    v.basis = &basis;
    v.cost = &cost;
    v.num_cols = 4;
    v.first_artificial = 4;  // no artificials
    v.phase = 2;
    return v;
  }
};

TEST(CheckSimplexTableauTest, CleanTableauPasses) {
  TableauFixture t;
  EXPECT_TRUE(CheckSimplexTableau(t.View()).empty());
}

TEST(CheckSimplexTableauTest, NegativeRhsCaught) {
  TableauFixture t;
  t.rhs[0] = -0.5;
  auto problems = CheckSimplexTableau(t.View());
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("infeasibility"), std::string::npos);
}

TEST(CheckSimplexTableauTest, DuplicateBasisCaught) {
  TableauFixture t;
  t.basis[1] = 2;  // column 2 basic in both rows
  EXPECT_FALSE(CheckSimplexTableau(t.View()).empty());
}

TEST(CheckSimplexTableauTest, OutOfRangeBasisCaught) {
  TableauFixture t;
  t.basis[0] = 9;
  auto problems = CheckSimplexTableau(t.View());
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("out of range"), std::string::npos);
}

TEST(CheckSimplexTableauTest, NonUnitBasisColumnCaught) {
  TableauFixture t;
  t.At(1, 2) = 0.25;  // basis column 2 now has a second non-zero
  auto problems = CheckSimplexTableau(t.View());
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("not unit"), std::string::npos);
}

TEST(CheckSimplexTableauTest, NonFiniteRhsCaught) {
  TableauFixture t;
  t.rhs[1] = kNan;
  EXPECT_FALSE(CheckSimplexTableau(t.View()).empty());
}

TEST(CheckSimplexTableauTest, BasicArtificialInPhase2Caught) {
  TableauFixture t;
  TableauView v = t.View();
  v.first_artificial = 3;  // column 3 is now an artificial, basic at 6.0
  auto problems = CheckSimplexTableau(v);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("artificial"), std::string::npos);

  // A neutralised redundant row (artificial basic at ~0) is legal.
  t.rhs[1] = 0.0;
  EXPECT_TRUE(CheckSimplexTableau(v).empty());
}

// ---------------------------------------------------------------------------
// Checker: polyhedron vertices and cut monotonicity.
// ---------------------------------------------------------------------------

TEST(CheckPolyhedronTest, SimplexCornersPass) {
  std::vector<Vec> vertices{Vec{1.0, 0.0}, Vec{0.0, 1.0}};
  EXPECT_TRUE(CheckPolyhedronVertices(2, {}, vertices, 1e-9).empty());
}

TEST(CheckPolyhedronTest, OffSimplexVertexCaught) {
  std::vector<Vec> vertices{Vec{0.7, 0.7}};  // sums to 1.4
  auto problems = CheckPolyhedronVertices(2, {}, vertices, 1e-9);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("sum"), std::string::npos);
}

TEST(CheckPolyhedronTest, NegativeCoordinateCaught) {
  std::vector<Vec> vertices{Vec{-0.1, 1.1}};
  EXPECT_FALSE(CheckPolyhedronVertices(2, {}, vertices, 1e-9).empty());
}

TEST(CheckPolyhedronTest, CutViolationCaught) {
  // Cut u0 ≥ u1; the vertex (0, 1) is on the wrong side.
  std::vector<Halfspace> cuts{Halfspace{Vec{1.0, -1.0}, 0.0}};
  std::vector<Vec> vertices{Vec{0.0, 1.0}};
  auto problems = CheckPolyhedronVertices(2, cuts, vertices, 1e-9);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("cut"), std::string::npos);

  // The vertex (1, 0) satisfies the cut.
  vertices[0] = Vec{1.0, 0.0};
  EXPECT_TRUE(CheckPolyhedronVertices(2, cuts, vertices, 1e-9).empty());
}

TEST(CheckPolyhedronTest, NonFiniteVertexCaught) {
  std::vector<Vec> vertices{Vec{kNan, 1.0}};
  EXPECT_FALSE(CheckPolyhedronVertices(2, {}, vertices, 1e-9).empty());
}

TEST(CheckCutMonotonicityTest, GrowthCaughtShrinkPasses) {
  EXPECT_TRUE(CheckCutMonotonicity(1.0, 0.6, 1e-7).empty());
  EXPECT_TRUE(CheckCutMonotonicity(1.0, 1.0, 1e-7).empty());
  auto problems = CheckCutMonotonicity(1.0, 1.1, 1e-7);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("grew"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Checker: polyhedron vertex–facet adjacency (DESIGN.md §17).
// ---------------------------------------------------------------------------

// A real incrementally-maintained polyhedron: the unit simplex in R³ after
// one generic preference cut, with adjacency tracked. The corruption tests
// below copy its (cuts, vertices, facets) triple and break one invariant.
class CheckAdjacencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    poly_ = std::make_unique<Polyhedron>(Polyhedron::UnitSimplex(3));
    poly_->Cut(PreferenceHalfspace(Vec{0.8, 0.3, 0.1}, Vec{0.2, 0.5, 0.6}));
    ASSERT_TRUE(poly_->adjacency_valid());
    cuts_ = poly_->cuts();
    vertices_ = poly_->vertices();
    facets_ = poly_->vertex_facets();
  }

  std::vector<std::string> Check() const {
    return CheckPolyhedronAdjacency(3, cuts_, vertices_, facets_, 1e-7);
  }

  std::unique_ptr<Polyhedron> poly_;
  std::vector<Halfspace> cuts_;
  std::vector<Vec> vertices_;
  std::vector<std::vector<uint32_t>> facets_;
};

TEST_F(CheckAdjacencyTest, LiveAdjacencyPasses) {
  EXPECT_TRUE(Check().empty());
}

TEST_F(CheckAdjacencyTest, SizeMismatchCaught) {
  facets_.pop_back();
  auto problems = Check();
  ASSERT_FALSE(problems.empty());
}

TEST_F(CheckAdjacencyTest, WrongFacetCountCaught) {
  facets_[0].push_back(1);  // d−1 = 2 expected, now 3
  EXPECT_FALSE(Check().empty());
}

TEST_F(CheckAdjacencyTest, OutOfRangeFacetCaught) {
  // Constraint indices run over d nonnegativity rows + cuts.size() cuts.
  facets_[0].back() = static_cast<uint32_t>(3 + cuts_.size());
  EXPECT_FALSE(Check().empty());
}

TEST_F(CheckAdjacencyTest, UnsortedFacetSetCaught) {
  ASSERT_GE(facets_[0].size(), 2u);
  std::swap(facets_[0][0], facets_[0][1]);
  EXPECT_FALSE(Check().empty());
}

TEST_F(CheckAdjacencyTest, NonTightFacetCaught) {
  // Claim vertex 0 is tight on a constraint it is strictly slack on: its
  // true facet sets stay distinct from vertex 1's, but the margin check
  // must fire. Find a constraint not in vertex 0's set with nonzero margin.
  const std::vector<uint32_t>& f0 = facets_[0];
  for (uint32_t idx = 0; idx < static_cast<uint32_t>(3 + cuts_.size());
       ++idx) {
    if (std::find(f0.begin(), f0.end(), idx) != f0.end()) continue;
    double margin = idx < 3 ? vertices_[0][idx]
                            : cuts_[idx - 3].Margin(vertices_[0]);
    if (std::abs(margin) > 1e-3) {
      facets_[0] = {std::min(idx, f0[0]), std::max(idx, f0[0])};
      auto problems = Check();
      ASSERT_FALSE(problems.empty());
      return;
    }
  }
  FAIL() << "no strictly-slack constraint found to corrupt with";
}

TEST_F(CheckAdjacencyTest, DuplicateFacetSetsCaught) {
  facets_[1] = facets_[0];
  EXPECT_FALSE(Check().empty());
}

TEST_F(CheckAdjacencyTest, DanglingEdgeCaught) {
  // Dropping a vertex (and its facet set) leaves each of its edges with a
  // single endpoint — the completeness certificate that catches a lost
  // vertex must fire.
  vertices_.pop_back();
  facets_.pop_back();
  auto problems = Check();
  ASSERT_FALSE(problems.empty());
}

// ---------------------------------------------------------------------------
// Checker: enclosing balls.
// ---------------------------------------------------------------------------

std::vector<Vec> BallPoints() {
  Rng rng(42);
  std::vector<Vec> points;
  for (int i = 0; i < 20; ++i) {
    Vec p(3);
    for (size_t c = 0; c < 3; ++c) p[c] = rng.Uniform();
    points.push_back(p);
  }
  return points;
}

TEST(CheckBallTest, ComputedBallsPass) {
  std::vector<Vec> points = BallPoints();
  EXPECT_TRUE(
      CheckBallEncloses(IterativeOuterBall(points), points, 1e-7).empty());
  Rng rng(7);
  EXPECT_TRUE(
      CheckBallEncloses(WelzlMinimumBall(points, rng), points, 1e-7).empty());
}

TEST(CheckBallTest, ShrunkenRadiusCaught) {
  std::vector<Vec> points = BallPoints();
  Ball ball = IterativeOuterBall(points);
  ball.radius *= 0.5;
  auto problems = CheckBallEncloses(ball, points, 1e-7);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("outside"), std::string::npos);
}

TEST(CheckBallTest, CorruptBallCaught) {
  Ball ball;
  ball.center = Vec{kNan, 0.0};
  EXPECT_FALSE(CheckBallEncloses(ball, {}, 1e-7).empty());
  ball.center = Vec{0.0, 0.0};
  ball.radius = -1.0;
  EXPECT_FALSE(CheckBallEncloses(ball, {}, 1e-7).empty());
}

// ---------------------------------------------------------------------------
// Checker: network finiteness and target-sync epoch.
// ---------------------------------------------------------------------------

TEST(CheckNetworkTest, FreshMlpPassesNanParameterCaught) {
  Rng rng(3);
  nn::Network net = nn::Network::Mlp({4, 8, 1}, nn::Activation::kSelu, rng);
  EXPECT_TRUE(CheckNetworkFinite(net, "main").empty());
  EXPECT_TRUE(CheckFiniteVec(net.Forward(Vec(4, 0.5)), "output").empty());

  (*net.Params()[0].values)[0] = kNan;
  auto problems = CheckNetworkFinite(net, "main");
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("parameter"), std::string::npos);
}

TEST(CheckNetworkTest, NanGradientCaught) {
  Rng rng(3);
  nn::Network net = nn::Network::Mlp({4, 8, 1}, nn::Activation::kSelu, rng);
  (*net.Params()[1].grads)[0] = kNan;
  auto problems = CheckNetworkFinite(net, "target");
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("gradient"), std::string::npos);
}

TEST(CheckTargetSyncTest, OnlySyncBoundariesAreAsserted) {
  Rng rng(5);
  nn::Network main_net = nn::Network::Mlp({3, 4, 1}, nn::Activation::kRelu, rng);
  nn::Network target = nn::Network::Mlp({3, 4, 1}, nn::Activation::kRelu, rng);
  // Off-boundary (7 % 4 != 0): divergence is expected, no claim to check.
  EXPECT_TRUE(CheckTargetSyncEpoch(7, 4, main_net, target).empty());
  // On a boundary the target must be a bit-exact copy.
  EXPECT_FALSE(CheckTargetSyncEpoch(8, 4, main_net, target).empty());
  target.CopyParamsFrom(main_net);
  EXPECT_TRUE(CheckTargetSyncEpoch(8, 4, main_net, target).empty());
}

// ---------------------------------------------------------------------------
// Checker: replay segment tree.
// ---------------------------------------------------------------------------

TEST(CheckReplayTreeTest, LiveMemoryPasses) {
  rl::PrioritizedReplayMemory mem(8);
  Rng rng(11);
  for (int i = 0; i < 12; ++i) {  // wraps the ring
    rl::Transition t;
    t.state_action = Vec{static_cast<double>(i)};
    t.reward = i;
    mem.Add(std::move(t));
    if (!mem.empty()) {
      auto batch = mem.Sample(2, rng);
      for (auto& s : batch) mem.UpdatePriority(s, 0.1 * (i + 1));
    }
    EXPECT_TRUE(CheckReplayTree(mem, 1e-9).empty()) << "after add " << i;
  }
}

TEST(CheckReplayTreeTest, CorruptedAggregatesCaught) {
  const std::vector<double> leaves{1.0, 2.0, 0.5};
  EXPECT_TRUE(CheckReplayTreeRaw(leaves, 3.5, 0.5, 1e-9).empty());

  auto problems = CheckReplayTreeRaw(leaves, 3.0, 0.5, 1e-9);  // stale sum
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("total"), std::string::npos);

  problems = CheckReplayTreeRaw(leaves, 3.5, 1.0, 1e-9);  // stale min
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("min"), std::string::npos);
}

TEST(CheckReplayTreeTest, NonPositiveLeafCaught) {
  EXPECT_FALSE(CheckReplayTreeRaw({1.0, 0.0}, 1.0, 0.0, 1e-9).empty());
  EXPECT_FALSE(CheckReplayTreeRaw({1.0, kNan}, 1.0, 1.0, 1e-9).empty());
}

// ---------------------------------------------------------------------------
// Checker: AA geometry.
// ---------------------------------------------------------------------------

TEST(CheckAaGeometryTest, ComputedGeometryPasses) {
  // The empty-H geometry of the unit simplex, straight from the LPs.
  AaGeometry geo = ComputeAaGeometry(3, {});
  ASSERT_TRUE(geo.feasible);
  EXPECT_TRUE(CheckAaGeometry(geo, {}, 1e-6).empty());
}

TEST(CheckAaGeometryTest, SeededCorruptionsCaught) {
  AaGeometry geo = ComputeAaGeometry(3, {});
  ASSERT_TRUE(geo.feasible);

  AaGeometry bad = geo;
  bad.inner.radius = -0.2;
  EXPECT_FALSE(CheckAaGeometry(bad, {}, 1e-6).empty());

  bad = geo;
  std::swap(bad.e_min, bad.e_max);  // inverted rectangle
  EXPECT_FALSE(CheckAaGeometry(bad, {}, 1e-6).empty());

  bad = geo;
  bad.inner.center[0] = bad.e_max[0] + 1.0;  // centre escapes the rectangle
  EXPECT_FALSE(CheckAaGeometry(bad, {}, 1e-6).empty());

  bad = geo;
  bad.e_min[1] = kNan;
  EXPECT_FALSE(CheckAaGeometry(bad, {}, 1e-6).empty());

  // A half-space the centre violates.
  LearnedHalfspace lh;
  lh.h = Halfspace{Vec{-1.0, -1.0, -1.0}, 0.0};  // requires Σu ≤ 0
  auto problems = CheckAaGeometry(geo, {lh}, 1e-6);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("half-space"), std::string::npos);

  // Infeasible geometry makes no claims, so corruption is not reported.
  bad = geo;
  bad.feasible = false;
  bad.inner.radius = -5.0;
  EXPECT_TRUE(CheckAaGeometry(bad, {}, 1e-6).empty());
}

// ---------------------------------------------------------------------------
// End to end: EA / AA / UH-Random under ISRL_AUDIT=1 must run clean.
// ---------------------------------------------------------------------------

class AuditEndToEndTest : public AuditorFixture {
 protected:
  void SetUp() override {
    AuditorFixture::SetUp();
    ASSERT_EQ(setenv("ISRL_AUDIT", "1,quiet", /*overwrite=*/1), 0);
    Auditor().ConfigureFromEnvironment();
  }
  void TearDown() override {
    unsetenv("ISRL_AUDIT");
    AuditorFixture::TearDown();
  }
};

TEST_F(AuditEndToEndTest, InteractionsRunWithZeroViolations) {
  Rng rng(200);
  Dataset raw = GenerateSynthetic(400, 3, Distribution::kIndependent, rng);
  Dataset sky = SkylineOf(raw);
  std::vector<Vec> train = SampleUtilityVectors(6, 3, rng);
  std::vector<Vec> eval = SampleUtilityVectors(4, 3, rng);
  const double eps = 0.15;

  EaOptions eopt;
  eopt.epsilon = eps;
  Ea ea(sky, eopt);
  ea.Train(train);

  AaOptions aopt;
  aopt.epsilon = eps;
  Aa aa(sky, aopt);
  aa.Train(train);

  UhOptions uopt;
  uopt.epsilon = eps;
  UhRandom uhr(sky, uopt);

  for (InteractiveAlgorithm* algo :
       std::vector<InteractiveAlgorithm*>{&ea, &aa, &uhr}) {
    EvalStats s = Evaluate(*algo, sky, eval, eps);
    EXPECT_GT(s.mean_rounds, 0.0) << algo->name();
  }

  AuditReport report = Auditor().Snapshot();
  // The hooks actually fired: training + evaluation exercises the LP, the
  // polyhedron, the balls, and the networks.
  EXPECT_GT(report.total_checks, 0u);
  const auto checks_of = [&](Checker c) {
    return report.per_checker[static_cast<size_t>(c)].checks;
  };
  EXPECT_GT(checks_of(Checker::kLpTableau), 0u);
  EXPECT_GT(checks_of(Checker::kPolyhedron), 0u);
  EXPECT_GT(checks_of(Checker::kEnclosingBall), 0u);
  EXPECT_GT(checks_of(Checker::kNnFinite), 0u);
  EXPECT_GT(checks_of(Checker::kAaGeometry), 0u);
  // ... and every invariant held.
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST_F(AuditEndToEndTest, PrioritizedReplayHookFires) {
  Rng rng(201);
  Dataset raw = GenerateSynthetic(200, 3, Distribution::kIndependent, rng);
  Dataset sky = SkylineOf(raw);
  std::vector<Vec> train = SampleUtilityVectors(4, 3, rng);

  EaOptions eopt;
  eopt.epsilon = 0.15;
  eopt.dqn.prioritized_replay = true;
  // Small-scale run: episodes are only a few rounds long here, so lower the
  // replay warm-up until updates (and with them the hook) actually happen.
  eopt.dqn.min_replay_before_update = 2;
  eopt.dqn.batch_size = 2;
  Ea ea(sky, eopt);
  ea.Train(train);

  AuditReport report = Auditor().Snapshot();
  EXPECT_GT(
      report.per_checker[static_cast<size_t>(Checker::kReplayTree)].checks,
      0u);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

}  // namespace
}  // namespace isrl::audit
