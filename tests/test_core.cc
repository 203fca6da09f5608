// Unit + property tests for the core primitives: regret ratio, terminal
// polyhedra (Lemmas 4/6), EA state encoding, EA/AA action spaces, AA
// geometry, and the session metrics.
#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/aa_actions.h"
#include "core/aa_state.h"
#include "core/ea_actions.h"
#include "core/ea_state.h"
#include "core/metrics.h"
#include "core/regret.h"
#include "core/terminal.h"
#include "data/skyline.h"
#include "data/synthetic.h"
#include "geometry/hit_and_run.h"
#include "lp/simplex.h"
#include "user/sampler.h"

namespace isrl {
namespace {

Dataset PaperDataset() {
  // Table III of the paper.
  Dataset d(2);
  d.Add(Vec{0.0, 1.0});
  d.Add(Vec{0.3, 0.7});
  d.Add(Vec{0.5, 0.8});
  d.Add(Vec{0.7, 0.4});
  d.Add(Vec{1.0, 0.0});
  return d;
}

// ---------- Regret ratio ----------

TEST(RegretTest, PaperExample2) {
  // regratio(p2, (0.3, 0.7)) = (0.71 − 0.58) / 0.71 ≈ 0.183.
  Dataset d = PaperDataset();
  Vec u{0.3, 0.7};
  EXPECT_NEAR(RegretRatioAt(d, 1, u), (0.71 - 0.58) / 0.71, 1e-9);
}

TEST(RegretTest, TopPointHasZeroRegret) {
  Rng rng(1);
  Dataset d = GenerateSynthetic(100, 3, Distribution::kAntiCorrelated, rng);
  for (int trial = 0; trial < 20; ++trial) {
    Vec u = rng.SimplexUniform(3);
    EXPECT_DOUBLE_EQ(RegretRatioAt(d, d.TopIndex(u), u), 0.0);
  }
}

TEST(RegretTest, AlwaysInUnitInterval) {
  Rng rng(2);
  Dataset d = GenerateSynthetic(100, 4, Distribution::kIndependent, rng);
  for (int trial = 0; trial < 50; ++trial) {
    Vec u = rng.SimplexUniform(4);
    size_t i = static_cast<size_t>(rng.UniformInt(0, 99));
    double r = RegretRatioAt(d, i, u);
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
}

TEST(RegretTest, EpsOptimalCertificateMatchesDirectCheck) {
  Rng rng(3);
  Dataset d = GenerateSynthetic(60, 3, Distribution::kAntiCorrelated, rng);
  auto utils = SampleUtilityVectors(30, 3, rng);
  for (size_t p = 0; p < 10; ++p) {
    for (double eps : {0.05, 0.2, 0.5}) {
      bool direct = true;
      for (const Vec& u : utils) {
        if (RegretRatioAt(d, p, u) > eps) {
          direct = false;
          break;
        }
      }
      EXPECT_EQ(IsEpsOptimalForAll(d, d.point(p), utils, eps), direct)
          << "p=" << p << " eps=" << eps;
    }
  }
}

TEST(RegretTest, MaxRegretOverIsMaximum) {
  Rng rng(4);
  Dataset d = GenerateSynthetic(50, 3, Distribution::kIndependent, rng);
  auto utils = SampleUtilityVectors(20, 3, rng);
  Vec p = d.point(7);
  double mx = MaxRegretOver(d, p, utils);
  for (const Vec& u : utils) EXPECT_LE(RegretRatio(d, p, u), mx + 1e-12);
}

// ---------- Terminal polyhedra ----------

TEST(TerminalTest, MembershipMatchesLemma4Inequalities) {
  // u ∈ T_w ⇔ ∀j: u·(p_w − (1−ε)p_j) ≥ 0; check against the direct form.
  Rng rng(5);
  Dataset d = GenerateSynthetic(40, 3, Distribution::kAntiCorrelated, rng);
  const double eps = 0.15;
  for (int trial = 0; trial < 100; ++trial) {
    Vec u = rng.SimplexUniform(3);
    size_t w = static_cast<size_t>(rng.UniformInt(0, 39));
    bool direct = true;
    for (size_t j = 0; j < d.size(); ++j) {
      if (Dot(u, d.point(w) - d.point(j) * (1.0 - eps)) < 0.0) {
        direct = false;
        break;
      }
    }
    EXPECT_EQ(InTerminalPolyhedron(d, w, u, eps), direct);
  }
}

TEST(TerminalTest, MembershipImpliesEpsRegret) {
  // Lemma 4: if u ∈ T_w then regratio(p_w, u) < ε (up to boundary equality).
  Rng rng(6);
  Dataset d = GenerateSynthetic(80, 4, Distribution::kAntiCorrelated, rng);
  const double eps = 0.1;
  int member_count = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Vec u = rng.SimplexUniform(4);
    size_t w = d.TopIndex(u);  // winners are tops of some vector
    if (InTerminalPolyhedron(d, w, u, eps)) {
      ++member_count;
      EXPECT_LE(RegretRatioAt(d, w, u), eps + 1e-12);
    }
  }
  EXPECT_GT(member_count, 0);
}

TEST(TerminalTest, WinnersCoverAllInputVectors) {
  Rng rng(7);
  Dataset d = GenerateSynthetic(60, 3, Distribution::kAntiCorrelated, rng);
  auto utils = SampleUtilityVectors(50, 3, rng);
  const double eps = 0.1;
  auto winners = TerminalWinners(d, utils, eps);
  EXPECT_FALSE(winners.empty());
  for (const Vec& u : utils) {
    bool covered = false;
    for (size_t w : winners) {
      if (InTerminalPolyhedron(d, w, u, eps)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered);
  }
  // Winners are distinct.
  std::set<size_t> uniq(winners.begin(), winners.end());
  EXPECT_EQ(uniq.size(), winners.size());
}

TEST(TerminalTest, LargerEpsilonNeedsNoMoreWinners) {
  Rng rng(8);
  Dataset d = GenerateSynthetic(60, 3, Distribution::kAntiCorrelated, rng);
  auto utils = SampleUtilityVectors(50, 3, rng);
  auto small = TerminalWinners(d, utils, 0.05);
  auto large = TerminalWinners(d, utils, 0.3);
  EXPECT_LE(large.size(), small.size());
}

// The first-maximum scalar scan, restated, and P_R and AA's contention pool
// built on it: Dataset::TopIndices must leave both unchanged.
size_t LoopTopIndex(const Dataset& data, const Vec& u) {
  size_t best = 0;
  double best_utility = Dot(u, data.point(0));
  for (size_t i = 1; i < data.size(); ++i) {
    double utility = Dot(u, data.point(i));
    if (utility > best_utility) {
      best_utility = utility;
      best = i;
    }
  }
  return best;
}

std::vector<size_t> LoopTerminalWinners(const Dataset& data,
                                        const std::vector<Vec>& utilities,
                                        double epsilon) {
  std::vector<size_t> winners;
  for (const Vec& u : utilities) {
    double top = Dot(u, data.point(LoopTopIndex(data, u)));
    if (top <= 0.0) continue;
    bool covered = false;
    for (size_t w : winners) {
      if (Dot(u, data.point(w)) >= (1.0 - epsilon) * top) covered = true;
    }
    if (!covered) winners.push_back(LoopTopIndex(data, u));
  }
  return winners;
}

TEST(TerminalTest, WinnersAndContentionPoolMatchTheScanLoop) {
  Rng rng(41);
  for (size_t d : {4, 20}) {
    const Dataset sky = SkylineOf(GenerateSynthetic(
        d == 4 ? 4000 : 600, d, Distribution::kAntiCorrelated, rng));
    const std::vector<Vec> utils = SampleUtilityVectors(111, d, rng);
    for (double eps : {0.01, 0.1}) {
      EXPECT_EQ(TerminalWinners(sky, utils, eps),
                LoopTerminalWinners(sky, utils, eps));
    }
    // AA's pool samples: hit-and-run inside preference cuts a hidden
    // utility agrees with.
    const Vec hidden = rng.SimplexUniform(d);
    std::vector<Halfspace> cuts;
    for (int c = 0; c < 6; ++c) {
      std::vector<size_t> pair = rng.SampleIndices(sky.size(), 2);
      const Vec& a = sky.point(pair[0]);
      const Vec& b = sky.point(pair[1]);
      cuts.push_back(Dot(hidden, a) >= Dot(hidden, b)
                         ? PreferenceHalfspace(a, b)
                         : PreferenceHalfspace(b, a));
    }
    std::vector<Vec> samples = HitAndRunSample(cuts, hidden, 64, rng);
    ASSERT_EQ(samples.size(), 64u);
    samples.push_back(hidden);
    std::vector<size_t> pool;
    for (const Vec& u : samples) {
      const size_t top = LoopTopIndex(sky, u);
      if (std::find(pool.begin(), pool.end(), top) == pool.end()) {
        pool.push_back(top);
      }
    }
    EXPECT_GT(pool.size(), 1u);
    EXPECT_EQ(ContentionPool(sky, samples), pool);
  }
}

TEST(TerminalTest, TerminalRangeReturnsEpsOptimalWinner) {
  // On a tiny utility range every vector shares a near-top point.
  Dataset d = PaperDataset();
  std::vector<Vec> tight{Vec{0.29, 0.71}, Vec{0.31, 0.69}, Vec{0.30, 0.70}};
  size_t winner = 99;
  ASSERT_TRUE(IsTerminalRange(d, tight, 0.1, &winner));
  for (const Vec& u : tight) EXPECT_LE(RegretRatioAt(d, winner, u), 0.1);
}

TEST(TerminalTest, WholeSimplexNotTerminalForSmallEps) {
  Dataset d = PaperDataset();
  std::vector<Vec> corners{Vec{1.0, 0.0}, Vec{0.0, 1.0}};
  size_t winner;
  EXPECT_FALSE(IsTerminalRange(d, corners, 0.05, &winner));
}

// ---------- EA state ----------

TEST(EaStateTest, CoverageSelectionPicksDenseRepresentative) {
  // Example 5 of the paper: the vector covering the most neighbours first.
  std::vector<Vec> vecs{Vec{0.00, 1.00}, Vec{0.02, 0.98}, Vec{0.04, 0.96},
                        Vec{0.5, 0.5},  Vec{1.0, 0.0}};
  auto picked = SelectRepresentativeVertices(vecs, 1, 0.05);
  ASSERT_EQ(picked.size(), 1u);
  // Only the middle of the dense cluster covers all 3 cluster vectors
  // (endpoint-to-endpoint distance ≈ 0.057 > 0.05).
  EXPECT_TRUE(ApproxEqual(picked[0], Vec{0.02, 0.98}, 1e-12));
}

TEST(EaStateTest, CoverageStopsWhenAllCovered) {
  std::vector<Vec> vecs{Vec{0.5, 0.5}, Vec{0.51, 0.49}};
  auto picked = SelectRepresentativeVertices(vecs, 5, 0.1);
  EXPECT_EQ(picked.size(), 1u);  // one vector covers both
}

TEST(EaStateTest, SelectionBoundedByMe) {
  Rng rng(9);
  std::vector<Vec> vecs;
  for (int i = 0; i < 30; ++i) vecs.push_back(rng.SimplexUniform(3));
  auto picked = SelectRepresentativeVertices(vecs, 4, 1e-6);
  EXPECT_EQ(picked.size(), 4u);
}

TEST(EaStateTest, EncodedStateDimensionFixed) {
  EaStateOptions opt;
  opt.m_e = 3;
  for (size_t d = 2; d <= 5; ++d) {
    Polyhedron p = Polyhedron::UnitSimplex(d);
    Vec s = EncodeEaState(p, opt);
    EXPECT_EQ(s.dim(), EaStateDim(d, opt));
    EXPECT_EQ(s.dim(), d * 3 + d + 1);
  }
}

TEST(EaStateTest, OuterSphereComponentCoversVertices) {
  EaStateOptions opt;
  Polyhedron p = Polyhedron::UnitSimplex(3);
  p.Cut(Halfspace{Vec{1.0, -1.0, 0.0}, 0.0});
  Vec s = EncodeEaState(p, opt);
  const size_t d = 3;
  Vec center{s[d * opt.m_e], s[d * opt.m_e + 1], s[d * opt.m_e + 2]};
  double radius = s[s.dim() - 1];
  for (const Vec& v : p.vertices()) {
    EXPECT_LE(Distance(center, v), radius + 1e-6);
  }
}

TEST(EaStateTest, StateShrinksWithRange) {
  // Cutting the range must not grow the outer-sphere radius.
  EaStateOptions opt;
  Polyhedron p = Polyhedron::UnitSimplex(4);
  Vec before = EncodeEaState(p, opt);
  p.Cut(Halfspace{Vec{1.0, -1.0, 0.0, 0.0}, 0.0});
  p.Cut(Halfspace{Vec{0.0, 1.0, -1.0, 0.0}, 0.0});
  Vec after = EncodeEaState(p, opt);
  EXPECT_LE(after[after.dim() - 1], before[before.dim() - 1] + 1e-9);
}

// ---------- EA actions ----------

TEST(EaActionsTest, ActionsAreWinnerPairs) {
  Rng rng(10);
  Dataset raw = GenerateSynthetic(500, 3, Distribution::kAntiCorrelated, rng);
  Dataset d = SkylineOf(raw);
  Polyhedron range = Polyhedron::UnitSimplex(3);
  EaActionOptions opt;
  EaActionSpace space = BuildEaActionSpace(d, range, 0.05, opt, rng);
  ASSERT_GT(space.winners.size(), 1u);
  EXPECT_LE(space.actions.size(), opt.m_h);
  EXPECT_FALSE(space.actions.empty());
  std::set<size_t> winner_set(space.winners.begin(), space.winners.end());
  for (const EaAction& action : space.actions) {
    const Question& q = action.q;
    EXPECT_NE(q.i, q.j);
    EXPECT_TRUE(winner_set.count(q.i));
    EXPECT_TRUE(winner_set.count(q.j));
  }
}

TEST(EaActionsTest, Lemma7ActionsStrictlyNarrow) {
  // Both sides of every action's hyper-plane must intersect R: some vertex
  // or sample strictly on each side.
  Rng rng(11);
  Dataset raw = GenerateSynthetic(500, 3, Distribution::kAntiCorrelated, rng);
  Dataset d = SkylineOf(raw);
  Polyhedron range = Polyhedron::UnitSimplex(3);
  EaActionOptions opt;
  opt.num_samples = 200;
  EaActionSpace space = BuildEaActionSpace(d, range, 0.05, opt, rng);
  for (const EaAction& action : space.actions) {
    const Question& q = action.q;
    Halfspace h = PreferenceHalfspace(d.point(q.i), d.point(q.j));
    bool pos = false, neg = false;
    for (int s = 0; s < 500; ++s) {
      double m = h.Margin(range.SampleInterior(rng));
      if (m > 0) pos = true;
      if (m < 0) neg = true;
      if (pos && neg) break;
    }
    EXPECT_TRUE(pos && neg) << "action does not split R";
  }
}

TEST(EaActionsTest, SingleWinnerOnTinyRange) {
  Rng rng(12);
  Dataset raw = GenerateSynthetic(300, 3, Distribution::kAntiCorrelated, rng);
  Dataset d = SkylineOf(raw);
  // Shrink R to a sliver around one utility vector.
  Polyhedron range = Polyhedron::UnitSimplex(3);
  Vec u = rng.SimplexUniform(3);
  for (int i = 0; i < 40 && !range.IsEmpty(); ++i) {
    Vec a = rng.SimplexUniform(3);
    Halfspace h{u - a, 0.0};
    if (h.normal.Norm() < 1e-9) continue;
    Polyhedron copy = range;
    copy.Cut(h);
    if (!copy.IsEmpty()) range = copy;
  }
  EaActionSpace space = BuildEaActionSpace(d, range, 0.3, EaActionOptions{}, rng);
  EXPECT_LE(space.winners.size(), 2u);  // big ε + small R ⇒ few winners
}

// ---------- AA geometry ----------

TEST(AaGeometryTest, EmptyHGivesFullSimplexRect) {
  AaGeometry geo = ComputeAaGeometry(3, {});
  ASSERT_TRUE(geo.feasible);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(geo.e_min[i], 0.0, 1e-7);
    EXPECT_NEAR(geo.e_max[i], 1.0, 1e-7);
  }
  // Inner sphere centred at the barycentre with radius 1/d.
  EXPECT_NEAR(geo.inner.center.Sum(), 1.0, 1e-7);
  EXPECT_GT(geo.inner.radius, 0.0);
}

TEST(AaGeometryTest, InnerSphereCenterSatisfiesAllHalfspaces) {
  Rng rng(13);
  Dataset d = GenerateSynthetic(50, 4, Distribution::kAntiCorrelated, rng);
  std::vector<LearnedHalfspace> h;
  Vec u = rng.SimplexUniform(4);
  for (int i = 0; i < 6; ++i) {
    size_t a = static_cast<size_t>(rng.UniformInt(0, 49));
    size_t b = static_cast<size_t>(rng.UniformInt(0, 49));
    if (a == b) continue;
    bool pref = Dot(u, d.point(a)) >= Dot(u, d.point(b));
    LearnedHalfspace lh;
    lh.winner = pref ? a : b;
    lh.loser = pref ? b : a;
    lh.h = PreferenceHalfspace(d.point(lh.winner), d.point(lh.loser));
    h.push_back(lh);
  }
  AaGeometry geo = ComputeAaGeometry(4, h);
  ASSERT_TRUE(geo.feasible);
  for (const LearnedHalfspace& lh : h) {
    EXPECT_TRUE(lh.h.Contains(geo.inner.center, 1e-6));
  }
  EXPECT_NEAR(geo.inner.center.Sum(), 1.0, 1e-7);
}

TEST(AaGeometryTest, RectContainsTrueUtilityVector) {
  // The answers come from u, so u stays inside the learned rectangle.
  Rng rng(14);
  Dataset d = GenerateSynthetic(80, 3, Distribution::kAntiCorrelated, rng);
  Vec u = rng.SimplexUniform(3);
  std::vector<LearnedHalfspace> h;
  for (int i = 0; i < 10; ++i) {
    size_t a = static_cast<size_t>(rng.UniformInt(0, 79));
    size_t b = static_cast<size_t>(rng.UniformInt(0, 79));
    if (a == b) continue;
    bool pref = Dot(u, d.point(a)) >= Dot(u, d.point(b));
    LearnedHalfspace lh;
    lh.winner = pref ? a : b;
    lh.loser = pref ? b : a;
    lh.h = PreferenceHalfspace(d.point(lh.winner), d.point(lh.loser));
    h.push_back(lh);
    AaGeometry geo = ComputeAaGeometry(3, h);
    ASSERT_TRUE(geo.feasible);
    for (size_t k = 0; k < 3; ++k) {
      EXPECT_LE(geo.e_min[k], u[k] + 1e-6);
      EXPECT_GE(geo.e_max[k], u[k] - 1e-6);
    }
  }
}

TEST(AaGeometryTest, RectShrinksMonotonically) {
  Rng rng(15);
  Dataset d = GenerateSynthetic(80, 3, Distribution::kAntiCorrelated, rng);
  Vec u = rng.SimplexUniform(3);
  std::vector<LearnedHalfspace> h;
  double prev = std::sqrt(3.0);
  for (int i = 0; i < 8; ++i) {
    size_t a = static_cast<size_t>(rng.UniformInt(0, 79));
    size_t b = static_cast<size_t>(rng.UniformInt(0, 79));
    if (a == b) continue;
    bool pref = Dot(u, d.point(a)) >= Dot(u, d.point(b));
    LearnedHalfspace lh;
    lh.winner = pref ? a : b;
    lh.loser = pref ? b : a;
    lh.h = PreferenceHalfspace(d.point(lh.winner), d.point(lh.loser));
    h.push_back(lh);
    AaGeometry geo = ComputeAaGeometry(3, h);
    ASSERT_TRUE(geo.feasible);
    double dist = Distance(geo.e_min, geo.e_max);
    EXPECT_LE(dist, prev + 1e-6);
    prev = dist;
  }
}

TEST(AaGeometryTest, InfeasibleHDetected) {
  // Contradictory half-spaces: u0 > u1 and u1 > u0 strictly via two pairs.
  std::vector<LearnedHalfspace> h;
  LearnedHalfspace a;
  a.h = Halfspace{Vec{1.0, -1.0}, 0.3};  // u0 − u1 ≥ 0.3
  h.push_back(a);
  LearnedHalfspace b;
  b.h = Halfspace{Vec{-1.0, 1.0}, 0.3};  // u1 − u0 ≥ 0.3
  h.push_back(b);
  AaGeometry geo = ComputeAaGeometry(2, h);
  EXPECT_FALSE(geo.feasible);
}

TEST(AaGeometryTest, FeasibilityMarginSigns) {
  std::vector<LearnedHalfspace> h;
  // Candidate u0 ≥ u1 on the free simplex: strictly feasible.
  EXPECT_GT(FeasibilityMargin(2, h, Halfspace{Vec{1.0, -1.0}, 0.0}), 1e-6);
  // Candidate that excludes the whole simplex: infeasible.
  EXPECT_LE(FeasibilityMargin(2, h, Halfspace{Vec{-1.0, -1.0}, 0.0}), 1e-9);
}

TEST(AaGeometryTest, EncodedStateLayout) {
  AaGeometry geo = ComputeAaGeometry(3, {});
  Vec s = EncodeAaState(geo);
  EXPECT_EQ(s.dim(), AaStateDim(3));
  EXPECT_EQ(s.dim(), 10u);
  // Layout: center(3), radius(1), e_min(3), e_max(3).
  EXPECT_NEAR(s[0] + s[1] + s[2], 1.0, 1e-7);
  EXPECT_GT(s[3], 0.0);
}

// The production rectangle runs its 2d LPs through one lp::FamilySolver,
// which shares simplex phase 1. Each extent must still equal, bit for bit,
// what that LP alone gives under lp::SolveWithRecovery — the reference here,
// built model for model the way ComputeAaGeometry builds them.
class AaRectangleProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(AaRectangleProperty, MatchesIndependentSolves) {
  const size_t d = GetParam();
  Rng rng(400 + d);
  const Vec u = rng.SimplexUniform(d);
  std::vector<LearnedHalfspace> h;
  for (int round = 0; round < 12; ++round) {
    // A preference between two hypercube-uniform items, oriented by u so
    // U ∩ H stays non-empty.
    Vec a(d), b(d);
    for (size_t c = 0; c < d; ++c) {
      a[c] = rng.Uniform(0.0, 1.0);
      b[c] = rng.Uniform(0.0, 1.0);
    }
    const bool pref = Dot(u, a) >= Dot(u, b);
    LearnedHalfspace lh;
    lh.h = PreferenceHalfspace(pref ? a : b, pref ? b : a);
    h.push_back(lh);

    const AaGeometry geo = ComputeAaGeometry(d, h);
    ASSERT_TRUE(geo.feasible) << "round " << round;
    for (size_t i = 0; i < d; ++i) {
      for (const lp::Sense sense : {lp::Sense::kMinimize, lp::Sense::kMaximize}) {
        lp::Model model;
        for (size_t v = 0; v < d; ++v) model.AddVariable(v == i ? 1.0 : 0.0);
        model.SetSense(sense);
        model.AddConstraint(Vec(d, 1.0), lp::Relation::kEq, 1.0);
        for (const LearnedHalfspace& learned : h) {
          model.AddConstraint(learned.h.normal, lp::Relation::kGe,
                              learned.h.offset);
        }
        const lp::SolveResult alone = lp::SolveWithRecovery(model);
        ASSERT_TRUE(alone.ok()) << "round " << round << " coord " << i;
        const double extent =
            sense == lp::Sense::kMinimize ? geo.e_min[i] : geo.e_max[i];
        EXPECT_EQ(extent, alone.objective)
            << "round " << round << " coord " << i << " "
            << (sense == lp::Sense::kMinimize ? "min" : "max");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, AaRectangleProperty,
                         ::testing::Values(2, 5, 10, 20));

// ---------- AA actions ----------

TEST(AaActionsTest, ActionsSplitTheRange) {
  Rng rng(16);
  Dataset raw = GenerateSynthetic(500, 4, Distribution::kAntiCorrelated, rng);
  Dataset d = SkylineOf(raw);
  std::vector<LearnedHalfspace> h;
  AaGeometry geo = ComputeAaGeometry(4, h);
  AaActionOptions opt;
  auto actions = BuildAaActionSpace(d, h, geo, opt, rng);
  ASSERT_FALSE(actions.empty());
  EXPECT_LE(actions.size(), opt.m_h);
  for (const AaAction& action : actions) {
    const Question& q = action.q;
    EXPECT_NE(q.i, q.j);
    EXPECT_GT(action.balance, 0.0);
    EXPECT_LT(action.balance, 1.0);
    // Lemma 8: both sides feasible (checked via the LP margin).
    Halfspace f = PreferenceHalfspace(d.point(q.i), d.point(q.j));
    EXPECT_GT(FeasibilityMargin(4, h, f), 0.0);
    EXPECT_GT(FeasibilityMargin(4, h, f.Flipped()), 0.0);
  }
}

// ---------- Metrics ----------

TEST(MetricsTest, SummarizeBasics) {
  Summary s = Summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
  EXPECT_EQ(s.count, 4u);
  Summary empty = Summarize({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.mean, 0.0);
}

}  // namespace
}  // namespace isrl
