// End-to-end tests for algorithm EA: the exact-guarantee property, training,
// tracing, determinism, and the noisy-user extension.
#include <memory>

#include <gtest/gtest.h>

#include "core/ea.h"
#include "core/regret.h"
#include "core/session.h"
#include "data/skyline.h"
#include "data/synthetic.h"
#include "user/sampler.h"
#include "user/user.h"

namespace isrl {
namespace {

Dataset SmallSkyline(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Dataset raw = GenerateSynthetic(n, d, Distribution::kAntiCorrelated, rng);
  return SkylineOf(raw);
}

rl::DqnOptions FastDqn() {
  rl::DqnOptions o;
  o.hidden_neurons = 32;
  o.batch_size = 16;
  o.min_replay_before_update = 16;
  return o;
}

TEST(EaTest, UntrainedStillSatisfiesExactGuarantee) {
  // The ε guarantee comes from the terminal certificate, not the policy: an
  // untrained agent must still return a point with regret < ε.
  Dataset sky = SmallSkyline(800, 3, 1);
  EaOptions opt;
  opt.epsilon = 0.1;
  opt.dqn = FastDqn();
  Ea ea(sky, opt);
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    Vec u = rng.SimplexUniform(3);
    LinearUser user(u);
    InteractionResult r = ea.Interact(user);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(RegretRatioAt(sky, r.best_index, u), opt.epsilon);
    EXPECT_EQ(user.questions_asked(), r.rounds);
  }
}

class EaGuaranteeProperty
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(EaGuaranteeProperty, RegretBelowEpsilonAcrossDimsAndEps) {
  auto [d, eps] = GetParam();
  Dataset sky = SmallSkyline(600, d, 10 + d);
  EaOptions opt;
  opt.epsilon = eps;
  opt.dqn = FastDqn();
  Ea ea(sky, opt);
  Rng rng(3);
  auto train = SampleUtilityVectors(10, d, rng);
  ea.Train(train);
  for (int trial = 0; trial < 5; ++trial) {
    Vec u = rng.SimplexUniform(d);
    LinearUser user(u);
    InteractionResult r = ea.Interact(user);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(RegretRatioAt(sky, r.best_index, u), eps) << "d=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EaGuaranteeProperty,
                         ::testing::Combine(::testing::Values(2, 3, 4),
                                            ::testing::Values(0.05, 0.1,
                                                              0.25)));

TEST(EaTest, TrainingRunsAndReportsStats) {
  Dataset sky = SmallSkyline(500, 3, 4);
  EaOptions opt;
  opt.dqn = FastDqn();
  Ea ea(sky, opt);
  Rng rng(5);
  auto train = SampleUtilityVectors(20, 3, rng);
  TrainStats stats = ea.Train(train);
  EXPECT_EQ(stats.episodes, 20u);
  EXPECT_GT(stats.mean_rounds, 0.0);
  EXPECT_GT(ea.agent().replay().size(), 0u);
  EXPECT_GT(ea.agent().num_updates(), 0u);
}

TEST(EaTest, LargerEpsilonFewerRounds) {
  Dataset sky = SmallSkyline(800, 3, 6);
  Rng rng(7);
  auto train = SampleUtilityVectors(15, 3, rng);
  auto eval = SampleUtilityVectors(15, 3, rng);

  EaOptions tight;
  tight.epsilon = 0.05;
  tight.dqn = FastDqn();
  Ea ea_tight(sky, tight);
  ea_tight.Train(train);
  EvalStats s_tight = Evaluate(ea_tight, sky, eval, 0.05);

  EaOptions loose;
  loose.epsilon = 0.3;
  loose.dqn = FastDqn();
  Ea ea_loose(sky, loose);
  ea_loose.Train(train);
  EvalStats s_loose = Evaluate(ea_loose, sky, eval, 0.3);

  EXPECT_LT(s_loose.mean_rounds, s_tight.mean_rounds);
}

TEST(EaTest, DeterministicGivenSeed) {
  Dataset sky = SmallSkyline(400, 3, 8);
  auto run = [&]() {
    EaOptions opt;
    opt.seed = 123;
    opt.dqn = FastDqn();
    Ea ea(sky, opt);
    Rng rng(9);
    ea.Train(SampleUtilityVectors(5, 3, rng));
    LinearUser user(Vec{0.2, 0.3, 0.5});
    InteractionResult r = ea.Interact(user);
    return std::make_pair(r.rounds, r.best_index);
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(EaTest, TraceRecordsMonotoneTimeAndFinalLowRegret) {
  Dataset sky = SmallSkyline(600, 3, 10);
  EaOptions opt;
  opt.dqn = FastDqn();
  Ea ea(sky, opt);
  Rng rng(11);
  Rng trace_rng(12);
  InteractionTrace trace(&sky, 200, &trace_rng);
  Vec u = rng.SimplexUniform(3);
  LinearUser user(u);
  InteractionResult r = ea.Interact(user, &trace);
  ASSERT_EQ(trace.rounds(), r.rounds);
  for (size_t i = 1; i < trace.rounds(); ++i) {
    EXPECT_GE(trace.cumulative_seconds()[i], trace.cumulative_seconds()[i - 1]);
  }
  if (trace.rounds() > 0) {
    // By the end the worst-case regret over R is below ε (the certificate).
    EXPECT_LT(trace.max_regret().back(), opt.epsilon + 1e-9);
  }
}

TEST(EaTest, RoundsWithinTheoremOneBound) {
  // Theorem 1: O(n) rounds; in practice far below n.
  Dataset sky = SmallSkyline(500, 3, 13);
  EaOptions opt;
  opt.dqn = FastDqn();
  Ea ea(sky, opt);
  Rng rng(14);
  for (int trial = 0; trial < 5; ++trial) {
    LinearUser user(rng.SimplexUniform(3));
    InteractionResult r = ea.Interact(user);
    EXPECT_LE(r.rounds, sky.size());
  }
}

TEST(EaTest, NoisyUserDegradesGracefully) {
  // With mistakes the exact guarantee is void, but EA must terminate and
  // return some point without crashing, even when R collapses.
  Dataset sky = SmallSkyline(500, 3, 15);
  EaOptions opt;
  opt.dqn = FastDqn();
  Ea ea(sky, opt);
  Rng rng(16);
  for (int trial = 0; trial < 5; ++trial) {
    Vec u = rng.SimplexUniform(3);
    NoisyUser user(u, 0.25, static_cast<uint64_t>(160 + trial));
    InteractionResult r = ea.Interact(user);
    EXPECT_LT(r.best_index, sky.size());
    EXPECT_LE(r.rounds, opt.max_rounds);
  }
}

TEST(EaTest, MajorityVoteRecoversAccuracyUnderNoise) {
  Dataset sky = SmallSkyline(500, 3, 17);
  EaOptions opt;
  opt.epsilon = 0.15;
  opt.dqn = FastDqn();
  Ea ea(sky, opt);
  Rng rng(18);
  int ok = 0;
  const int trials = 10;
  for (int trial = 0; trial < trials; ++trial) {
    Vec u = rng.SimplexUniform(3);
    MajorityVoteUser voter(std::make_unique<NoisyUser>(
                               u, 0.15, static_cast<uint64_t>(180 + trial)),
                           5);
    InteractionResult r = ea.Interact(voter);
    if (RegretRatioAt(sky, r.best_index, u) < opt.epsilon) ++ok;
  }
  EXPECT_GE(ok, trials / 2);
}

TEST(EaTest, InputDimMatchesStateAndActionFeatures) {
  Dataset sky = SmallSkyline(300, 4, 19);
  EaOptions opt;
  opt.state.m_e = 6;
  opt.dqn = FastDqn();
  Ea ea(sky, opt);
  EXPECT_EQ(ea.input_dim(), 4u * 6 + 4 + 1 + 3 * 4 + Ea::kActionDescriptors);
}

}  // namespace
}  // namespace isrl
