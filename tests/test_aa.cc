// End-to-end tests for algorithm AA: the Lemma 9 bound, empirical accuracy,
// scalability to high d, determinism, and the noisy-user extension.
#include <cmath>

#include <gtest/gtest.h>

#include "core/aa.h"
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
  return o;
}

TEST(AaTest, StopDistanceFollowsLemma9) {
  Dataset sky = SmallSkyline(300, 4, 1);
  AaOptions opt;
  opt.epsilon = 0.1;
  opt.dqn = FastDqn();
  Aa aa(sky, opt);
  EXPECT_NEAR(aa.StopDistance(), 2.0 * std::sqrt(4.0) * 0.1, 1e-12);
}

TEST(AaTest, ConvergedRunsSatisfyLemma9Bound) {
  // Lemma 9 guarantees regret ≤ d²ε when the certificate fires; empirically
  // (§V) the regret is below ε itself — we assert the hard bound and track
  // the empirical one.
  Dataset sky = SmallSkyline(800, 3, 2);
  AaOptions opt;
  opt.epsilon = 0.1;
  opt.dqn = FastDqn();
  Aa aa(sky, opt);
  Rng rng(3);
  int within_eps = 0;
  const int trials = 10;
  for (int trial = 0; trial < trials; ++trial) {
    Vec u = rng.SimplexUniform(3);
    LinearUser user(u);
    InteractionResult r = aa.Interact(user);
    double regret = RegretRatioAt(sky, r.best_index, u);
    if (r.converged) {
      EXPECT_LE(regret, 9.0 * opt.epsilon + 1e-9);  // d²ε
    }
    if (regret < opt.epsilon) ++within_eps;
  }
  EXPECT_GE(within_eps, trials * 7 / 10);  // "typically below ε"
}

class AaGuaranteeProperty
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(AaGuaranteeProperty, TerminatesWithBoundedRegretAcrossDims) {
  auto [d, eps] = GetParam();
  Dataset sky = SmallSkyline(500, d, 20 + d);
  AaOptions opt;
  opt.epsilon = eps;
  opt.dqn = FastDqn();
  Aa aa(sky, opt);
  Rng rng(4);
  for (int trial = 0; trial < 3; ++trial) {
    Vec u = rng.SimplexUniform(d);
    LinearUser user(u);
    InteractionResult r = aa.Interact(user);
    EXPECT_LE(r.rounds, opt.max_rounds);
    double regret = RegretRatioAt(sky, r.best_index, u);
    if (r.converged) {
      EXPECT_LE(regret,
                static_cast<double>(d) * static_cast<double>(d) * eps + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AaGuaranteeProperty,
                         ::testing::Combine(::testing::Values(2, 4, 8),
                                            ::testing::Values(0.1, 0.2)));

TEST(AaTest, ScalesToHighDimensions) {
  // AA's selling point: it runs where polyhedron algorithms cannot (d = 12
  // here to keep the test fast; the benches go to 25).
  Dataset sky = SmallSkyline(800, 12, 5);
  AaOptions opt;
  opt.epsilon = 0.2;
  opt.dqn = FastDqn();
  Aa aa(sky, opt);
  LinearUser user(Rng(6).SimplexUniform(12));
  InteractionResult r = aa.Interact(user);
  EXPECT_GT(r.rounds, 0u);
  EXPECT_LE(r.rounds, opt.max_rounds);
}

TEST(AaTest, TrainingRunsAndPopulatesReplay) {
  Dataset sky = SmallSkyline(500, 3, 7);
  AaOptions opt;
  opt.dqn = FastDqn();
  Aa aa(sky, opt);
  Rng rng(8);
  TrainStats stats = aa.Train(SampleUtilityVectors(15, 3, rng));
  EXPECT_EQ(stats.episodes, 15u);
  EXPECT_GT(stats.mean_rounds, 0.0);
  EXPECT_GT(aa.agent().replay().size(), 0u);
}

TEST(AaTest, LargerEpsilonFewerRounds) {
  Dataset sky = SmallSkyline(800, 4, 9);
  Rng rng(10);
  auto eval = SampleUtilityVectors(10, 4, rng);

  AaOptions tight;
  tight.epsilon = 0.05;
  tight.dqn = FastDqn();
  Aa aa_tight(sky, tight);
  EvalStats s_tight = Evaluate(aa_tight, sky, eval, 0.05);

  AaOptions loose;
  loose.epsilon = 0.25;
  loose.dqn = FastDqn();
  Aa aa_loose(sky, loose);
  EvalStats s_loose = Evaluate(aa_loose, sky, eval, 0.25);

  EXPECT_LT(s_loose.mean_rounds, s_tight.mean_rounds);
}

TEST(AaTest, DeterministicGivenSeed) {
  Dataset sky = SmallSkyline(400, 3, 11);
  auto run = [&]() {
    AaOptions opt;
    opt.seed = 77;
    opt.dqn = FastDqn();
    Aa aa(sky, opt);
    LinearUser user(Vec{0.5, 0.2, 0.3});
    InteractionResult r = aa.Interact(user);
    return std::make_pair(r.rounds, r.best_index);
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(AaTest, TraceRecordsProgress) {
  Dataset sky = SmallSkyline(600, 3, 12);
  AaOptions opt;
  opt.dqn = FastDqn();
  Aa aa(sky, opt);
  Rng trace_rng(13);
  InteractionTrace trace(&sky, 100, &trace_rng);
  LinearUser user(Rng(14).SimplexUniform(3));
  InteractionResult r = aa.Interact(user, &trace);
  EXPECT_EQ(trace.rounds(), r.rounds);
  for (size_t i = 1; i < trace.rounds(); ++i) {
    EXPECT_GE(trace.cumulative_seconds()[i], trace.cumulative_seconds()[i - 1]);
  }
}

TEST(AaTest, NoisyUserDoesNotCrash) {
  Dataset sky = SmallSkyline(500, 3, 15);
  AaOptions opt;
  opt.dqn = FastDqn();
  Aa aa(sky, opt);
  Rng rng(16);
  for (int trial = 0; trial < 5; ++trial) {
    NoisyUser user(rng.SimplexUniform(3), 0.25,
                   static_cast<uint64_t>(160 + trial));
    InteractionResult r = aa.Interact(user);
    EXPECT_LT(r.best_index, sky.size());
  }
}

TEST(AaTest, InputDimIsSixDPlusOne) {
  Dataset sky = SmallSkyline(300, 5, 17);
  AaOptions opt;
  opt.dqn = FastDqn();
  Aa aa(sky, opt);
  EXPECT_EQ(aa.input_dim(), 6u * 5 + 1 + Aa::kActionDescriptors);
}

TEST(AaTest, QuestionsCountedOnUser) {
  Dataset sky = SmallSkyline(400, 3, 18);
  AaOptions opt;
  opt.dqn = FastDqn();
  Aa aa(sky, opt);
  LinearUser user(Rng(19).SimplexUniform(3));
  InteractionResult r = aa.Interact(user);
  EXPECT_EQ(user.questions_asked(), r.rounds);
}

}  // namespace
}  // namespace isrl
