// Unit tests for user simulation: linear/noisy oracles, majority voting,
// and utility-vector samplers.
#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "user/sampler.h"
#include "user/user.h"

namespace isrl {
namespace {

TEST(LinearUserTest, AnswersByUtility) {
  LinearUser user(Vec{0.3, 0.7});
  EXPECT_TRUE(user.Prefers(Vec{0.5, 0.8}, Vec{0.3, 0.7}));   // 0.71 vs 0.58
  EXPECT_FALSE(user.Prefers(Vec{1.0, 0.0}, Vec{0.0, 1.0}));  // 0.30 vs 0.70
}

TEST(LinearUserTest, PaperTableIIIExample) {
  // u = (0.3, 0.7): p3 = (0.5, 0.8) is the favourite.
  LinearUser user(Vec{0.3, 0.7});
  std::vector<Vec> points{Vec{0.0, 1.0}, Vec{0.3, 0.7}, Vec{0.5, 0.8},
                          Vec{0.7, 0.4}, Vec{1.0, 0.0}};
  for (const Vec& p : points) {
    EXPECT_TRUE(user.Prefers(points[2], p));
  }
}

TEST(LinearUserTest, TiesPreferFirst) {
  LinearUser user(Vec{0.5, 0.5});
  EXPECT_TRUE(user.Prefers(Vec{0.4, 0.6}, Vec{0.6, 0.4}));
  EXPECT_TRUE(user.Prefers(Vec{0.6, 0.4}, Vec{0.4, 0.6}));
}

TEST(LinearUserTest, CountsQuestions) {
  LinearUser user(Vec{0.5, 0.5});
  EXPECT_EQ(user.questions_asked(), 0u);
  user.Prefers(Vec{1.0, 0.0}, Vec{0.0, 1.0});
  user.Prefers(Vec{1.0, 0.0}, Vec{0.0, 1.0});
  EXPECT_EQ(user.questions_asked(), 2u);
  user.ResetQuestionCount();
  EXPECT_EQ(user.questions_asked(), 0u);
}

TEST(LinearUserDeathTest, RejectsInvalidUtility) {
  EXPECT_DEATH(LinearUser(Vec{0.5, 0.6}), "ISRL_CHECK");   // sum ≠ 1
  EXPECT_DEATH(LinearUser(Vec{-0.2, 1.2}), "ISRL_CHECK");  // negative weight
}

TEST(NoisyUserTest, ZeroNoiseMatchesLinear) {
  Rng rng(1);
  NoisyUser noisy(Vec{0.3, 0.7}, 0.0, 10);
  LinearUser exact(Vec{0.3, 0.7});
  for (int i = 0; i < 50; ++i) {
    Vec a{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    Vec b{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    EXPECT_EQ(noisy.Prefers(a, b), exact.Prefers(a, b));
  }
}

TEST(NoisyUserTest, FlipRateApproximatelyMatches) {
  Rng rng(2);
  const double rate = 0.2;
  NoisyUser noisy(Vec{0.3, 0.7}, rate, 20);
  LinearUser exact(Vec{0.3, 0.7});
  int flips = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    Vec a{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    Vec b{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    if (noisy.Prefers(a, b) != exact.Prefers(a, b)) ++flips;
  }
  EXPECT_NEAR(static_cast<double>(flips) / trials, rate, 0.03);
}

TEST(NoisyUserDeathTest, RejectsErrorRateAboveHalf) {
  Rng rng(3);
  EXPECT_DEATH(NoisyUser(Vec{0.5, 0.5}, 0.6, 30), "ISRL_CHECK");
}

TEST(MajorityVoteTest, ReducesEffectiveErrorRate) {
  Rng rng(4);
  MajorityVoteUser voter(std::make_unique<NoisyUser>(Vec{0.3, 0.7}, 0.25, 40),
                         5);
  LinearUser exact(Vec{0.3, 0.7});
  int errors = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    Vec a{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    Vec b{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    if (voter.Prefers(a, b) != exact.Prefers(a, b)) ++errors;
  }
  // 5-vote majority with p=0.25 error ≈ 0.10 effective error.
  EXPECT_LT(static_cast<double>(errors) / trials, 0.15);
}

TEST(MajorityVoteDeathTest, RequiresOddVotes) {
  Rng rng(5);
  EXPECT_DEATH(
      MajorityVoteUser(std::make_unique<NoisyUser>(Vec{0.5, 0.5}, 0.1, 50), 4),
      "ISRL_CHECK");
}

TEST(SamplerTest, UniformVectorsOnSimplex) {
  Rng rng(6);
  auto vs = SampleUtilityVectors(100, 5, rng);
  ASSERT_EQ(vs.size(), 100u);
  for (const Vec& u : vs) {
    EXPECT_EQ(u.dim(), 5u);
    EXPECT_NEAR(u.Sum(), 1.0, 1e-12);
    for (size_t i = 0; i < 5; ++i) EXPECT_GE(u[i], 0.0);
  }
}

}  // namespace
}  // namespace isrl
