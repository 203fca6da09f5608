// Tests for core/validation, plus end-to-end use of the
// validators as an independent oracle over real EA/AA interactions.
#include <gtest/gtest.h>

#include "core/aa.h"
#include "core/ea.h"
#include "core/validation.h"
#include "data/real_like.h"
#include "data/skyline.h"
#include "data/synthetic.h"
#include "geometry/halfspace.h"
#include "user/sampler.h"
#include "user/user.h"

namespace isrl {
namespace {

// ---------- core/validation ----------

TEST(ValidationTest, ReturnedTupleBounds) {
  Dataset d(2);
  d.Add(Vec{1.0, 0.1});
  d.Add(Vec{0.1, 1.0});
  Vec u{0.9, 0.1};
  // Point 0 is the favourite: regret 0.
  EXPECT_TRUE(ValidateReturnedTuple(d, 0, u, 0.1, /*exact=*/true).ok());
  // Point 1 has large regret: fails the exact bound.
  EXPECT_FALSE(ValidateReturnedTuple(d, 1, u, 0.1, /*exact=*/true).ok());
  // ...but passes the relaxed d²ε bound with a big ε.
  EXPECT_TRUE(ValidateReturnedTuple(d, 1, u, 0.2, /*exact=*/false).ok());
  EXPECT_EQ(ValidateReturnedTuple(d, 7, u, 0.1, true).code(),
            StatusCode::kOutOfRange);
}

TEST(ValidationTest, TranscriptConsistency) {
  Vec u{0.6, 0.4};
  std::vector<LearnedHalfspace> good(1), bad(1);
  good[0].h = Halfspace{Vec{1.0, -1.0}, 0.0};   // u0 ≥ u1 — true for u
  bad[0].h = Halfspace{Vec{-1.0, 1.0}, 0.05};   // u1 − u0 ≥ 0.05 — false
  EXPECT_TRUE(ValidateTranscriptConsistency(good, u).ok());
  EXPECT_FALSE(ValidateTranscriptConsistency(bad, u).ok());
}

TEST(ValidationTest, StrictNarrowingDetectsUselessCut) {
  std::vector<LearnedHalfspace> h(2);
  h[0].h = Halfspace{Vec{1.0, -1.0, 0.0}, 0.0};
  h[1].h = Halfspace{Vec{1.0, -1.0, 0.0}, 0.0};  // duplicate: cuts nothing
  EXPECT_FALSE(ValidateStrictNarrowing(3, h).ok());
  h.pop_back();
  EXPECT_TRUE(ValidateStrictNarrowing(3, h).ok());
}

TEST(ValidationTest, StrictNarrowingDetectsEmptyRange) {
  std::vector<LearnedHalfspace> h(2);
  h[0].h = Halfspace{Vec{1.0, -1.0}, 0.2};   // u0 − u1 ≥ 0.2
  h[1].h = Halfspace{Vec{-1.0, 1.0}, 0.2};   // u1 − u0 ≥ 0.2 — contradiction
  EXPECT_FALSE(ValidateStrictNarrowing(2, h).ok());
}

TEST(ValidationTest, TerminalCertificateChecksEveryVector) {
  Dataset d(2);
  d.Add(Vec{1.0, 0.2});
  d.Add(Vec{0.2, 1.0});
  std::vector<Vec> utils{Vec{0.95, 0.05}, Vec{0.9, 0.1}};
  EXPECT_TRUE(ValidateTerminalCertificate(d, 0, utils, 0.05).ok());
  utils.push_back(Vec{0.05, 0.95});  // point 0 is terrible here
  EXPECT_FALSE(ValidateTerminalCertificate(d, 0, utils, 0.05).ok());
}

// ---------- validators as an oracle over real interactions ----------

TEST(ValidationIntegration, EaInteractionsPassAllValidators) {
  Rng rng(10);
  Dataset sky =
      SkylineOf(GenerateSynthetic(800, 3, Distribution::kAntiCorrelated, rng));
  EaOptions opt;
  opt.epsilon = 0.1;
  Ea ea(sky, opt);
  for (int trial = 0; trial < 5; ++trial) {
    Vec u = rng.SimplexUniform(3);
    LinearUser user(u);
    InteractionResult r = ea.Interact(user);
    EXPECT_TRUE(
        ValidateReturnedTuple(sky, r.best_index, u, opt.epsilon, true).ok());
  }
}

TEST(ValidationIntegration, AaInteractionsPassRelaxedValidator) {
  Rng rng(11);
  Dataset sky =
      SkylineOf(GenerateSynthetic(800, 4, Distribution::kAntiCorrelated, rng));
  AaOptions opt;
  opt.epsilon = 0.1;
  Aa aa(sky, opt);
  for (int trial = 0; trial < 5; ++trial) {
    Vec u = rng.SimplexUniform(4);
    LinearUser user(u);
    InteractionResult r = aa.Interact(user);
    if (r.converged) {
      EXPECT_TRUE(
          ValidateReturnedTuple(sky, r.best_index, u, opt.epsilon, false).ok());
    }
  }
}

}  // namespace
}  // namespace isrl
