// Fault-injection suite: the engine must survive noisy users, LP failures,
// and tight budgets without ever aborting the process. Hundreds of seeded
// sessions run EA, AA, and the baselines against FaultyUser; every session
// must end in a normal / degraded / budget-exhausted terminal state with a
// valid recommendation.
#include <algorithm>

#include <gtest/gtest.h>

#include "baselines/single_pass.h"
#include "baselines/uh_random.h"
#include "baselines/utility_approx.h"
#include "common/budget.h"
#include "core/aa.h"
#include "core/ea.h"
#include "core/regret.h"
#include "core/session.h"
#include "data/skyline.h"
#include "data/synthetic.h"
#include "lp/simplex.h"
#include "user/faulty.h"
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

bool IsAcceptableTermination(Termination t) {
  return t == Termination::kConverged || t == Termination::kDegraded ||
         t == Termination::kBudgetExhausted;
}

// ---------------------------------------------------------------- RunBudget

TEST(RunBudgetTest, EffectiveMaxRoundsTakesTheTighterCap) {
  RunBudget b;
  EXPECT_EQ(b.EffectiveMaxRounds(100), 100u);  // unset budget: algorithm cap
  b.max_rounds = 40;
  EXPECT_EQ(b.EffectiveMaxRounds(100), 40u);
  b.max_rounds = 500;
  EXPECT_EQ(b.EffectiveMaxRounds(100), 100u);  // algorithm cap still binds
}

TEST(DeadlineTest, DefaultNeverExpiresAndBudgetArmsIt) {
  Deadline never;
  EXPECT_FALSE(never.armed());
  EXPECT_FALSE(never.Expired());

  RunBudget no_time;
  EXPECT_FALSE(Deadline::FromBudget(no_time).armed());

  RunBudget timed;
  timed.max_seconds = 3600.0;
  Deadline far = Deadline::FromBudget(timed);
  EXPECT_TRUE(far.armed());
  EXPECT_FALSE(far.Expired());

  Deadline past = Deadline::After(-1.0);
  EXPECT_TRUE(past.armed());
  EXPECT_TRUE(past.Expired());
}

// --------------------------------------------------------------- FaultyUser

TEST(FaultyUserTest, ZeroRatesBehaveLikeLinearUser) {
  Vec u{0.3, 0.7};
  FaultyUser faulty(u, {});
  LinearUser linear(u);
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    Vec a = rng.SimplexUniform(2);
    Vec b = rng.SimplexUniform(2);
    EXPECT_EQ(faulty.Ask(a, b) == Answer::kFirst, linear.Prefers(a, b));
  }
  EXPECT_EQ(faulty.flips(), 0u);
  EXPECT_EQ(faulty.no_answers(), 0u);
  EXPECT_EQ(faulty.boundary_flips(), 0u);
}

TEST(FaultyUserTest, FaultSequenceIsDeterministicPerSeed) {
  FaultyUserOptions opt;
  opt.flip_rate = 0.3;
  opt.no_answer_rate = 0.2;
  opt.seed = 11;
  Vec u{0.5, 0.5};
  FaultyUser first(u, opt);
  FaultyUser second(u, opt);
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    Vec a = rng.SimplexUniform(2);
    Vec b = rng.SimplexUniform(2);
    EXPECT_EQ(first.Ask(a, b), second.Ask(a, b));
  }
  EXPECT_EQ(first.flips(), second.flips());
  EXPECT_EQ(first.no_answers(), second.no_answers());
  EXPECT_GT(first.flips() + first.no_answers(), 0u);
}

TEST(FaultyUserTest, NoAnswerRateProducesTimeoutsOnlyViaAsk) {
  FaultyUserOptions opt;
  opt.no_answer_rate = 0.5;
  opt.seed = 3;
  FaultyUser user(Vec{0.4, 0.6}, opt);
  size_t timeouts = 0;
  for (int i = 0; i < 200; ++i) {
    if (user.Ask(Vec{1.0, 0.0}, Vec{0.0, 1.0}) == Answer::kNoAnswer) {
      ++timeouts;
    }
  }
  EXPECT_GT(timeouts, 50u);
  EXPECT_LT(timeouts, 150u);
  EXPECT_EQ(user.no_answers(), timeouts);
  // Prefers() must always produce a bool — timeouts disabled.
  for (int i = 0; i < 50; ++i) {
    user.Prefers(Vec{1.0, 0.0}, Vec{0.0, 1.0});
  }
  EXPECT_EQ(user.no_answers(), timeouts);
}

TEST(FaultyUserTest, BoundaryBandFlipsNearTiesDeterministically) {
  FaultyUserOptions opt;
  opt.boundary_band = 0.05;
  FaultyUser user(Vec{0.8, 0.2}, opt);
  // Near-tie (|Δu| = 0.012, within 5% of the larger utility 0.512): the
  // adversarial band flips the true answer kSecond into kFirst.
  EXPECT_EQ(user.Ask(Vec{0.5, 0.5}, Vec{0.52, 0.48}), Answer::kFirst);
  EXPECT_EQ(user.boundary_flips(), 1u);
  // Far from the boundary (|Δu| = 0.6): answered honestly.
  EXPECT_EQ(user.Ask(Vec{1.0, 0.0}, Vec{0.0, 1.0}), Answer::kFirst);
  EXPECT_EQ(user.boundary_flips(), 1u);
}

// ----------------------------------------------- 200-session survival: EA

TEST(FaultToleranceTest, EaSurvives200SessionsAgainstFlippingUser) {
  Dataset sky = SmallSkyline(300, 3, 21);
  EaOptions opt;
  opt.epsilon = 0.1;
  opt.dqn = FastDqn();
  Ea ea(sky, opt);

  RunBudget budget;
  budget.max_rounds = 60;

  size_t total_flips = 0;
  Rng urng(22);
  for (int session = 0; session < 200; ++session) {
    FaultyUserOptions fopt;
    fopt.flip_rate = 0.2;
    fopt.seed = 1000 + static_cast<uint64_t>(session);
    FaultyUser user(urng.SimplexUniform(3), fopt);
    InteractionResult r = ea.Interact(user, budget);
    ASSERT_TRUE(IsAcceptableTermination(r.termination))
        << "session " << session << " ended " << static_cast<int>(r.termination)
        << ": " << r.status.ToString();
    ASSERT_LT(r.best_index, sky.size());
    EXPECT_LE(r.rounds, budget.max_rounds);
    EXPECT_EQ(r.converged, r.termination == Termination::kConverged);
    total_flips += user.flips();
  }
  // The fault model must actually have been active; the engine absorbs the
  // flips (a wrong answer still cuts the region consistently — see
  // ConflictingGeometryDropsTheMostRecentAnswers for a forced contradiction).
  EXPECT_GT(total_flips, 100u);
}

// ----------------------------------------------- 200-session survival: AA

TEST(FaultToleranceTest, AaSurvives200SessionsAgainstFlippingUser) {
  Dataset sky = SmallSkyline(300, 3, 31);
  AaOptions opt;
  opt.epsilon = 0.15;
  opt.dqn = FastDqn();
  Aa aa(sky, opt);

  RunBudget budget;
  budget.max_rounds = 40;

  size_t total_flips = 0;
  Rng urng(32);
  for (int session = 0; session < 200; ++session) {
    FaultyUserOptions fopt;
    fopt.flip_rate = 0.2;
    fopt.seed = 2000 + static_cast<uint64_t>(session);
    FaultyUser user(urng.SimplexUniform(3), fopt);
    InteractionResult r = aa.Interact(user, budget);
    ASSERT_TRUE(IsAcceptableTermination(r.termination))
        << "session " << session << " ended " << static_cast<int>(r.termination)
        << ": " << r.status.ToString();
    ASSERT_LT(r.best_index, sky.size());
    EXPECT_LE(r.rounds, budget.max_rounds);
    total_flips += user.flips();
  }
  EXPECT_GT(total_flips, 100u);  // the fault model really was active
}

// ------------------------------------------------- full fault model sweep

TEST(FaultToleranceTest, FullFaultModelWithTimeoutsAndBoundaryFlips) {
  Dataset sky = SmallSkyline(200, 3, 41);
  EaOptions eopt;
  eopt.epsilon = 0.1;
  eopt.dqn = FastDqn();
  Ea ea(sky, eopt);

  RunBudget budget;
  budget.max_rounds = 50;

  size_t total_no_answers = 0;
  Rng urng(42);
  for (int session = 0; session < 40; ++session) {
    FaultyUserOptions fopt;
    fopt.flip_rate = 0.1;
    fopt.no_answer_rate = 0.2;
    fopt.boundary_band = 0.02;
    fopt.seed = 3000 + static_cast<uint64_t>(session);
    FaultyUser user(urng.SimplexUniform(3), fopt);
    InteractionResult r = ea.Interact(user, budget);
    ASSERT_TRUE(IsAcceptableTermination(r.termination));
    ASSERT_LT(r.best_index, sky.size());
    total_no_answers += r.no_answers;
  }
  // 20% timeout rate across 40 sessions must exercise the no-answer path.
  EXPECT_GT(total_no_answers, 0u);
}

// ------------------------------------------------------ LP fault injection

TEST(FaultToleranceTest, AaSurvivesInjectedLpFailures) {
  Dataset sky = SmallSkyline(150, 3, 51);
  AaOptions opt;
  opt.epsilon = 0.15;
  opt.dqn = FastDqn();
  Aa aa(sky, opt);

  RunBudget budget;
  budget.max_rounds = 30;

  // Fail the first two LP attempts: the recovery ladder's third (perturbed)
  // attempt rescues the very first geometry solve and the session proceeds.
  lp::FailingLpHook hook(2);
  LinearUser user(Vec{0.2, 0.3, 0.5});
  InteractionResult r = aa.Interact(user, budget);
  EXPECT_TRUE(IsAcceptableTermination(r.termination))
      << static_cast<int>(r.termination) << ": " << r.status.ToString();
  ASSERT_LT(r.best_index, sky.size());
  EXPECT_EQ(hook.failures_injected(), 2u);
  EXPECT_GT(hook.attempts_seen(), 2u);  // recovery retried and moved on
}

TEST(FaultToleranceTest, AbortsGracefullyWhenLpNeverRecovers) {
  // Every LP attempt fails: AA cannot compute any geometry, even on an empty
  // half-space set. The session must end kAborted with a non-OK status and a
  // fallback recommendation — never a process death.
  Dataset sky = SmallSkyline(150, 3, 52);
  AaOptions opt;
  opt.epsilon = 0.15;
  opt.dqn = FastDqn();
  Aa aa(sky, opt);

  RunBudget budget;
  budget.max_rounds = 10;

  lp::FailingLpHook hook(1000000);
  LinearUser user(Vec{0.2, 0.3, 0.5});
  InteractionResult r = aa.Interact(user, budget);
  EXPECT_EQ(r.termination, Termination::kAborted);
  EXPECT_FALSE(r.status.ok());
  EXPECT_FALSE(r.converged);
  ASSERT_LT(r.best_index, sky.size());
}

TEST(FaultToleranceTest, FamilySolverRetriesThroughInjectedFailures) {
  // A family member whose first attempt is killed by the hook must climb the
  // same escalation ladder as SolveWithRecovery and still land on a correct
  // optimum; later members keep using the rung caches.
  lp::SimplexOptions options;
  lp::RetryOptions retry;
  lp::FamilySolver family(options, retry);
  std::vector<Vec> normals{Vec{0.3, -0.2, 0.1}, Vec{-0.1, 0.4, -0.2}};
  auto member = [&](size_t coord, bool maximize) {
    lp::Model m;
    for (size_t i = 0; i < 3; ++i) m.AddVariable(i == coord ? 1.0 : 0.0);
    m.SetSense(maximize ? lp::Sense::kMaximize : lp::Sense::kMinimize);
    m.AddConstraint(Vec(3, 1.0), lp::Relation::kEq, 1.0);
    for (const Vec& n : normals) m.AddConstraint(n, lp::Relation::kGe, 0.0);
    return m;
  };

  lp::SolveResult reference = lp::SolveWithRecovery(member(0, true));
  ASSERT_TRUE(reference.ok());

  lp::FailingLpHook hook(1);
  lp::SolveResult faulted = family.Solve(member(0, true));
  ASSERT_TRUE(faulted.ok()) << faulted.status.ToString();
  EXPECT_TRUE(faulted.diagnostics.injected_fault);
  EXPECT_EQ(faulted.diagnostics.attempts, 2u);
  // The rescue rung runs with Bland-from-start pricing, so only the optimum
  // value (unique here) is comparable, not the pivot path.
  EXPECT_NEAR(faulted.objective, reference.objective, 1e-9);

  // Subsequent members pass the (now exhausted) hook and solve normally,
  // bit-identical to their own cold solves.
  for (size_t coord = 1; coord < 3; ++coord) {
    lp::SolveResult shared = family.Solve(member(coord, false));
    lp::SolveResult cold = lp::SolveWithRecovery(member(coord, false));
    ASSERT_TRUE(shared.ok());
    EXPECT_EQ(shared.objective, cold.objective);
    for (size_t c = 0; c < shared.x.dim(); ++c) {
      EXPECT_EQ(shared.x[c], cold.x[c]);
    }
  }
}

TEST(FaultToleranceTest, ConflictingGeometryDropsTheMostRecentAnswers) {
  // EA/AA only ask questions that split the current feasible region, so a
  // flipped answer yields a wrong-but-consistent cut — natural noise almost
  // never empties the region. Force the contradiction instead: poison AA's
  // inner-sphere LP exactly when the learned half-space set reaches size 3
  // (that model has d+1 variables and 1 + 3 + d constraints). Every third
  // answer turns the geometry infeasible, AA drops the most recent suffix,
  // and the session continues on the surviving prefix.
  constexpr size_t kD = 3;
  constexpr size_t kPoisonedSize = 3;
  Dataset sky = SmallSkyline(150, kD, 53);
  AaOptions opt;
  opt.epsilon = 0.15;
  opt.dqn = FastDqn();
  Aa aa(sky, opt);

  lp::SetLpFaultHookForTest([](const lp::Model& model, size_t) {
    if (model.num_variables() == kD + 1 &&
        model.num_constraints() == 1 + kPoisonedSize + kD) {
      return Status::Internal("injected: geometry poisoned");
    }
    return Status::Ok();
  });
  RunBudget budget;
  budget.max_rounds = 12;
  LinearUser user(Vec{0.2, 0.3, 0.5});
  InteractionResult r = aa.Interact(user, budget);
  lp::SetLpFaultHookForTest(nullptr);

  EXPECT_GT(r.dropped_answers, 0u);
  EXPECT_TRUE(r.termination == Termination::kDegraded ||
              r.termination == Termination::kBudgetExhausted)
      << static_cast<int>(r.termination) << ": " << r.status.ToString();
  ASSERT_LT(r.best_index, sky.size());
}

// ----------------------------------------------------------------- budgets

TEST(FaultToleranceTest, RoundBudgetCapsTheSessionWithBestSoFar) {
  Dataset sky = SmallSkyline(400, 4, 61);
  EaOptions opt;
  opt.epsilon = 0.01;  // tight epsilon: needs many rounds
  opt.dqn = FastDqn();
  Ea ea(sky, opt);

  RunBudget budget;
  budget.max_rounds = 2;
  LinearUser user(Vec{0.1, 0.2, 0.3, 0.4});
  InteractionResult r = ea.Interact(user, budget);
  EXPECT_LE(r.rounds, 2u);
  ASSERT_LT(r.best_index, sky.size());
  // Either the tiny cap fired, or the session genuinely finished in ≤ 2
  // rounds (possible on lucky data); both must be coherent.
  if (!r.converged) {
    EXPECT_EQ(r.termination, Termination::kBudgetExhausted);
  }
}

TEST(FaultToleranceTest, ExpiredDeadlineReturnsImmediatelyWithValidIndex) {
  Dataset sky = SmallSkyline(200, 3, 71);
  EaOptions eopt;
  eopt.epsilon = 0.1;
  eopt.dqn = FastDqn();
  Ea ea(sky, eopt);
  AaOptions aopt;
  aopt.epsilon = 0.15;
  aopt.dqn = FastDqn();
  Aa aa(sky, aopt);

  RunBudget budget;
  budget.max_seconds = 1e-9;  // expires before the first round
  LinearUser user(Vec{0.2, 0.3, 0.5});
  for (InteractiveAlgorithm* algo :
       std::initializer_list<InteractiveAlgorithm*>{&ea, &aa}) {
    InteractionResult r = algo->Interact(user, budget);
    EXPECT_EQ(r.termination, Termination::kBudgetExhausted)
        << algo->name() << " ended " << static_cast<int>(r.termination);
    EXPECT_EQ(r.rounds, 0u);
    ASSERT_LT(r.best_index, sky.size());
  }
}

TEST(FaultToleranceTest, LpIterationBudgetIsHonoured) {
  // A tiny per-solve LP iteration budget must not crash AA — the recovery
  // ladder retries and, if the budget is truly impossible, the session
  // degrades or aborts gracefully (no process death).
  Dataset sky = SmallSkyline(150, 3, 81);
  AaOptions opt;
  opt.epsilon = 0.15;
  opt.dqn = FastDqn();
  Aa aa(sky, opt);

  RunBudget budget;
  budget.max_rounds = 10;
  budget.max_lp_iterations = 6;
  LinearUser user(Vec{0.25, 0.35, 0.4});
  InteractionResult r = aa.Interact(user, budget);
  ASSERT_LT(r.best_index, sky.size());  // a recommendation either way
}

// ------------------------------------------------------- baselines survive

TEST(FaultToleranceTest, BaselinesSurviveFaultyUsers) {
  Dataset sky = SmallSkyline(200, 3, 91);
  UhOptions uopt;
  uopt.epsilon = 0.1;
  uopt.seed = 92;
  UhRandom uh(sky, uopt);
  SinglePassOptions spopt;
  spopt.epsilon = 0.15;
  spopt.seed = 93;
  SinglePass sp(sky, spopt);
  UtilityApproxOptions uaopt;
  uaopt.epsilon = 0.15;
  UtilityApprox ua(sky, uaopt);

  RunBudget budget;
  budget.max_rounds = 80;

  Rng urng(94);
  for (InteractiveAlgorithm* algo :
       std::initializer_list<InteractiveAlgorithm*>{&uh, &sp, &ua}) {
    for (int session = 0; session < 25; ++session) {
      FaultyUserOptions fopt;
      fopt.flip_rate = 0.2;
      fopt.no_answer_rate = 0.1;
      fopt.seed = 4000 + static_cast<uint64_t>(session);
      FaultyUser user(urng.SimplexUniform(3), fopt);
      InteractionResult r = algo->Interact(user, budget);
      ASSERT_TRUE(IsAcceptableTermination(r.termination))
          << algo->name() << " session " << session << " ended "
          << static_cast<int>(r.termination);
      ASSERT_LT(r.best_index, sky.size());
      EXPECT_LE(r.rounds, budget.max_rounds);
    }
  }
}

// ------------------------------------------------------ session aggregation

TEST(FaultToleranceTest, EvaluateAggregatesFailureOutcomes) {
  Dataset sky = SmallSkyline(200, 3, 101);
  EaOptions opt;
  opt.epsilon = 0.1;
  opt.dqn = FastDqn();
  Ea ea(sky, opt);

  Rng urng(102);
  std::vector<Vec> utilities;
  for (int i = 0; i < 30; ++i) utilities.push_back(urng.SimplexUniform(3));

  FaultyUserOptions fopt;
  fopt.flip_rate = 0.25;
  fopt.seed = 103;
  RunBudget budget;
  budget.max_rounds = 50;
  EvalStats stats =
      Evaluate(ea, sky, utilities, 0.1, MakeFaultyUserFactory(fopt), budget);

  EXPECT_EQ(stats.episodes, utilities.size());
  EXPECT_EQ(stats.aborted, 0u);
  const double outcome_sum = stats.frac_converged + stats.frac_degraded +
                             stats.frac_budget_exhausted;
  EXPECT_NEAR(outcome_sum, 1.0, 1e-9);
  EXPECT_GT(stats.mean_rounds, 0.0);
  // Flipped answers steer the search to wrong-but-consistent regions, so the
  // scars show up as regret rather than degradation; the aggregates must
  // still be internally coherent.
  EXPECT_GE(stats.mean_dropped_answers, 0.0);
  EXPECT_GE(stats.mean_no_answers, 0.0);
}

TEST(FaultToleranceTest, TrajectoryEvaluationCountsTerminations) {
  Dataset sky = SmallSkyline(150, 3, 111);
  EaOptions opt;
  opt.epsilon = 0.1;
  opt.dqn = FastDqn();
  Ea ea(sky, opt);

  Rng urng(112);
  std::vector<Vec> utilities;
  for (int i = 0; i < 10; ++i) utilities.push_back(urng.SimplexUniform(3));

  RunBudget budget;
  budget.max_rounds = 40;
  FaultyUserOptions fopt;
  fopt.flip_rate = 0.2;
  fopt.seed = 113;
  TraceSummary summary =
      EvaluateTrajectory(ea, sky, utilities, 20, 114,
                         MakeFaultyUserFactory(fopt), budget);
  EXPECT_EQ(summary.users, utilities.size());
  EXPECT_EQ(summary.aborted, 0u);
  EXPECT_LE(summary.degraded + summary.budget_exhausted, summary.users);
}

// ------------------------------------------------ deterministic replay

TEST(FaultToleranceTest, FaultySessionsAreReproducible) {
  Dataset sky = SmallSkyline(150, 3, 121);
  RunBudget budget;
  budget.max_rounds = 40;

  auto run_once = [&]() {
    EaOptions opt;
    opt.epsilon = 0.1;
    opt.dqn = FastDqn();
    opt.seed = 122;
    Ea ea(sky, opt);
    FaultyUserOptions fopt;
    fopt.flip_rate = 0.2;
    fopt.no_answer_rate = 0.1;
    fopt.seed = 123;
    FaultyUser user(Vec{0.2, 0.3, 0.5}, fopt);
    return ea.Interact(user, budget);
  };
  InteractionResult a = run_once();
  InteractionResult b = run_once();
  EXPECT_EQ(a.best_index, b.best_index);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.termination, b.termination);
  EXPECT_EQ(a.dropped_answers, b.dropped_answers);
  EXPECT_EQ(a.no_answers, b.no_answers);
}

}  // namespace
}  // namespace isrl
