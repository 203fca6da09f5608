// Step-API equivalence suite (DESIGN.md §13): for every algorithm, an
// externally stepped InteractionSession must yield a bit-identical
// InteractionResult — and identical trace vectors — to the blocking
// Interact() driver, under honest users, faulty users (flips, kNoAnswer
// timeouts), and exhausted budgets. Plus SessionScheduler: N coalesced
// sessions equal N sequential Interact() calls, answer-order independent.
#include <algorithm>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/single_pass.h"
#include "baselines/uh_random.h"
#include "baselines/uh_simplex.h"
#include "baselines/utility_approx.h"
#include "common/budget.h"
#include "common/rng.h"
#include "core/aa.h"
#include "core/ea.h"
#include "core/scheduler.h"
#include "core/session.h"
#include "data/skyline.h"
#include "data/synthetic.h"
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

// Everything in an InteractionResult except `seconds` (wall clock).
void ExpectSameResult(const InteractionResult& a, const InteractionResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.best_index, b.best_index) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.converged, b.converged) << label;
  EXPECT_EQ(a.termination, b.termination) << label;
  EXPECT_EQ(a.dropped_answers, b.dropped_answers) << label;
  EXPECT_EQ(a.no_answers, b.no_answers) << label;
  EXPECT_EQ(a.status.ok(), b.status.ok()) << label;
}

// Drives a session by hand, exactly as an asynchronous caller would —
// checking along the way that NextQuestion() is idempotent (a second call
// returns the same question without advancing the state machine).
InteractionResult StepByHand(InteractiveAlgorithm& algo, UserOracle& user,
                             const RunBudget& budget,
                             InteractionTrace* trace = nullptr) {
  SessionConfig config;
  config.budget = budget;
  config.trace = trace;
  std::unique_ptr<InteractionSession> session = algo.StartSession(config);
  while (true) {
    std::optional<SessionQuestion> q = session->NextQuestion();
    if (!q.has_value()) break;
    std::optional<SessionQuestion> again = session->NextQuestion();
    EXPECT_TRUE(again.has_value()) << "NextQuestion not idempotent";
    if (again.has_value()) {
      EXPECT_EQ(q->pair.i, again->pair.i);
      EXPECT_EQ(q->pair.j, again->pair.j);
      EXPECT_EQ(q->synthetic, again->synthetic);
    }
    EXPECT_FALSE(session->Finished());
    session->PostAnswer(user.Ask(q->first, q->second));
  }
  EXPECT_TRUE(session->Finished());
  InteractionResult result = session->Finish();
  result.converged = result.termination == Termination::kConverged;
  return result;
}

// The five-algorithm roster every equivalence test loops over.
struct Roster {
  Dataset sky;
  Ea ea;
  Aa aa;
  UhRandom uh_random;
  UhSimplex uh_simplex;
  SinglePass single_pass;
  UtilityApprox utility_approx;

  explicit Roster(Dataset dataset)
      : sky(std::move(dataset)),
        ea(sky, EaOpt()),
        aa(sky, AaOpt()),
        uh_random(sky, UhOpt()),
        uh_simplex(sky, UhOpt()),
        single_pass(sky, SpOpt()),
        utility_approx(sky, UaOpt()) {}

  std::vector<InteractiveAlgorithm*> all() {
    return {&ea, &aa, &uh_random, &uh_simplex, &single_pass, &utility_approx};
  }

  static EaOptions EaOpt() {
    EaOptions o;
    o.epsilon = 0.1;
    o.dqn = FastDqn();
    return o;
  }
  static AaOptions AaOpt() {
    AaOptions o;
    o.epsilon = 0.15;
    o.dqn = FastDqn();
    return o;
  }
  static UhOptions UhOpt() {
    UhOptions o;
    o.epsilon = 0.1;
    return o;
  }
  static SinglePassOptions SpOpt() {
    SinglePassOptions o;
    o.epsilon = 0.1;
    return o;
  }
  static UtilityApproxOptions UaOpt() {
    UtilityApproxOptions o;
    o.epsilon = 0.1;
    return o;
  }
};

// ------------------------------------------- stepped == blocking, honest

TEST(SessionEquivalenceTest, SteppedEqualsBlockingForEveryAlgorithm) {
  Roster roster(SmallSkyline(250, 3, 11));
  RunBudget budget;
  budget.max_rounds = 50;
  Rng urng(12);
  for (int trial = 0; trial < 4; ++trial) {
    const Vec u = urng.SimplexUniform(3);
    for (InteractiveAlgorithm* algo : roster.all()) {
      const uint64_t seed = 100 + static_cast<uint64_t>(trial);
      algo->Reseed(seed);
      LinearUser blocking_user(u);
      InteractionResult blocking = algo->Interact(blocking_user, budget);

      algo->Reseed(seed);
      LinearUser stepped_user(u);
      InteractionResult stepped = StepByHand(*algo, stepped_user, budget);
      ExpectSameResult(blocking, stepped, algo->name());
    }
  }
}

// ------------------------------------ stepped == blocking, faulty oracles

TEST(SessionEquivalenceTest, SteppedEqualsBlockingUnderFaultyUsers) {
  Roster roster(SmallSkyline(250, 3, 21));
  RunBudget budget;
  budget.max_rounds = 40;
  Rng urng(22);
  for (int trial = 0; trial < 4; ++trial) {
    const Vec u = urng.SimplexUniform(3);
    FaultyUserOptions fopt;
    fopt.flip_rate = 0.2;
    fopt.no_answer_rate = 0.15;  // exercises the kNoAnswer paths
    fopt.seed = 300 + static_cast<uint64_t>(trial);
    for (InteractiveAlgorithm* algo : roster.all()) {
      const uint64_t seed = 400 + static_cast<uint64_t>(trial);
      algo->Reseed(seed);
      FaultyUser blocking_user(u, fopt);
      InteractionResult blocking = algo->Interact(blocking_user, budget);

      algo->Reseed(seed);
      FaultyUser stepped_user(u, fopt);  // same fault stream, fresh state
      InteractionResult stepped = StepByHand(*algo, stepped_user, budget);
      ExpectSameResult(blocking, stepped, algo->name());
      EXPECT_EQ(blocking_user.flips(), stepped_user.flips()) << algo->name();
    }
  }
}

// --------------------------------------- stepped == blocking, tiny budgets

TEST(SessionEquivalenceTest, SteppedEqualsBlockingUnderExhaustedBudgets) {
  Roster roster(SmallSkyline(300, 4, 31));
  Rng urng(32);
  const Vec u = urng.SimplexUniform(4);
  // 0 is RunBudget's "unset" sentinel: the algorithm's own cap applies.
  for (size_t max_rounds : {0u, 1u, 3u}) {
    RunBudget budget;
    budget.max_rounds = max_rounds;
    for (InteractiveAlgorithm* algo : roster.all()) {
      algo->Reseed(7);
      LinearUser blocking_user(u);
      InteractionResult blocking = algo->Interact(blocking_user, budget);

      algo->Reseed(7);
      LinearUser stepped_user(u);
      InteractionResult stepped = StepByHand(*algo, stepped_user, budget);
      ExpectSameResult(blocking, stepped, algo->name());
      if (max_rounds > 0) {
        EXPECT_LE(stepped.rounds, max_rounds) << algo->name();
      }
      ASSERT_LT(stepped.best_index, roster.sky.size()) << algo->name();
    }
  }
}

// ------------------------------------------------- trace vectors identical

TEST(SessionEquivalenceTest, TraceVectorsMatchBetweenSteppedAndBlocking) {
  Roster roster(SmallSkyline(250, 3, 41));
  RunBudget budget;
  budget.max_rounds = 30;
  Rng urng(42);
  const Vec u = urng.SimplexUniform(3);
  for (InteractiveAlgorithm* algo : roster.all()) {
    algo->Reseed(9);
    Rng blocking_rng(77);
    InteractionTrace blocking_trace(&roster.sky, 16, &blocking_rng);
    LinearUser blocking_user(u);
    InteractionResult blocking =
        algo->Interact(blocking_user, budget, &blocking_trace);

    algo->Reseed(9);
    Rng stepped_rng(77);
    InteractionTrace stepped_trace(&roster.sky, 16, &stepped_rng);
    LinearUser stepped_user(u);
    InteractionResult stepped =
        StepByHand(*algo, stepped_user, budget, &stepped_trace);

    ExpectSameResult(blocking, stepped, algo->name());
    EXPECT_EQ(blocking_trace.max_regret(), stepped_trace.max_regret())
        << algo->name();
    EXPECT_EQ(blocking_trace.best_index(), stepped_trace.best_index())
        << algo->name();
    EXPECT_EQ(blocking_trace.rounds(), stepped_trace.rounds())
        << algo->name();
  }
}

// ------------------------------------------- seeded sessions == Reseed()

// A session with SessionConfig::seed owns a private Rng(seed) — by
// construction the same generator state Reseed(seed) gives the member Rng,
// so the two paths are bit-identical. This is what lets the scheduler run
// many sessions of one algorithm instance concurrently.
TEST(SessionEquivalenceTest, SeededSessionMatchesReseededBlockingRun) {
  Roster roster(SmallSkyline(250, 3, 51));
  RunBudget budget;
  budget.max_rounds = 40;
  Rng urng(52);
  const Vec u = urng.SimplexUniform(3);
  for (InteractiveAlgorithm* algo : roster.all()) {
    const uint64_t seed = 0xABCDu;
    algo->Reseed(seed);
    LinearUser blocking_user(u);
    InteractionResult blocking = algo->Interact(blocking_user, budget);

    algo->Reseed(999);  // clobber the member Rng: the session must not use it
    SessionConfig config;
    config.budget = budget;
    config.seed = seed;
    std::unique_ptr<InteractionSession> session = algo->StartSession(config);
    LinearUser stepped_user(u);
    while (std::optional<SessionQuestion> q = session->NextQuestion()) {
      session->PostAnswer(stepped_user.Ask(q->first, q->second));
    }
    InteractionResult stepped = session->Finish();
    stepped.converged = stepped.termination == Termination::kConverged;
    ExpectSameResult(blocking, stepped, algo->name());
  }
}

// ------------------------------------------------------------------ Cancel

TEST(SessionTest, CancelFinishesWithBestSoFar) {
  Roster roster(SmallSkyline(250, 3, 61));
  RunBudget budget;
  budget.max_rounds = 50;
  for (InteractiveAlgorithm* algo : roster.all()) {
    algo->Reseed(3);
    SessionConfig config;
    config.budget = budget;
    std::unique_ptr<InteractionSession> session = algo->StartSession(config);
    std::optional<SessionQuestion> q = session->NextQuestion();
    if (q.has_value()) {  // tiny datasets may resolve instantly
      session->Cancel();
    }
    EXPECT_TRUE(session->Finished()) << algo->name();
    EXPECT_FALSE(session->NextQuestion().has_value()) << algo->name();
    InteractionResult r = session->Finish();
    ASSERT_LT(r.best_index, roster.sky.size()) << algo->name();
    EXPECT_NE(r.termination, Termination::kConverged) << algo->name();
  }
}

// ------------------------------------------------ scheduler == sequential

TEST(SchedulerTest, CoalescedSessionsMatchSequentialInteract) {
  Roster roster(SmallSkyline(250, 3, 71));
  RunBudget budget;
  budget.max_rounds = 40;
  const size_t kSessions = 8;
  const uint64_t master = 0x5EEDu;
  Rng urng(72);
  std::vector<Vec> utilities;
  for (size_t i = 0; i < kSessions; ++i) {
    utilities.push_back(urng.SimplexUniform(3));
  }

  for (InteractiveAlgorithm* algo : roster.all()) {
    // Sequential reference: the established Evaluate() discipline.
    std::vector<InteractionResult> sequential;
    for (size_t i = 0; i < kSessions; ++i) {
      algo->Reseed(SplitSeed(master, i));
      LinearUser user(utilities[i]);
      sequential.push_back(algo->Interact(user, budget));
    }

    // Scheduler: all sessions in flight at once, scoring coalesced.
    SessionScheduler scheduler;
    std::vector<std::unique_ptr<UserOracle>> owned_users;
    std::vector<UserOracle*> users;
    for (size_t i = 0; i < kSessions; ++i) {
      SessionConfig config;
      config.budget = budget;
      config.seed = SplitSeed(master, i);
      scheduler.Add(algo->StartSession(config));
      owned_users.push_back(std::make_unique<LinearUser>(utilities[i]));
      users.push_back(owned_users.back().get());
    }
    std::vector<InteractionResult> batched =
        DriveWithUsers(scheduler, users);

    ASSERT_EQ(batched.size(), kSessions);
    for (size_t i = 0; i < kSessions; ++i) {
      ExpectSameResult(sequential[i], batched[i],
                       algo->name() + " session " + std::to_string(i));
    }
  }
}

TEST(SchedulerTest, CoalescedSessionsMatchSequentialUnderFaultyUsers) {
  Roster roster(SmallSkyline(250, 3, 81));
  RunBudget budget;
  budget.max_rounds = 30;
  const size_t kSessions = 8;
  const uint64_t master = 0xFAB5u;
  Rng urng(82);
  std::vector<Vec> utilities;
  for (size_t i = 0; i < kSessions; ++i) {
    utilities.push_back(urng.SimplexUniform(3));
  }
  auto fopt_for = [](size_t i) {
    FaultyUserOptions fopt;
    fopt.flip_rate = 0.15;
    fopt.no_answer_rate = 0.1;
    fopt.seed = 500 + static_cast<uint64_t>(i);
    return fopt;
  };

  for (InteractiveAlgorithm* algo :
       std::initializer_list<InteractiveAlgorithm*>{&roster.ea, &roster.aa}) {
    std::vector<InteractionResult> sequential;
    for (size_t i = 0; i < kSessions; ++i) {
      algo->Reseed(SplitSeed(master, i));
      FaultyUser user(utilities[i], fopt_for(i));
      sequential.push_back(algo->Interact(user, budget));
    }

    SessionScheduler scheduler;
    std::vector<std::unique_ptr<UserOracle>> owned_users;
    std::vector<UserOracle*> users;
    for (size_t i = 0; i < kSessions; ++i) {
      SessionConfig config;
      config.budget = budget;
      config.seed = SplitSeed(master, i);
      scheduler.Add(algo->StartSession(config));
      owned_users.push_back(
          std::make_unique<FaultyUser>(utilities[i], fopt_for(i)));
      users.push_back(owned_users.back().get());
    }
    std::vector<InteractionResult> batched =
        DriveWithUsers(scheduler, users);

    for (size_t i = 0; i < kSessions; ++i) {
      ExpectSameResult(sequential[i], batched[i],
                       algo->name() + " session " + std::to_string(i));
    }
  }
}

// Answer arrival order must not change any session's outcome: deliver the
// tick's answers in reverse order and compare against DriveWithUsers.
TEST(SchedulerTest, AnswerOrderWithinATickDoesNotChangeResults) {
  Roster roster(SmallSkyline(250, 3, 91));
  RunBudget budget;
  budget.max_rounds = 30;
  const size_t kSessions = 6;
  const uint64_t master = 0x0DDu;
  Rng urng(92);
  std::vector<Vec> utilities;
  for (size_t i = 0; i < kSessions; ++i) {
    utilities.push_back(urng.SimplexUniform(3));
  }

  auto run = [&](bool reverse) {
    SessionScheduler scheduler;
    std::vector<std::unique_ptr<UserOracle>> users;
    for (size_t i = 0; i < kSessions; ++i) {
      SessionConfig config;
      config.budget = budget;
      config.seed = SplitSeed(master, i);
      scheduler.Add(roster.ea.StartSession(config));
      users.push_back(std::make_unique<LinearUser>(utilities[i]));
    }
    while (scheduler.active() > 0) {
      std::vector<PendingQuestion> pending = scheduler.Tick();
      if (reverse) std::reverse(pending.begin(), pending.end());
      for (const PendingQuestion& pq : pending) {
        scheduler.PostAnswer(pq.session_id,
                             users[pq.session_id]->Ask(pq.question.first,
                                                       pq.question.second));
      }
    }
    std::vector<InteractionResult> results;
    for (size_t i = 0; i < kSessions; ++i) results.push_back(scheduler.Take(i));
    return results;
  };

  std::vector<InteractionResult> forward = run(false);
  std::vector<InteractionResult> backward = run(true);
  for (size_t i = 0; i < kSessions; ++i) {
    ExpectSameResult(forward[i], backward[i],
                     "session " + std::to_string(i));
  }
}

TEST(SchedulerTest, CancelMidFlightAndMixedAlgorithms) {
  Roster roster(SmallSkyline(250, 3, 101));
  RunBudget budget;
  budget.max_rounds = 40;
  SessionScheduler scheduler;
  std::vector<std::unique_ptr<UserOracle>> users;
  Rng urng(102);
  std::vector<InteractiveAlgorithm*> algos = roster.all();
  for (size_t i = 0; i < algos.size(); ++i) {
    SessionConfig config;
    config.budget = budget;
    config.seed = SplitSeed(0xCAFEu, i);
    scheduler.Add(algos[i]->StartSession(config));
    users.push_back(std::make_unique<LinearUser>(urng.SimplexUniform(3)));
  }

  size_t ticks = 0;
  while (scheduler.active() > 0) {
    std::vector<PendingQuestion> pending = scheduler.Tick();
    ++ticks;
    for (const PendingQuestion& pq : pending) {
      if (ticks == 2 && pq.session_id == 0) {
        // User 0 walks away mid-episode.
        ASSERT_TRUE(scheduler.TryCancel(pq.session_id).ok());
        continue;
      }
      scheduler.PostAnswer(pq.session_id,
                           users[pq.session_id]->Ask(pq.question.first,
                                                     pq.question.second));
    }
  }
  for (size_t i = 0; i < algos.size(); ++i) {
    EXPECT_TRUE(scheduler.finished(i));
    InteractionResult r = scheduler.Take(i);
    ASSERT_LT(r.best_index, roster.sky.size()) << algos[i]->name();
  }
}

// One seeded session of every algorithm, plus its user.
struct Population {
  SessionScheduler scheduler;
  std::vector<std::unique_ptr<UserOracle>> owned;
  std::vector<UserOracle*> users;

  Population(Roster& roster, const RunBudget& budget, uint64_t master) {
    Rng urng(master);
    std::vector<InteractiveAlgorithm*> algos = roster.all();
    for (size_t i = 0; i < algos.size(); ++i) {
      SessionConfig config;
      config.budget = budget;
      config.seed = SplitSeed(master, i);
      scheduler.Add(algos[i]->StartSession(config));
      owned.push_back(std::make_unique<LinearUser>(urng.SimplexUniform(3)));
      users.push_back(owned.back().get());
    }
  }

  void Answer(const PendingQuestion& pq) {
    scheduler.PostAnswer(pq.session_id, users[pq.session_id]->Ask(
                                            pq.question.first,
                                            pq.question.second));
  }
};

bool SameQuestion(const SessionQuestion& a, const SessionQuestion& b) {
  return a.first == b.first && a.second == b.second && a.pair.i == b.pair.i &&
         a.pair.j == b.pair.j && a.synthetic == b.synthetic;
}

// A tick asks each question once: a second Tick() with no answer posted
// returns nothing, and InFlight() is the one call that repeats the
// outstanding questions — in id order, whatever subset was answered.
TEST(SchedulerTest, TickAsksOnceAndInFlightRepeatsTheOutstandingQuestions) {
  Roster roster(SmallSkyline(250, 3, 111));
  RunBudget budget;
  budget.max_rounds = 30;
  const uint64_t master = 0x1F1u;
  Population reference(roster, budget, master);
  std::vector<InteractionResult> expected =
      DriveWithUsers(reference.scheduler, reference.users);

  Population pop(roster, budget, master);
  EXPECT_TRUE(pop.scheduler.InFlight().empty());  // nothing asked yet
  const std::vector<PendingQuestion> asked = pop.scheduler.Tick();
  ASSERT_EQ(asked.size(), pop.scheduler.size());
  const size_t active = pop.scheduler.active();
  EXPECT_TRUE(pop.scheduler.Tick().empty());
  EXPECT_TRUE(pop.scheduler.Tick().empty());
  EXPECT_EQ(pop.scheduler.active(), active);

  std::vector<PendingQuestion> again = pop.scheduler.InFlight();
  ASSERT_EQ(again.size(), asked.size());
  for (size_t k = 0; k < asked.size(); ++k) {
    EXPECT_EQ(again[k].session_id, k);
    EXPECT_EQ(asked[k].session_id, k);
    EXPECT_TRUE(SameQuestion(again[k].question, asked[k].question)) << k;
  }

  // Answer the odd ids only: the next tick visits just those, and the even
  // ones stay parked with their original question.
  for (const PendingQuestion& pq : asked) {
    if (pq.session_id % 2 == 1) pop.Answer(pq);
  }
  std::vector<size_t> finished;
  const std::vector<PendingQuestion> next = pop.scheduler.Tick(&finished);
  EXPECT_EQ(next.size() + finished.size(), asked.size() / 2);
  for (const PendingQuestion& pq : next) EXPECT_EQ(pq.session_id % 2, 1u);
  for (size_t id : finished) {
    EXPECT_EQ(id % 2, 1u);
    EXPECT_TRUE(pop.scheduler.finished(id));
  }
  EXPECT_TRUE(pop.scheduler.Tick().empty());
  const std::vector<PendingQuestion> parked = pop.scheduler.InFlight();
  ASSERT_EQ(parked.size(), next.size() + asked.size() / 2);
  for (size_t k = 0; k < parked.size(); ++k) {
    const size_t id = parked[k].session_id;
    EXPECT_TRUE(pop.scheduler.awaiting(id));
    if (k > 0) {
      EXPECT_LT(parked[k - 1].session_id, id);
    }
    if (id % 2 == 0) {
      EXPECT_TRUE(SameQuestion(parked[k].question, asked[id].question)) << id;
    }
  }

  // DriveWithUsers starts from InFlight(), so the population still drains
  // to the uninterrupted results.
  std::vector<InteractionResult> results =
      DriveWithUsers(pop.scheduler, pop.users);
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectSameResult(expected[i], results[i], "session " + std::to_string(i));
  }
}

// A cancelled session that is still on the ready list — before its first
// tick, or after its answer was posted — is skipped by Tick(): it asks
// nothing, is not reported as a tick finish, and leaves active() and every
// other session's result as they would be without it.
TEST(SchedulerTest, CancellingARunnableSessionIsSkippedByTheNextTick) {
  Roster roster(SmallSkyline(250, 3, 121));
  RunBudget budget;
  budget.max_rounds = 30;
  const uint64_t master = 0x2F2u;
  Population reference(roster, budget, master);
  std::vector<InteractionResult> expected =
      DriveWithUsers(reference.scheduler, reference.users);

  Population pop(roster, budget, master);
  const size_t n = pop.scheduler.size();
  ASSERT_GT(n, 2u);
  ASSERT_TRUE(pop.scheduler.TryCancel(0).ok());  // runnable, never asked
  EXPECT_TRUE(pop.scheduler.finished(0));
  EXPECT_EQ(pop.scheduler.active(), n - 1);
  std::vector<size_t> finished;
  const std::vector<PendingQuestion> first = pop.scheduler.Tick(&finished);
  EXPECT_TRUE(finished.empty());
  ASSERT_EQ(first.size(), n - 1);
  for (const PendingQuestion& pq : first) {
    EXPECT_NE(pq.session_id, 0u);
    pop.Answer(pq);
  }
  // Runnable again: its answer was just posted.
  ASSERT_TRUE(pop.scheduler.TryCancel(2).ok());
  EXPECT_EQ(pop.scheduler.active(), n - 2);
  const std::vector<PendingQuestion> second = pop.scheduler.Tick(&finished);
  for (const PendingQuestion& pq : second) EXPECT_NE(pq.session_id, 2u);
  for (size_t id : finished) EXPECT_NE(id, 2u);
  EXPECT_EQ(second.size() + finished.size(), n - 2);
  EXPECT_EQ(pop.scheduler.active(), n - 2 - finished.size());
  EXPECT_TRUE(pop.scheduler.finished(2));

  std::vector<InteractionResult> results =
      DriveWithUsers(pop.scheduler, pop.users);
  EXPECT_EQ(pop.scheduler.active(), 0u);
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || i == 2) continue;
    ExpectSameResult(expected[i], results[i], "session " + std::to_string(i));
  }
  EXPECT_EQ(results[0].rounds, 0u);
  EXPECT_EQ(results[2].rounds, 1u);
}

// ------------------------------------------------------------ OutcomeCounts

TEST(OutcomeCountsTest, CountsEveryFailureKindAndIgnoresConverged) {
  OutcomeCounts counts;
  counts.Count(Termination::kConverged);
  counts.Count(Termination::kDegraded);
  counts.Count(Termination::kDegraded);
  counts.Count(Termination::kBudgetExhausted);
  counts.Count(Termination::kAborted);
  EXPECT_EQ(counts.degraded, 2u);
  EXPECT_EQ(counts.budget_exhausted, 1u);
  EXPECT_EQ(counts.aborted, 1u);
  EXPECT_EQ(counts.Failures(), 4u);
}

TEST(OutcomeCountsTest, AggregatesInheritTheSharedCounters) {
  // EvalStats and TraceSummary share OutcomeCounts — the members must be
  // reachable exactly as before the deduplication.
  EvalStats stats;
  stats.Count(Termination::kBudgetExhausted);
  EXPECT_EQ(stats.budget_exhausted, 1u);
  EXPECT_EQ(stats.degraded, 0u);

  TraceSummary summary;
  summary.Count(Termination::kAborted);
  summary.Count(Termination::kDegraded);
  EXPECT_EQ(summary.aborted, 1u);
  EXPECT_EQ(summary.degraded, 1u);
  EXPECT_EQ(summary.Failures(), 2u);
}

}  // namespace
}  // namespace isrl
