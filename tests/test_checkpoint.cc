// Durability suite (DESIGN.md §14): checkpoint/restore must be invisible to
// the algorithms. A session saved and reopened at EVERY round — under honest
// users, faulty users, and exhausted budgets — must finish with a
// bit-identical InteractionResult and trace; a scheduler population crashed
// at every answer and recovered from snapshot + WAL must match the
// uninterrupted run; and corrupt/truncated/version-skewed/NaN snapshots must
// come back as Status errors (with per-slot graceful degradation at the
// scheduler level), never as crashes. Run with `ctest -L checkpoint`; the CI
// sanitize job runs this label under ASan/UBSan.
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <string_view>
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
#include "core/snapshot.h"
#include "data/skyline.h"
#include "data/synthetic.h"
#include "nn/layer.h"
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

void ExpectSameQuestion(const SessionQuestion& a, const SessionQuestion& b,
                        const std::string& label) {
  EXPECT_EQ(a.synthetic, b.synthetic) << label;
  if (!a.synthetic) {
    EXPECT_EQ(a.pair.i, b.pair.i) << label;
    EXPECT_EQ(a.pair.j, b.pair.j) << label;
  } else {
    ASSERT_EQ(a.first.dim(), b.first.dim()) << label;
    for (size_t k = 0; k < a.first.dim(); ++k) {
      EXPECT_EQ(a.first[k], b.first[k]) << label;
      EXPECT_EQ(a.second[k], b.second[k]) << label;
    }
  }
}

// Same six-algorithm roster as the step-API equivalence suite.
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

  AlgorithmResolver Resolver() {
    return [this](const std::string& name) -> InteractiveAlgorithm* {
      for (InteractiveAlgorithm* algo : all()) {
        if (algo->name() == name) return algo;
      }
      return nullptr;
    };
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

/// Moves one Q-network weight so the fingerprint diverges from any snapshot
/// taken earlier. (Train() only touches weights once the replay buffer
/// reaches min_replay_before_update, so a short real training pass is not a
/// reliable way to change the model.)
void PerturbNetwork(rl::DqnAgent& agent) {
  auto& first = static_cast<nn::Linear&>(agent.main_network().layer(0));
  first.weights()[0] += 0.25;
}

/// SaveState() + RestoreSession(): the session comes back as a new object.
/// On any failure the original session is returned so the drive can finish
/// (the EXPECT failures still fail the test).
std::unique_ptr<InteractionSession> Reopen(
    InteractiveAlgorithm& algo, std::unique_ptr<InteractionSession> session,
    const SessionConfig& config, const std::string& label) {
  Result<std::string> bytes = session->SaveState();
  EXPECT_TRUE(bytes.ok()) << label << ": " << bytes.status().ToString();
  if (!bytes.ok()) return session;
  Result<std::unique_ptr<InteractionSession>> restored =
      algo.RestoreSession(*bytes, config);
  EXPECT_TRUE(restored.ok()) << label << ": " << restored.status().ToString();
  if (!restored.ok()) return session;
  return std::move(*restored);
}

/// Drives a session to completion, checkpointing and reopening it at every
/// state-machine stage of every round: before NextQuestion (EA/AA sit in
/// the scoring stage here), while the question is in flight, and once after
/// termination. The user object survives every reopen, exactly like a real
/// human across a server restart.
InteractionResult DriveWithRestart(InteractiveAlgorithm& algo,
                                   UserOracle& user,
                                   const SessionConfig& config,
                                   const std::string& label) {
  std::unique_ptr<InteractionSession> session = algo.StartSession(config);
  while (true) {
    session = Reopen(algo, std::move(session), config, label + " pre-question");
    std::optional<SessionQuestion> q = session->NextQuestion();
    if (!q.has_value()) break;
    session = Reopen(algo, std::move(session), config, label + " in-flight");
    std::optional<SessionQuestion> again = session->NextQuestion();
    EXPECT_TRUE(again.has_value()) << label;
    if (!again.has_value()) break;
    ExpectSameQuestion(*q, *again, label + " reopened question");
    session->PostAnswer(user.Ask(again->first, again->second));
  }
  session = Reopen(algo, std::move(session), config, label + " finished");
  EXPECT_TRUE(session->Finished()) << label;
  InteractionResult result = session->Finish();
  result.converged = result.termination == Termination::kConverged;
  return result;
}

// ----------------------- restart at every round == uninterrupted, honest

TEST(CheckpointTest, RestartEveryRoundMatchesUninterruptedForEveryAlgorithm) {
  Roster roster(SmallSkyline(250, 3, 11));
  RunBudget budget;
  budget.max_rounds = 40;
  Rng urng(12);
  for (int trial = 0; trial < 2; ++trial) {
    const Vec u = urng.SimplexUniform(3);
    for (InteractiveAlgorithm* algo : roster.all()) {
      const uint64_t seed = 900 + static_cast<uint64_t>(trial);
      algo->Reseed(seed);
      LinearUser blocking_user(u);
      InteractionResult blocking = algo->Interact(blocking_user, budget);

      SessionConfig config;
      config.budget = budget;
      config.seed = seed;
      LinearUser restart_user(u);
      InteractionResult restarted =
          DriveWithRestart(*algo, restart_user, config, algo->name());
      ExpectSameResult(blocking, restarted, algo->name());
    }
  }
}

// ------------------------------------------ ...under faulty users

TEST(CheckpointTest, RestartEveryRoundMatchesUninterruptedUnderFaultyUsers) {
  Roster roster(SmallSkyline(250, 3, 21));
  RunBudget budget;
  budget.max_rounds = 30;
  Rng urng(22);
  for (int trial = 0; trial < 2; ++trial) {
    const Vec u = urng.SimplexUniform(3);
    FaultyUserOptions fopt;
    fopt.flip_rate = 0.2;
    fopt.no_answer_rate = 0.15;
    fopt.seed = 700 + static_cast<uint64_t>(trial);
    for (InteractiveAlgorithm* algo : roster.all()) {
      const uint64_t seed = 800 + static_cast<uint64_t>(trial);
      algo->Reseed(seed);
      FaultyUser blocking_user(u, fopt);
      InteractionResult blocking = algo->Interact(blocking_user, budget);

      SessionConfig config;
      config.budget = budget;
      config.seed = seed;
      FaultyUser restart_user(u, fopt);  // same fault stream, fresh state
      InteractionResult restarted =
          DriveWithRestart(*algo, restart_user, config, algo->name());
      ExpectSameResult(blocking, restarted, algo->name());
      EXPECT_EQ(blocking_user.flips(), restart_user.flips()) << algo->name();
    }
  }
}

// ------------------------------------------ ...under exhausted budgets

TEST(CheckpointTest, RestartEveryRoundMatchesUninterruptedUnderTinyBudgets) {
  Roster roster(SmallSkyline(300, 4, 31));
  Rng urng(32);
  const Vec u = urng.SimplexUniform(4);
  for (size_t max_rounds : {1u, 3u}) {
    RunBudget budget;
    budget.max_rounds = max_rounds;
    for (InteractiveAlgorithm* algo : roster.all()) {
      algo->Reseed(7);
      LinearUser blocking_user(u);
      InteractionResult blocking = algo->Interact(blocking_user, budget);

      SessionConfig config;
      config.budget = budget;
      config.seed = 7;
      LinearUser restart_user(u);
      InteractionResult restarted =
          DriveWithRestart(*algo, restart_user, config, algo->name());
      ExpectSameResult(blocking, restarted, algo->name());
      EXPECT_LE(restarted.rounds, max_rounds) << algo->name();
    }
  }
}

// ------------------------------------------------ trace vectors survive

TEST(CheckpointTest, TraceVectorsSurviveRestartBitIdentically) {
  Roster roster(SmallSkyline(250, 3, 41));
  RunBudget budget;
  budget.max_rounds = 25;
  Rng urng(42);
  const Vec u = urng.SimplexUniform(3);
  for (InteractiveAlgorithm* algo : roster.all()) {
    algo->Reseed(9);
    Rng blocking_rng(77);
    InteractionTrace blocking_trace(&roster.sky, 16, &blocking_rng);
    LinearUser blocking_user(u);
    InteractionResult blocking =
        algo->Interact(blocking_user, budget, &blocking_trace);

    Rng restart_rng(77);
    InteractionTrace restart_trace(&roster.sky, 16, &restart_rng);
    SessionConfig config;
    config.budget = budget;
    config.seed = 9;
    config.trace = &restart_trace;
    LinearUser restart_user(u);
    InteractionResult restarted =
        DriveWithRestart(*algo, restart_user, config, algo->name());

    ExpectSameResult(blocking, restarted, algo->name());
    EXPECT_EQ(blocking_trace.max_regret(), restart_trace.max_regret())
        << algo->name();
    EXPECT_EQ(blocking_trace.best_index(), restart_trace.best_index())
        << algo->name();
  }
}

// ------------------------------------- seedless sessions become portable

// A session without SessionConfig::seed draws from the algorithm's member
// Rng; its snapshot captures that generator mid-stream, and the restored
// session owns the continuation — so even seedless episodes survive a
// restart bit-identically.
TEST(CheckpointTest, SeedlessSessionOwnsItsRngAfterRestore) {
  Roster roster(SmallSkyline(250, 3, 51));
  RunBudget budget;
  budget.max_rounds = 30;
  Rng urng(52);
  const Vec u = urng.SimplexUniform(3);
  for (InteractiveAlgorithm* algo :
       std::vector<InteractiveAlgorithm*>{&roster.ea, &roster.uh_random}) {
    algo->Reseed(0xBEEF);
    LinearUser blocking_user(u);
    InteractionResult blocking = algo->Interact(blocking_user, budget);

    algo->Reseed(0xBEEF);
    SessionConfig config;
    config.budget = budget;  // note: no seed
    LinearUser restart_user(u);
    InteractionResult restarted =
        DriveWithRestart(*algo, restart_user, config, algo->name());
    ExpectSameResult(blocking, restarted, algo->name());
  }
}

// ----------------------------------------------- scheduler durability

struct Fleet {
  std::vector<std::unique_ptr<UserOracle>> owned;
  std::vector<UserOracle*> users;
};

Fleet LinearFleet(const std::vector<Vec>& utilities) {
  Fleet fleet;
  for (const Vec& u : utilities) {
    fleet.owned.push_back(std::make_unique<LinearUser>(u));
    fleet.users.push_back(fleet.owned.back().get());
  }
  return fleet;
}

SessionScheduler BuildPopulation(Roster& roster, const RunBudget& budget,
                                 uint64_t master) {
  SessionScheduler scheduler;
  std::vector<InteractiveAlgorithm*> algos = roster.all();
  for (size_t i = 0; i < algos.size(); ++i) {
    SessionConfig config;
    config.budget = budget;
    config.seed = SplitSeed(master, i);
    scheduler.Add(algos[i]->StartSession(config), algos[i]);
  }
  return scheduler;
}

std::vector<Vec> FleetUtilities(size_t count, size_t d, uint64_t seed) {
  Rng urng(seed);
  std::vector<Vec> utilities;
  for (size_t i = 0; i < count; ++i) utilities.push_back(urng.SimplexUniform(d));
  return utilities;
}

/// Crash-injection point for DriveWithUsersDurable: the simulated process
/// dies immediately BEFORE asking the user for answer number
/// `after_answers` (0-based count of answers already delivered). Dying
/// before the Ask keeps simulated users' Rng streams aligned across the
/// crash: a user is only ever consulted for answers that were also logged.
struct CrashPoint {
  static constexpr size_t kNever = static_cast<size_t>(-1);
  size_t after_answers = kNever;
};

/// Outcome of a durable drive: either the population ran to completion
/// (results in session-id order) or the injected crash fired first.
struct DurableDriveOutcome {
  bool crashed = false;
  std::vector<InteractionResult> results;
};

/// DriveWithUsers with durability, the crash-injection harness over
/// SessionScheduler and SessionStore: checkpoints the population into
/// `store` up front and then every `checkpoint_every_ticks` ticks (0 = only
/// the initial checkpoint), and write-ahead-logs every answer before
/// posting it. With the default CrashPoint it returns exactly DriveWithUsers'
/// results; with an armed CrashPoint it returns {crashed = true} at the
/// injected point, leaving `store` holding everything recovery needs.
Result<DurableDriveOutcome> DriveWithUsersDurable(
    SessionScheduler& scheduler, const std::vector<UserOracle*>& users,
    SessionStore& store, size_t checkpoint_every_ticks,
    CrashPoint crash = CrashPoint{}) {
  ISRL_CHECK_EQ(users.size(), scheduler.size());
  ISRL_ASSIGN_OR_RETURN(std::string snapshot, scheduler.CheckpointAll());
  store.BeginEpoch(std::move(snapshot));
  DurableDriveOutcome outcome;
  size_t answers = 0;
  // Pass 0 answers the questions a crash cut off before their answers were
  // logged; pass t answers the t-th Tick().
  std::vector<PendingQuestion> questions = scheduler.InFlight();
  for (size_t ticks = 0; scheduler.active() > 0;
       ++ticks, questions = scheduler.Tick()) {
    for (const PendingQuestion& pq : questions) {
      if (answers == crash.after_answers) {
        // Simulated crash BEFORE the Ask: the user for this (and every
        // later) question never consumes an Rng draw, so recovery resumes
        // with user fault streams exactly where the log left them.
        outcome.crashed = true;
        return outcome;
      }
      Answer answer =
          users[pq.session_id]->Ask(pq.question.first, pq.question.second);
      store.LogAnswer(pq.session_id, answer);  // write-ahead
      scheduler.PostAnswer(pq.session_id, answer);
      ++answers;
    }
    if (ticks > 0 && checkpoint_every_ticks > 0 &&
        ticks % checkpoint_every_ticks == 0 && scheduler.active() > 0) {
      ISRL_ASSIGN_OR_RETURN(std::string fresh, scheduler.CheckpointAll());
      store.BeginEpoch(std::move(fresh));
    }
  }
  outcome.results.reserve(scheduler.size());
  for (size_t id = 0; id < scheduler.size(); ++id) {
    outcome.results.push_back(scheduler.Take(id));
  }
  return outcome;
}

// Writes a serialised store to a scratch file and reads it back through
// SessionStore::LoadFile, the only way a store re-enters a process. The
// file is named after the running test, so test processes that run in
// parallel never share one.
Result<SessionStore> LoadStoreBytes(const std::string& bytes) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string path = ::testing::TempDir();
  path.append("/isrl_store_bytes_").append(test->test_suite_name());
  path.append(".").append(test->name()).append(".bin");
  Status written = snapshot::WriteFileBytes(path, bytes);
  if (!written.ok()) return written;
  Result<SessionStore> loaded = SessionStore::LoadFile(path);
  std::remove(path.c_str());
  return loaded;
}

TEST(SchedulerDurabilityTest, DurableDriveMatchesPlainDrive) {
  Roster roster(SmallSkyline(250, 3, 61));
  RunBudget budget;
  budget.max_rounds = 20;
  const uint64_t master = 0xD00Du;
  std::vector<Vec> utilities = FleetUtilities(roster.all().size(), 3, 62);

  SessionScheduler plain = BuildPopulation(roster, budget, master);
  Fleet plain_fleet = LinearFleet(utilities);
  std::vector<InteractionResult> reference =
      DriveWithUsers(plain, plain_fleet.users);

  SessionScheduler durable = BuildPopulation(roster, budget, master);
  Fleet durable_fleet = LinearFleet(utilities);
  SessionStore store;
  Result<DurableDriveOutcome> outcome =
      DriveWithUsersDurable(durable, durable_fleet.users, store,
                            /*checkpoint_every_ticks=*/2);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(outcome->crashed);
  ASSERT_EQ(outcome->results.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    ExpectSameResult(reference[i], outcome->results[i],
                     "session " + std::to_string(i));
  }
}

// The tentpole guarantee: crash at EVERY answer index, recover from the
// store (snapshot + WAL replay), finish with the surviving user objects —
// and the results equal the uninterrupted run every single time.
TEST(SchedulerDurabilityTest, CrashAtEveryAnswerRecoversIdentically) {
  Roster roster(SmallSkyline(200, 3, 71));
  RunBudget budget;
  budget.max_rounds = 4;  // keeps total answers (and the quadratic loop) small
  const uint64_t master = 0xC4A5u;
  std::vector<Vec> utilities = FleetUtilities(roster.all().size(), 3, 72);

  SessionScheduler reference_scheduler =
      BuildPopulation(roster, budget, master);
  Fleet reference_fleet = LinearFleet(utilities);
  SessionStore reference_store;
  Result<DurableDriveOutcome> reference = DriveWithUsersDurable(
      reference_scheduler, reference_fleet.users, reference_store,
      /*checkpoint_every_ticks=*/2);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_FALSE(reference->crashed);
  size_t total_answers = 0;
  for (const InteractionResult& r : reference->results) {
    total_answers += r.rounds;
  }
  ASSERT_GT(total_answers, 0u);

  for (size_t crash_at = 0; crash_at <= total_answers; ++crash_at) {
    const std::string label = "crash@" + std::to_string(crash_at);
    SessionScheduler scheduler = BuildPopulation(roster, budget, master);
    Fleet fleet = LinearFleet(utilities);
    SessionStore store;
    CrashPoint crash;
    crash.after_answers = crash_at;
    Result<DurableDriveOutcome> first = DriveWithUsersDurable(
        scheduler, fleet.users, store, /*checkpoint_every_ticks=*/2, crash);
    ASSERT_TRUE(first.ok()) << label << ": " << first.status().ToString();
    if (!first->crashed) {
      // Crash point beyond the run's natural end: plain completion.
      ASSERT_EQ(crash_at, total_answers) << label;
      for (size_t i = 0; i < reference->results.size(); ++i) {
        ExpectSameResult(reference->results[i], first->results[i], label);
      }
      continue;
    }

    // "Reboot": the store is all that survives (round-trip it through its
    // serialised form to prove it), plus the live algorithm instances and
    // the humans mid-conversation.
    Result<SessionStore> reloaded = LoadStoreBytes(store.Serialize());
    ASSERT_TRUE(reloaded.ok()) << label << ": " << reloaded.status().ToString();
    Result<SessionScheduler> recovered =
        RecoverScheduler(*reloaded, roster.Resolver());
    ASSERT_TRUE(recovered.ok()) << label << ": "
                                << recovered.status().ToString();
    SessionStore store2;
    Result<DurableDriveOutcome> resumed = DriveWithUsersDurable(
        *recovered, fleet.users, store2, /*checkpoint_every_ticks=*/2);
    ASSERT_TRUE(resumed.ok()) << label << ": " << resumed.status().ToString();
    ASSERT_FALSE(resumed->crashed) << label;
    ASSERT_EQ(resumed->results.size(), reference->results.size()) << label;
    for (size_t i = 0; i < reference->results.size(); ++i) {
      ExpectSameResult(reference->results[i], resumed->results[i],
                       label + " session " + std::to_string(i));
    }
  }
}

// Re-emission is explicit. RestoreAll leaves live slots runnable, so
// nothing is awaiting and the first Tick() re-asks what was in flight at
// the checkpoint. After a crash at every answer index, InFlight() returns
// exactly the awaiting sessions' questions, in id order; at a mid-tick cut
// those are the crashed tick's unanswered questions. Every question lost
// with the crash comes back exactly once, from InFlight() or (at a tick
// boundary, where replay stops before the lost tick) from the next Tick().
TEST(SchedulerDurabilityTest, InFlightAfterRestoreAndMidTickRecovery) {
  Roster roster(SmallSkyline(200, 3, 75));
  RunBudget budget;
  budget.max_rounds = 4;
  const uint64_t master = 0x1F1Fu;
  std::vector<Vec> utilities = FleetUtilities(roster.all().size(), 3, 76);

  SessionScheduler ticked = BuildPopulation(roster, budget, master);
  const std::vector<PendingQuestion> asked = ticked.Tick();
  ASSERT_EQ(asked.size(), ticked.size());
  Result<std::string> snapshot = ticked.CheckpointAll();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  Result<SessionScheduler> restored =
      SessionScheduler::RestoreAll(*snapshot, roster.Resolver());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored->InFlight().empty());
  const std::vector<PendingQuestion> reasked = restored->Tick();
  ASSERT_EQ(reasked.size(), asked.size());
  for (size_t k = 0; k < asked.size(); ++k) {
    EXPECT_EQ(reasked[k].session_id, asked[k].session_id);
    ExpectSameQuestion(asked[k].question, reasked[k].question,
                       "restored " + std::to_string(k));
  }
  EXPECT_TRUE(restored->Tick().empty());
  EXPECT_EQ(restored->InFlight().size(), asked.size());

  size_t mid_tick_cuts = 0;
  for (size_t crash_at = 0;; ++crash_at) {
    const std::string label = "crash@" + std::to_string(crash_at);
    SessionScheduler scheduler = BuildPopulation(roster, budget, master);
    Fleet fleet = LinearFleet(utilities);
    SessionStore store;
    CrashPoint crash;
    crash.after_answers = crash_at;
    Result<DurableDriveOutcome> first = DriveWithUsersDurable(
        scheduler, fleet.users, store, /*checkpoint_every_ticks=*/2, crash);
    ASSERT_TRUE(first.ok()) << label << ": " << first.status().ToString();
    if (!first->crashed) break;
    const std::vector<PendingQuestion> lost = scheduler.InFlight();
    ASSERT_FALSE(lost.empty()) << label;
    Result<SessionScheduler> recovered =
        RecoverScheduler(store, roster.Resolver());
    ASSERT_TRUE(recovered.ok()) << label << ": "
                                << recovered.status().ToString();

    std::vector<PendingQuestion> back = recovered->InFlight();
    size_t awaiting = 0;
    size_t runnable = 0;
    for (size_t id = 0; id < recovered->size(); ++id) {
      if (recovered->awaiting(id)) {
        ++awaiting;
      } else if (!recovered->finished(id)) {
        ++runnable;
      }
    }
    ASSERT_EQ(back.size(), awaiting) << label;
    if (!back.empty() && runnable > 0) ++mid_tick_cuts;
    const std::vector<PendingQuestion> next = recovered->Tick();
    std::vector<int> seen(recovered->size(), 0);
    for (size_t k = 0; k < back.size(); ++k) {
      if (k > 0) {
        EXPECT_LT(back[k - 1].session_id, back[k].session_id);
      }
      ++seen[back[k].session_id];
    }
    for (const PendingQuestion& pq : next) ++seen[pq.session_id];
    back.insert(back.end(), next.begin(), next.end());
    for (const PendingQuestion& old : lost) {
      EXPECT_EQ(seen[old.session_id], 1) << label << " session "
                                         << old.session_id;
      for (const PendingQuestion& pq : back) {
        if (pq.session_id != old.session_id) continue;
        ExpectSameQuestion(old.question, pq.question, label);
      }
    }
    // InFlight() holds only lost questions; the tick's others are new.
    for (size_t k = 0; k < awaiting; ++k) {
      bool was_lost = false;
      for (const PendingQuestion& old : lost) {
        was_lost = was_lost || old.session_id == back[k].session_id;
      }
      EXPECT_TRUE(was_lost) << label << " session " << back[k].session_id;
    }
  }
  EXPECT_GT(mid_tick_cuts, 0u);
}

// Crash-recovery with FaultyUsers: the injected crash fires BEFORE the Ask,
// so the surviving oracles' fault streams stay aligned with the WAL.
TEST(SchedulerDurabilityTest, CrashRecoveryKeepsFaultyUserStreamsAligned) {
  Roster roster(SmallSkyline(200, 3, 81));
  RunBudget budget;
  budget.max_rounds = 6;
  const uint64_t master = 0xFA11u;
  std::vector<Vec> utilities = FleetUtilities(roster.all().size(), 3, 82);
  auto faulty_fleet = [&]() {
    Fleet fleet;
    for (size_t i = 0; i < utilities.size(); ++i) {
      FaultyUserOptions fopt;
      fopt.flip_rate = 0.2;
      fopt.no_answer_rate = 0.1;
      fopt.seed = 600 + static_cast<uint64_t>(i);
      fleet.owned.push_back(std::make_unique<FaultyUser>(utilities[i], fopt));
      fleet.users.push_back(fleet.owned.back().get());
    }
    return fleet;
  };

  SessionScheduler reference_scheduler =
      BuildPopulation(roster, budget, master);
  Fleet reference_fleet = faulty_fleet();
  SessionStore reference_store;
  Result<DurableDriveOutcome> reference = DriveWithUsersDurable(
      reference_scheduler, reference_fleet.users, reference_store, 2);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (size_t crash_at : {0u, 3u, 7u, 13u}) {
    const std::string label = "faulty-crash@" + std::to_string(crash_at);
    SessionScheduler scheduler = BuildPopulation(roster, budget, master);
    Fleet fleet = faulty_fleet();
    SessionStore store;
    CrashPoint crash;
    crash.after_answers = crash_at;
    Result<DurableDriveOutcome> first =
        DriveWithUsersDurable(scheduler, fleet.users, store, 2, crash);
    ASSERT_TRUE(first.ok()) << label;
    if (!first->crashed) continue;  // run ended before the crash point
    Result<SessionScheduler> recovered =
        RecoverScheduler(store, roster.Resolver());
    ASSERT_TRUE(recovered.ok()) << label << ": "
                                << recovered.status().ToString();
    SessionStore store2;
    Result<DurableDriveOutcome> resumed =
        DriveWithUsersDurable(*recovered, fleet.users, store2, 2);
    ASSERT_TRUE(resumed.ok()) << label;
    for (size_t i = 0; i < reference->results.size(); ++i) {
      ExpectSameResult(reference->results[i], resumed->results[i],
                       label + " session " + std::to_string(i));
    }
  }
}

// ------------------------------------------- graceful degradation paths

TEST(SchedulerDurabilityTest, RetrainedNetworkDegradesOnlyThatSlot) {
  Roster roster(SmallSkyline(200, 3, 91));
  RunBudget budget;
  budget.max_rounds = 10;
  SessionScheduler scheduler;
  SessionConfig config;
  config.budget = budget;
  config.seed = 1;
  scheduler.Add(roster.ea.StartSession(config), &roster.ea);
  config.seed = 2;
  scheduler.Add(roster.uh_random.StartSession(config), &roster.uh_random);

  Result<std::string> snapshot = scheduler.CheckpointAll();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  // Retrain the EA between checkpoint and restore: its Q-network
  // fingerprint no longer matches the snapshot. (A weight nudge stands in
  // for a full Train() pass, which only touches weights once the replay
  // buffer reaches min_replay_before_update.)
  PerturbNetwork(roster.ea.agent());

  Result<SessionScheduler> restored =
      SessionScheduler::RestoreAll(*snapshot, roster.Resolver());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->size(), 2u);

  // Slot 0 degraded to an aborted session...
  EXPECT_TRUE(restored->finished(0));
  InteractionResult aborted = restored->Take(0);
  EXPECT_EQ(aborted.termination, Termination::kAborted);
  EXPECT_FALSE(aborted.status.ok());
  EXPECT_EQ(aborted.status.code(), StatusCode::kFailedPrecondition);

  // ...while slot 1 keeps serving to convergence.
  Rng urng(92);
  LinearUser user(urng.SimplexUniform(3));
  while (restored->active() > 0) {
    for (const PendingQuestion& pq : restored->Tick()) {
      restored->PostAnswer(pq.session_id,
                           user.Ask(pq.question.first, pq.question.second));
    }
  }
  InteractionResult healthy = restored->Take(1);
  EXPECT_NE(healthy.termination, Termination::kAborted);
}

TEST(SchedulerDurabilityTest, UnknownAlgorithmDegradesToAbortedSlot) {
  Roster roster(SmallSkyline(200, 3, 101));
  RunBudget budget;
  budget.max_rounds = 10;
  SessionScheduler scheduler;
  SessionConfig config;
  config.budget = budget;
  config.seed = 3;
  scheduler.Add(roster.uh_simplex.StartSession(config), &roster.uh_simplex);
  Result<std::string> snapshot = scheduler.CheckpointAll();
  ASSERT_TRUE(snapshot.ok());

  Result<SessionScheduler> restored = SessionScheduler::RestoreAll(
      *snapshot, [](const std::string&) -> InteractiveAlgorithm* {
        return nullptr;  // nothing registered
      });
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  InteractionResult r = restored->Take(0);
  EXPECT_EQ(r.termination, Termination::kAborted);
  EXPECT_EQ(r.status.code(), StatusCode::kNotFound);

  // A degraded population can itself be checkpointed and restored; the
  // cause survives the round trip.
  Result<std::string> again = restored->CheckpointAll();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  Result<SessionScheduler> twice =
      SessionScheduler::RestoreAll(*again, roster.Resolver());
  ASSERT_TRUE(twice.ok()) << twice.status().ToString();
  EXPECT_EQ(twice->size(), 1u);
}

TEST(SchedulerDurabilityTest, SessionAddedWithoutAlgorithmFailsCheckpoint) {
  Roster roster(SmallSkyline(200, 3, 111));
  SessionConfig config;
  config.seed = 4;
  SessionScheduler scheduler;
  scheduler.Add(roster.uh_random.StartSession(config));  // no algorithm
  Result<std::string> snapshot = scheduler.CheckpointAll();
  EXPECT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SchedulerDurabilityTest, TakenSlotsSurviveTheRoundTrip) {
  Roster roster(SmallSkyline(200, 3, 121));
  RunBudget budget;
  budget.max_rounds = 15;
  std::vector<Vec> utilities = FleetUtilities(2, 3, 122);
  SessionScheduler scheduler;
  SessionConfig config;
  config.budget = budget;
  config.seed = 5;
  scheduler.Add(roster.uh_random.StartSession(config), &roster.uh_random);
  config.seed = 6;
  scheduler.Add(roster.uh_simplex.StartSession(config), &roster.uh_simplex);
  Fleet fleet = LinearFleet(utilities);
  while (scheduler.active() > 0) {
    for (const PendingQuestion& pq : scheduler.Tick()) {
      scheduler.PostAnswer(pq.session_id,
                           fleet.users[pq.session_id]->Ask(
                               pq.question.first, pq.question.second));
    }
  }
  InteractionResult first = scheduler.Take(0);  // slot 0 becomes kTaken

  Result<std::string> snapshot = scheduler.CheckpointAll();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  Result<SessionScheduler> restored =
      SessionScheduler::RestoreAll(*snapshot, roster.Resolver());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->size(), 2u);
  EXPECT_FALSE(restored->finished(0));  // taken, not finished
  ASSERT_TRUE(restored->finished(1));
  InteractionResult second = restored->Take(1);
  EXPECT_EQ(second.best_index, scheduler.Take(1).best_index);
  (void)first;
}

// ------------------------------------------------------- corruption suite

std::string UhSnapshot(Roster& roster, uint64_t seed) {
  SessionConfig config;
  config.budget.max_rounds = 20;
  config.seed = seed;
  std::unique_ptr<InteractionSession> session =
      roster.uh_random.StartSession(config);
  (void)session->NextQuestion();  // park mid-round with an in-flight question
  Result<std::string> bytes = session->SaveState();
  EXPECT_TRUE(bytes.ok());
  session->Cancel();
  return bytes.ok() ? *bytes : std::string();
}

TEST(CorruptionTest, EveryBitFlipIsRejectedWithoutCrashing) {
  Roster roster(SmallSkyline(150, 3, 131));
  const std::string good = UhSnapshot(roster, 9);
  ASSERT_FALSE(good.empty());
  // Sanity: the pristine bytes restore.
  ASSERT_TRUE(roster.uh_random.RestoreSession(good, SessionConfig{}).ok());

  size_t rejected = 0;
  for (size_t offset = 0; offset < good.size(); ++offset) {
    std::string bad = good;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x5A);
    Result<std::unique_ptr<InteractionSession>> restored =
        roster.uh_random.RestoreSession(bad, SessionConfig{});
    // Under ASan/UBSan this loop is the point: no flip may crash. Every
    // flip must also be *detected* — the CRC covers the whole payload and
    // the header fields are each validated.
    EXPECT_FALSE(restored.ok()) << "flip at offset " << offset;
    if (!restored.ok()) ++rejected;
  }
  EXPECT_EQ(rejected, good.size());
}

TEST(CorruptionTest, TruncationsAreRejectedWithoutCrashing) {
  Roster roster(SmallSkyline(150, 3, 141));
  const std::string good = UhSnapshot(roster, 10);
  ASSERT_FALSE(good.empty());
  for (size_t keep = 0; keep < good.size(); keep += 3) {
    Result<std::unique_ptr<InteractionSession>> restored =
        roster.uh_random.RestoreSession(good.substr(0, keep), SessionConfig{});
    EXPECT_FALSE(restored.ok()) << "truncated to " << keep << " bytes";
  }
}

TEST(CorruptionTest, VersionSkewIsRejectedWithAVersionError) {
  Roster roster(SmallSkyline(150, 3, 151));
  const std::string good = UhSnapshot(roster, 11);
  Result<std::string> payload = snapshot::UnwrapFrame("uh-session", 2, good);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  const std::string skewed = snapshot::WrapFrame("uh-session", 99, *payload);
  Result<std::unique_ptr<InteractionSession>> restored =
      roster.uh_random.RestoreSession(skewed, SessionConfig{});
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("version"), std::string::npos)
      << restored.status().ToString();
}

TEST(CorruptionTest, WrongAlgorithmAndWrongDatasetAreRejected) {
  Roster roster(SmallSkyline(150, 3, 161));
  const std::string good = UhSnapshot(roster, 12);

  // Different frame kind entirely.
  Result<std::unique_ptr<InteractionSession>> cross_kind =
      roster.single_pass.RestoreSession(good, SessionConfig{});
  EXPECT_FALSE(cross_kind.ok());

  // Same frame kind (UH-Random and UH-Simplex share it), different leaf
  // algorithm: caught by the session-core identity check.
  Result<std::unique_ptr<InteractionSession>> cross_leaf =
      roster.uh_simplex.RestoreSession(good, SessionConfig{});
  ASSERT_FALSE(cross_leaf.ok());
  EXPECT_EQ(cross_leaf.status().code(), StatusCode::kFailedPrecondition);

  // Same algorithm, different dataset.
  Dataset other = SmallSkyline(400, 3, 999);
  UhRandom other_uh(other, Roster::UhOpt());
  Result<std::unique_ptr<InteractionSession>> cross_data =
      other_uh.RestoreSession(good, SessionConfig{});
  ASSERT_FALSE(cross_data.ok());
  EXPECT_EQ(cross_data.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CorruptionTest, GarbageAndEmptyInputsAreRejected) {
  Roster roster(SmallSkyline(150, 3, 171));
  for (const std::string& junk :
       {std::string(), std::string("garbage"), std::string(4096, '\xFF')}) {
    Result<std::unique_ptr<InteractionSession>> restored =
        roster.uh_random.RestoreSession(junk, SessionConfig{});
    EXPECT_FALSE(restored.ok());
  }
}

TEST(CorruptionTest, RetrainedModelIsRejectedAtSessionLevel) {
  Roster roster(SmallSkyline(150, 3, 181));
  SessionConfig config;
  config.budget.max_rounds = 20;
  config.seed = 13;
  std::unique_ptr<InteractionSession> session =
      roster.ea.StartSession(config);
  (void)session->NextQuestion();
  Result<std::string> bytes = session->SaveState();
  ASSERT_TRUE(bytes.ok());
  session->Cancel();

  PerturbNetwork(roster.ea.agent());
  Result<std::unique_ptr<InteractionSession>> restored =
      roster.ea.RestoreSession(*bytes, config);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CorruptionTest, NaNPayloadsAreRejectedByTheCodec) {
  snapshot::Writer w;
  snapshot::EncodeVec(
      Vec(std::vector<double>{0.5, std::numeric_limits<double>::quiet_NaN()}),
      &w);
  snapshot::Reader r(w.bytes());
  Vec out;
  Status decoded = snapshot::DecodeVec(&r, &out);
  EXPECT_FALSE(decoded.ok());

  snapshot::Writer w2;
  w2.F64(std::numeric_limits<double>::infinity());
  snapshot::Reader r2(w2.bytes());
  (void)r2.FiniteF64();
  EXPECT_TRUE(r2.failed());
}

TEST(CorruptionTest, CorruptSessionStoreIsAHardError) {
  SessionStore store;
  store.BeginEpoch("population-bytes");
  store.LogAnswer(0, Answer::kSecond);
  store.LogCancel(1);
  std::string bytes = store.Serialize();

  Result<SessionStore> good = LoadStoreBytes(bytes);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->population(), "population-bytes");
  ASSERT_EQ(good->wal().size(), 2u);
  EXPECT_EQ(good->wal()[0].kind, WalRecord::kAnswer);
  EXPECT_EQ(good->wal()[0].answer, Answer::kSecond);
  EXPECT_EQ(good->wal()[1].kind, WalRecord::kCancel);

  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
  Result<SessionStore> corrupt = LoadStoreBytes(bytes);
  EXPECT_FALSE(corrupt.ok());
}

TEST(CorruptionTest, SessionStoreFileRoundTrip) {
  SessionStore store;
  store.BeginEpoch("epoch-1");
  store.LogAnswer(2, Answer::kNoAnswer);
  const std::string path = ::testing::TempDir() + "/isrl_store_rt.bin";
  ASSERT_TRUE(store.SyncFile(path).ok());
  Result<SessionStore> loaded = SessionStore::LoadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->population(), "epoch-1");
  ASSERT_EQ(loaded->wal().size(), 1u);
  EXPECT_EQ(loaded->wal()[0].session_id, 2u);
  std::remove(path.c_str());

  Result<SessionStore> missing = SessionStore::LoadFile(path);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

// ----------------------------------------------------- codec round trips

TEST(SnapshotCodecTest, Crc32MatchesTheStandardCheckValue) {
  EXPECT_EQ(snapshot::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(snapshot::Crc32(""), 0u);
}

TEST(SnapshotCodecTest, RngRoundTripContinuesTheDrawSequence) {
  Rng original(0x1234);
  for (int i = 0; i < 100; ++i) (void)original.SimplexUniform(3);

  snapshot::Writer w;
  snapshot::EncodeRng(original, &w);
  snapshot::Reader r(w.bytes());
  Rng restored(0);
  ASSERT_TRUE(snapshot::DecodeRng(&r, &restored).ok());
  EXPECT_EQ(restored.seed(), original.seed());
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(restored.engine()(), original.engine()());
  }
}

TEST(SnapshotCodecTest, FrameRejectsKindMismatchAndTrailingBytes) {
  const std::string frame = snapshot::WrapFrame("alpha", 1, "payload");
  EXPECT_TRUE(snapshot::UnwrapFrame("alpha", 1, frame).ok());
  EXPECT_FALSE(snapshot::UnwrapFrame("beta", 1, frame).ok());
  EXPECT_FALSE(snapshot::UnwrapFrame("alpha", 2, frame).ok());
  EXPECT_FALSE(snapshot::UnwrapFrame("alpha", 1, frame + "x").ok());
}

// ------------------------------------------------- checkpoint kernels

// The CRC one bit at a time: the definition slicing-by-8 must reproduce.
uint32_t BitwiseCrc32(std::string_view bytes) {
  uint32_t c = 0xFFFFFFFFu;
  for (unsigned char b : bytes) {
    c ^= b;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(CheckpointKernelTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  Rng rng(0xC3C);
  std::string buffer(1024 + 8, '\0');
  for (char& ch : buffer) ch = static_cast<char>(rng.UniformInt(0, 255));
  const std::string_view all(buffer);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 1024; ++length) {
      const std::string_view bytes = all.substr(offset, length);
      ASSERT_EQ(snapshot::Crc32(bytes), BitwiseCrc32(bytes))
          << "offset " << offset << ", length " << length;
    }
  }
}

TEST(CheckpointKernelTest, EngineDrawsTheStandardCheckValue) {
  Mt19937_64 engine;  // default seed 5489
  for (int i = 1; i < 10000; ++i) (void)engine();
  EXPECT_EQ(engine(), 9981545732273789042ull);
}

const uint64_t kReferenceSeeds[] = {0, 1, 5489, ~uint64_t{0}};

TEST(CheckpointKernelTest, EngineMatchesStdMt19937_64) {
  for (uint64_t seed : kReferenceSeeds) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    for (size_t i = 0; i < (size_t{1} << 20); ++i) {
      const uint64_t got = engine();
      const uint64_t want = reference();
      if (got != want) {
        FAIL() << "seed " << seed << ": draw " << i << " is " << got
               << ", std::mt19937_64 drew " << want;
      }
    }
  }
}

// Rng's helpers restated over std::mt19937_64 — the reference the in-repo
// engine must match draw for draw through every helper.
class StdEngineRng {
 public:
  explicit StdEngineRng(uint64_t seed) : engine_(seed) {}
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }
  double Gaussian(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }
  bool Bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }
  std::vector<double> SimplexUniform(size_t d) {
    std::vector<double> u(d);
    double sum = 0.0;
    for (double& e : u) {
      e = -std::log(1.0 - Uniform(0.0, 1.0));
      sum += e;
    }
    for (double& e : u) e /= sum;
    return u;
  }
  std::vector<size_t> SampleIndices(size_t n, size_t k) {
    std::vector<size_t> out;
    for (size_t j = n - k; j < n; ++j) {
      const size_t t =
          static_cast<size_t>(UniformInt(0, static_cast<int64_t>(j)));
      bool seen = false;
      for (size_t s : out) seen = seen || s == t;
      out.push_back(seen ? j : t);
    }
    return out;
  }
  void Shuffle(std::vector<int>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      const size_t j =
          static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  std::mt19937_64 engine_;
};

TEST(CheckpointKernelTest, EveryRngHelperMatchesStdMt19937_64) {
  for (uint64_t seed : kReferenceSeeds) {
    Rng rng(seed);
    StdEngineRng reference(seed);
    for (int round = 0; round < 500; ++round) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << ", round " << round);
      ASSERT_EQ(rng.Uniform(-2.0, 3.0), reference.Uniform(-2.0, 3.0));
      ASSERT_EQ(rng.UniformInt(-7, 1000), reference.UniformInt(-7, 1000));
      ASSERT_EQ(rng.Gaussian(1.0, 2.0), reference.Gaussian(1.0, 2.0));
      ASSERT_EQ(rng.Bernoulli(0.3), reference.Bernoulli(0.3));
      const Vec u = rng.SimplexUniform(5);
      const std::vector<double> want = reference.SimplexUniform(5);
      for (size_t i = 0; i < want.size(); ++i) ASSERT_EQ(u[i], want[i]);
      ASSERT_EQ(rng.SampleIndices(50, 6), reference.SampleIndices(50, 6));
      std::vector<int> a = {0, 1, 2, 3, 4, 5, 6, 7, 8};
      std::vector<int> b = a;
      rng.Shuffle(&a);
      reference.Shuffle(&b);
      ASSERT_EQ(a, b);
    }
  }
}

TEST(CheckpointKernelTest, RngRoundTripAtEveryPositionContinuesTheSequence) {
  Mt19937_64 source(0xFEED);
  for (int i = 0; i < 500; ++i) (void)source();
  for (size_t position = 0; position <= Mt19937_64::kStateSize; ++position) {
    Rng original(0x1234);
    original.engine().Restore(source.state(), position);
    snapshot::Writer w;
    snapshot::EncodeRng(original, &w);
    snapshot::Reader r(w.bytes());
    Rng restored(0);
    ASSERT_TRUE(snapshot::DecodeRng(&r, &restored).ok()) << position;
    EXPECT_TRUE(r.AtEnd()) << position;
    EXPECT_EQ(restored.seed(), original.seed());
    EXPECT_EQ(restored.engine().position(), position);
    // Past a whole state block, so every continuation crosses a twist.
    for (size_t i = 0; i < Mt19937_64::kStateSize + 2; ++i) {
      ASSERT_EQ(restored.engine()(), original.engine()())
          << "position " << position << ", draw " << i;
    }
  }
}

TEST(CheckpointKernelTest, RngDecodeRejectsPositionPastTheState) {
  Rng original(77);
  snapshot::Writer w;
  snapshot::EncodeRng(original, &w);
  std::string bytes = w.Take();
  // The position is the final U64; overwrite it with 313.
  snapshot::Writer position;
  position.U64(Mt19937_64::kStateSize + 1);
  bytes.replace(bytes.size() - 8, 8, position.bytes());
  snapshot::Reader r(bytes);
  Rng restored(0);
  Status decoded = snapshot::DecodeRng(&r, &restored);
  EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.message().find("position"), std::string::npos)
      << decoded.ToString();
  EXPECT_TRUE(r.failed());
}

TEST(CheckpointKernelTest, RngDecodeRejectsTruncatedStateWords) {
  Rng original(78);
  snapshot::Writer w;
  snapshot::EncodeRng(original, &w);
  const std::string& bytes = w.bytes();
  ASSERT_EQ(bytes.size(), 8 * (Mt19937_64::kStateSize + 2));
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    const std::string truncated = bytes.substr(0, keep);
    snapshot::Reader r(truncated);
    Rng restored(0);
    EXPECT_EQ(snapshot::DecodeRng(&r, &restored).code(),
              StatusCode::kInvalidArgument)
        << "truncated to " << keep << " bytes";
  }
}

TEST(CheckpointKernelTest, PreviousSessionFrameVersionsAreRejected) {
  Roster roster(SmallSkyline(150, 3, 191));
  struct Kind {
    InteractiveAlgorithm* algo;
    const char* kind;
    uint32_t version;  // the current one; version - 1 embedded text Rngs
  };
  const Kind kinds[] = {{&roster.ea, "ea-session", 3},
                        {&roster.aa, "aa-session", 3},
                        {&roster.uh_random, "uh-session", 2},
                        {&roster.single_pass, "sp-session", 2},
                        {&roster.utility_approx, "ua-session", 2}};
  for (const Kind& k : kinds) {
    SessionConfig config;
    config.budget.max_rounds = 20;
    config.seed = 5;
    std::unique_ptr<InteractionSession> session = k.algo->StartSession(config);
    (void)session->NextQuestion();
    Result<std::string> bytes = session->SaveState();
    ASSERT_TRUE(bytes.ok()) << k.kind << ": " << bytes.status().ToString();
    session->Cancel();
    Result<std::string> payload =
        snapshot::UnwrapFrame(k.kind, k.version, *bytes);
    ASSERT_TRUE(payload.ok()) << k.kind << ": " << payload.status().ToString();
    const std::string old =
        snapshot::WrapFrame(k.kind, k.version - 1, *payload);
    Result<std::unique_ptr<InteractionSession>> restored =
        k.algo->RestoreSession(old, config);
    ASSERT_FALSE(restored.ok()) << k.kind;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(restored.status().message().find("version skew"),
              std::string::npos)
        << k.kind << ": " << restored.status().ToString();
  }
}

}  // namespace
}  // namespace isrl
