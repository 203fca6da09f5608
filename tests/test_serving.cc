// Sharded serving suite (DESIGN.md §15): the multi-threaded ShardedScheduler
// must be invisible to the sessions it serves — a seeded population finishes
// bit-identical to the single-threaded SessionScheduler at ANY shard count,
// with answers arriving from any number of client threads. The durability
// half pins the §14 file contract at the storage layer: an atomic save killed
// at any byte keeps the previous file, an append-mode store file truncated at
// any byte recovers to the longest clean prefix (or a clean Status) and never
// crashes, and a shard halted by a mid-run write failure is recoverable from
// its own file. Run with `ctest -L serving`; CI runs this label under TSan.
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/single_pass.h"
#include "baselines/uh_random.h"
#include "baselines/uh_simplex.h"
#include "baselines/utility_approx.h"
#include "common/budget.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "core/aa.h"
#include "core/ea.h"
#include "core/scheduler.h"
#include "core/snapshot.h"
#include "data/skyline.h"
#include "data/synthetic.h"
#include "serve/sharding.h"
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

// Same six-algorithm roster as the checkpoint suite.
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

std::vector<Vec> FleetUtilities(size_t count, size_t d, uint64_t seed) {
  Rng urng(seed);
  std::vector<Vec> utilities;
  for (size_t i = 0; i < count; ++i) utilities.push_back(urng.SimplexUniform(d));
  return utilities;
}

/// Thread-safe question channel between the engine's sinks and a pool of
/// client tasks, built on the annotated wrappers (common/mutex.h) so the
/// clang -Wthread-safety lane checks the test's own locking too. The wait
/// loop is written out (no predicate lambda) because the analysis cannot
/// see through closures — see the CondVar contract in common/mutex.h.
struct ClientQueue {
  Mutex mu;
  CondVar cv;
  std::deque<std::pair<size_t, SessionQuestion>> pending ISRL_GUARDED_BY(mu);
  bool closed ISRL_GUARDED_BY(mu) = false;

  void Push(size_t id, const SessionQuestion& question) {
    {
      MutexLock lock(mu);
      pending.emplace_back(id, question);
    }
    cv.NotifyOne();
  }

  void Close() {
    {
      MutexLock lock(mu);
      closed = true;
    }
    cv.NotifyAll();
  }

  /// Blocks for the next question; false once closed and drained.
  bool Pop(std::pair<size_t, SessionQuestion>* item) {
    MutexLock lock(mu);
    while (!closed && pending.empty()) cv.Wait(mu);
    if (pending.empty()) return false;
    *item = std::move(pending.front());
    pending.pop_front();
    return true;
  }
};

/// One independent algorithm stack per shard (CloneForEval copies), so no
/// Q-network scratch is ever shared across worker threads. Clones must
/// outlive the engine AND the Take() calls.
struct ShardStacks {
  std::vector<std::vector<std::unique_ptr<InteractiveAlgorithm>>> stacks;

  ShardStacks(Roster& roster, size_t shards) {
    stacks.resize(shards);
    for (size_t k = 0; k < shards; ++k) {
      for (InteractiveAlgorithm* algo : roster.all()) {
        std::unique_ptr<InteractiveAlgorithm> clone = algo->CloneForEval();
        EXPECT_NE(clone, nullptr) << algo->name();
        stacks[k].push_back(std::move(clone));
      }
    }
  }

  InteractiveAlgorithm* at(size_t shard, size_t algo_index) {
    return stacks[shard][algo_index].get();
  }

  ShardAlgorithmResolver Resolver() {
    return [this](size_t shard, const std::string& name)
               -> InteractiveAlgorithm* {
      for (auto& algo : stacks[shard]) {
        if (algo->name() == name) return algo.get();
      }
      return nullptr;
    };
  }
};

/// The reference: the same seeded population on one single-threaded
/// SessionScheduler, driven sequentially.
std::vector<InteractionResult> SequentialReference(
    Roster& roster, size_t sessions, const RunBudget& budget, uint64_t master,
    const std::vector<Vec>& utilities) {
  SessionScheduler scheduler;
  std::vector<InteractiveAlgorithm*> algos = roster.all();
  for (size_t i = 0; i < sessions; ++i) {
    SessionConfig config;
    config.budget = budget;
    config.seed = SplitSeed(master, i);
    scheduler.Add(algos[i % algos.size()]->StartSession(config));
  }
  Fleet fleet = LinearFleet(utilities);
  return DriveWithUsers(scheduler, fleet.users);
}

void AddShardedPopulation(ShardedScheduler& sharded, ShardStacks& stacks,
                          size_t sessions, size_t num_algos,
                          const RunBudget& budget, uint64_t master) {
  for (size_t i = 0; i < sessions; ++i) {
    SessionConfig config;
    config.budget = budget;
    config.seed = SplitSeed(master, i);
    InteractiveAlgorithm* algo =
        stacks.at(i % sharded.shards(), i % num_algos);
    sharded.Add(algo->StartSession(config), algo);
  }
}

// --------------------------------------------------- atomic file replacement

TEST(AtomicWriteTest, KillingASaveAtAnyByteKeepsThePreviousFile) {
  const std::string path = ::testing::TempDir() + "/isrl_atomic_write.bin";
  const std::string v1 = "previous-good-snapshot-content";
  const std::string v2 = "replacement-candidate-that-is-somewhat-longer";
  ASSERT_TRUE(snapshot::WriteFileBytes(path, v1).ok());

  for (size_t budget = 0; budget < v2.size(); ++budget) {
    snapshot::SetShortWriteForTesting(budget);
    Status died = snapshot::WriteFileBytes(path, v2);
    ASSERT_FALSE(died.ok()) << "budget " << budget;
    EXPECT_EQ(died.code(), StatusCode::kIoError) << "budget " << budget;
    Result<std::string> survivor = snapshot::ReadFileBytes(path);
    ASSERT_TRUE(survivor.ok()) << "budget " << budget;
    EXPECT_EQ(*survivor, v1) << "budget " << budget;
  }

  // The hook is one-shot: the next save goes through untouched.
  ASSERT_TRUE(snapshot::WriteFileBytes(path, v2).ok());
  Result<std::string> replaced = snapshot::ReadFileBytes(path);
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(*replaced, v2);
  std::remove(path.c_str());
}

TEST(AtomicWriteTest, StoreSaveKilledAtAnyByteKeepsThePreviousEpoch) {
  const std::string path = ::testing::TempDir() + "/isrl_atomic_store.bin";
  SessionStore previous;
  previous.BeginEpoch("epoch-1-population");
  previous.LogAnswer(0, Answer::kFirst);
  ASSERT_TRUE(previous.SyncFile(path).ok());

  SessionStore next;
  next.BeginEpoch("epoch-2-population");
  next.LogAnswer(1, Answer::kSecond);
  next.LogCancel(2);
  const size_t save_size = next.Serialize().size();
  for (size_t budget = 0; budget < save_size; ++budget) {
    snapshot::SetShortWriteForTesting(budget);
    ASSERT_FALSE(next.SyncFile(path).ok()) << "budget " << budget;
    Result<SessionStore> loaded = SessionStore::LoadFile(path);
    ASSERT_TRUE(loaded.ok()) << "budget " << budget << ": "
                             << loaded.status().ToString();
    EXPECT_EQ(loaded->population(), "epoch-1-population") << "budget "
                                                          << budget;
    ASSERT_EQ(loaded->wal().size(), 1u) << "budget " << budget;
  }
  ASSERT_TRUE(next.SyncFile(path).ok());
  Result<SessionStore> loaded = SessionStore::LoadFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->population(), "epoch-2-population");
  EXPECT_EQ(loaded->wal().size(), 2u);
  std::remove(path.c_str());
}

TEST(AtomicWriteTest, AppendShortWriteLeavesATornTailNotALostFile) {
  const std::string path = ::testing::TempDir() + "/isrl_append.bin";
  ASSERT_TRUE(snapshot::WriteFileBytes(path, "base").ok());
  snapshot::SetShortWriteForTesting(2);
  Status died = snapshot::AppendFileBytes(path, "extension");
  ASSERT_FALSE(died.ok());
  EXPECT_EQ(died.code(), StatusCode::kIoError);
  Result<std::string> bytes = snapshot::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "baseex");  // the torn tail is the reader's problem
  std::remove(path.c_str());
}

// ------------------------------------------------- append-mode session store

TEST(SessionStoreAppendTest, SyncFileAppendsConstantBytesPerRecord) {
  const std::string path = ::testing::TempDir() + "/isrl_sync_incr.bin";
  SessionStore store;
  store.BeginEpoch("population-bytes");
  ASSERT_TRUE(store.SyncFile(path).ok());
  std::vector<size_t> sizes;
  {
    Result<std::string> bytes = snapshot::ReadFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    sizes.push_back(bytes->size());
  }
  for (size_t i = 0; i < 24; ++i) {
    store.LogAnswer(i % 5, Answer::kFirst);
    ASSERT_TRUE(store.SyncFile(path).ok()) << i;
    Result<std::string> bytes = snapshot::ReadFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    sizes.push_back(bytes->size());
  }
  // O(new records) per sync, not O(whole log): every per-record delta costs
  // the same number of bytes, no matter how long the log already is.
  const size_t per_record = sizes[1] - sizes[0];
  for (size_t i = 2; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i] - sizes[i - 1], per_record) << "sync " << i;
  }
  // A sync with nothing new writes nothing.
  ASSERT_TRUE(store.SyncFile(path).ok());
  Result<std::string> unchanged = snapshot::ReadFileBytes(path);
  ASSERT_TRUE(unchanged.ok());
  EXPECT_EQ(unchanged->size(), sizes.back());

  // The multi-frame file reloads to the exact in-memory store.
  Result<SessionStore> loaded = SessionStore::LoadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->population(), "population-bytes");
  ASSERT_EQ(loaded->wal().size(), store.wal().size());
  for (size_t i = 0; i < store.wal().size(); ++i) {
    EXPECT_EQ(loaded->wal()[i].session_id, store.wal()[i].session_id) << i;
    EXPECT_EQ(loaded->wal()[i].kind, store.wal()[i].kind) << i;
    EXPECT_EQ(loaded->wal()[i].answer, store.wal()[i].answer) << i;
  }
  std::remove(path.c_str());
}

// A file holding one full-store frame and no deltas — Serialize() written
// atomically — is what earlier builds wrote for a final save; it must keep
// loading to the same store as the SyncFile file of the same state.
TEST(SessionStoreAppendTest, LoneFullStoreFrameLoadsLikeSyncFile) {
  const std::string lone = ::testing::TempDir() + "/isrl_store_lone.bin";
  const std::string synced = ::testing::TempDir() + "/isrl_store_synced.bin";
  SessionStore store;
  store.BeginEpoch("compat-population");
  ASSERT_TRUE(store.SyncFile(synced).ok());
  store.LogAnswer(3, Answer::kNoAnswer);
  store.LogCancel(1);
  ASSERT_TRUE(store.SyncFile(synced).ok());
  ASSERT_TRUE(snapshot::WriteFileBytes(lone, store.Serialize()).ok());

  Result<SessionStore> from_lone = SessionStore::LoadFile(lone);
  Result<SessionStore> from_synced = SessionStore::LoadFile(synced);
  ASSERT_TRUE(from_lone.ok()) << from_lone.status().ToString();
  ASSERT_TRUE(from_synced.ok()) << from_synced.status().ToString();
  ASSERT_EQ(from_lone->wal().size(), 2u);
  EXPECT_EQ(from_lone->Serialize(), store.Serialize());
  EXPECT_EQ(from_synced->Serialize(), store.Serialize());
  std::remove(lone.c_str());
  std::remove(synced.c_str());
}

// A delta append that dies part-way leaves a torn frame on disk, and
// LoadFile stops reading at it. A retried SyncFile must therefore not append
// after the torn bytes: it rewrites the whole store, so every record the
// retry reports durable is on disk.
TEST(SessionStoreAppendTest, SyncRetriedAfterTornAppendLosesNothing) {
  const std::string path = ::testing::TempDir() + "/isrl_store_retry.bin";
  SessionStore store;
  store.BeginEpoch("retry-population");
  ASSERT_TRUE(store.SyncFile(path).ok());
  store.LogAnswer(0, Answer::kFirst);
  snapshot::SetShortWriteForTesting(3);
  Status died = store.SyncFile(path);
  ASSERT_FALSE(died.ok());
  EXPECT_EQ(died.code(), StatusCode::kIoError);

  ASSERT_TRUE(store.SyncFile(path).ok());
  store.LogAnswer(1, Answer::kSecond);
  ASSERT_TRUE(store.SyncFile(path).ok());

  Result<SessionStore> loaded = SessionStore::LoadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->wal().size(), 2u);
  EXPECT_EQ(loaded->Serialize(), store.Serialize());
  std::remove(path.c_str());
}

TEST(SessionStoreAppendTest, TruncationAtEveryByteNeverCrashesLoadFile) {
  const std::string path = ::testing::TempDir() + "/isrl_store_torn.bin";
  const std::string torn = ::testing::TempDir() + "/isrl_store_torn_cut.bin";
  SessionStore store;
  store.BeginEpoch("torn-population");
  ASSERT_TRUE(store.SyncFile(path).ok());
  Result<std::string> epoch_only = snapshot::ReadFileBytes(path);
  ASSERT_TRUE(epoch_only.ok());
  const size_t epoch_size = epoch_only->size();
  for (size_t i = 0; i < 6; ++i) {
    store.LogAnswer(i, i % 2 == 0 ? Answer::kFirst : Answer::kSecond);
    ASSERT_TRUE(store.SyncFile(path).ok());
  }
  Result<std::string> full = snapshot::ReadFileBytes(path);
  ASSERT_TRUE(full.ok());

  size_t last_recovered = 0;
  for (size_t keep = 0; keep <= full->size(); ++keep) {
    ASSERT_TRUE(snapshot::WriteFileBytes(torn, full->substr(0, keep)).ok());
    Result<SessionStore> loaded = SessionStore::LoadFile(torn);
    if (keep < epoch_size) {
      // The epoch frame itself is torn: a clean error, never a crash.
      EXPECT_FALSE(loaded.ok()) << "keep " << keep;
      continue;
    }
    ASSERT_TRUE(loaded.ok()) << "keep " << keep << ": "
                             << loaded.status().ToString();
    EXPECT_EQ(loaded->population(), "torn-population") << "keep " << keep;
    // The recovered WAL is the longest clean prefix — monotone in the
    // number of surviving bytes, and exactly the full log at full size.
    ASSERT_LE(loaded->wal().size(), store.wal().size()) << "keep " << keep;
    EXPECT_GE(loaded->wal().size(), last_recovered) << "keep " << keep;
    last_recovered = loaded->wal().size();
    for (size_t i = 0; i < loaded->wal().size(); ++i) {
      EXPECT_EQ(loaded->wal()[i].session_id, store.wal()[i].session_id);
      EXPECT_EQ(loaded->wal()[i].answer, store.wal()[i].answer);
    }
    // A store loaded from a torn tail must keep appending safely: the next
    // sync rewrites the file whole and the tail damage is gone.
    SessionStore continued = std::move(*loaded);
    continued.LogCancel(99);
    ASSERT_TRUE(continued.SyncFile(torn).ok()) << "keep " << keep;
    Result<SessionStore> again = SessionStore::LoadFile(torn);
    ASSERT_TRUE(again.ok()) << "keep " << keep;
    ASSERT_EQ(again->wal().size(), continued.wal().size()) << "keep " << keep;
    EXPECT_EQ(again->wal().back().kind, WalRecord::kCancel) << "keep " << keep;
  }
  EXPECT_EQ(last_recovered, store.wal().size());
  std::remove(path.c_str());
  std::remove(torn.c_str());
}

// --------------------------------------------- scheduler boundary Try-APIs

TEST(TryApiTest, EveryMisuseComesBackAsAStatusNotACrash) {
  Roster roster(SmallSkyline(150, 3, 201));
  SessionScheduler scheduler;
  SessionConfig config;
  config.budget.max_rounds = 8;
  config.seed = 5;
  scheduler.Add(roster.uh_random.StartSession(config), &roster.uh_random);

  // Unknown ids.
  EXPECT_EQ(scheduler.TryPostAnswer(7, Answer::kFirst).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(scheduler.TryCancel(7).code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler.TryTake(7).status().code(), StatusCode::kNotFound);

  // Runnable: no outstanding question yet.
  EXPECT_EQ(scheduler.TryPostAnswer(0, Answer::kFirst).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(scheduler.TryTake(0).status().code(),
            StatusCode::kFailedPrecondition);

  // Awaiting: post succeeds once, double-post is an error.
  Rng urng(202);
  LinearUser user(urng.SimplexUniform(3));
  std::vector<PendingQuestion> questions = scheduler.Tick();
  ASSERT_EQ(questions.size(), 1u);
  EXPECT_TRUE(scheduler
                  .TryPostAnswer(0, user.Ask(questions[0].question.first,
                                             questions[0].question.second))
                  .ok());
  EXPECT_EQ(scheduler.TryPostAnswer(0, Answer::kFirst).code(),
            StatusCode::kFailedPrecondition);

  // Drive to completion through the Try surface only.
  while (scheduler.active() > 0) {
    for (const PendingQuestion& pq : scheduler.Tick()) {
      EXPECT_TRUE(scheduler
                      .TryPostAnswer(pq.session_id,
                                     user.Ask(pq.question.first,
                                              pq.question.second))
                      .ok());
    }
  }
  EXPECT_EQ(scheduler.TryPostAnswer(0, Answer::kFirst).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(scheduler.TryCancel(0).ok());  // idempotent on finished
  Result<InteractionResult> taken = scheduler.TryTake(0);
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EXPECT_EQ(scheduler.TryTake(0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(scheduler.TryPostAnswer(0, Answer::kFirst).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(scheduler.TryCancel(0).ok());  // idempotent on taken
}

TEST(TryApiTest, MismatchedWalSurfacesAsOutOfSyncError) {
  Roster roster(SmallSkyline(150, 3, 211));
  SessionScheduler scheduler;
  SessionConfig config;
  config.budget.max_rounds = 8;
  config.seed = 6;
  scheduler.Add(roster.uh_random.StartSession(config), &roster.uh_random);
  SessionStore store;
  Result<std::string> snapshot = scheduler.CheckpointAll();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  store.BeginEpoch(*snapshot);
  // The snapshot holds one session, but the log answers a seventh: this WAL
  // belongs to a different population. Recovery must say so in a Status —
  // it used to be an ISRL_CHECK abort.
  store.LogAnswer(7, Answer::kFirst);

  AlgorithmResolver resolver =
      [&roster](const std::string& name) -> InteractiveAlgorithm* {
    return name == roster.uh_random.name() ? &roster.uh_random : nullptr;
  };
  Result<SessionScheduler> recovered = RecoverScheduler(store, resolver);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(recovered.status().message().find("unknown session"),
            std::string::npos)
      << recovered.status().ToString();
}

// ------------------------------------------------------- sharded serving

TEST(ShardedServingTest, SeededPopulationIsBitIdenticalAtAnyShardCount) {
  Roster roster(SmallSkyline(200, 3, 221));
  RunBudget budget;
  budget.max_rounds = 12;
  const uint64_t master = 0x5EED;
  const size_t sessions = 12;
  std::vector<Vec> utilities = FleetUtilities(sessions, 3, 222);
  std::vector<InteractionResult> reference =
      SequentialReference(roster, sessions, budget, master, utilities);

  for (size_t shards : {1u, 2u, 4u}) {
    const std::string label = "shards=" + std::to_string(shards);
    ShardStacks stacks(roster, shards);
    ShardedScheduler sharded(ShardedOptions{shards});
    AddShardedPopulation(sharded, stacks, sessions, roster.all().size(),
                         budget, master);
    Fleet fleet = LinearFleet(utilities);
    Result<std::vector<InteractionResult>> results =
        DriveSharded(sharded, fleet.users);
    ASSERT_TRUE(results.ok()) << label << ": " << results.status().ToString();
    ASSERT_EQ(results->size(), reference.size()) << label;
    for (size_t i = 0; i < reference.size(); ++i) {
      ExpectSameResult(reference[i], (*results)[i],
                       label + " session " + std::to_string(i));
    }
  }
}

TEST(ShardedServingTest, ConcurrentClientThreadsReproduceTheReference) {
  Roster roster(SmallSkyline(200, 3, 231));
  RunBudget budget;
  budget.max_rounds = 10;
  const uint64_t master = 0xC11E;
  const size_t sessions = 24;
  std::vector<Vec> utilities = FleetUtilities(sessions, 3, 232);
  std::vector<InteractionResult> reference =
      SequentialReference(roster, sessions, budget, master, utilities);

  const size_t shards = 3;
  ShardStacks stacks(roster, shards);
  ShardedScheduler sharded(ShardedOptions{shards});
  AddShardedPopulation(sharded, stacks, sessions, roster.all().size(), budget,
                       master);
  Fleet fleet = LinearFleet(utilities);

  // The sink hands questions to a client pool: four external threads answer
  // them through the thread-safe boundary, emulating independent front-end
  // handlers (and giving TSan real cross-thread traffic). Dedicated-worker
  // ParallelFor (threads == tasks) is the sanctioned thread spawner: task 0
  // — the calling thread — waits for the population to drain and closes the
  // queue; tasks 1..4 are the clients.
  ClientQueue queue;
  sharded.Start([&](size_t id, const SessionQuestion& question) {
    queue.Push(id, question);
  });
  const size_t clients = 4;
  Status drained;  // written by task 0 only, read after the join below
  ParallelFor(clients + 1, clients + 1, [&](size_t task) {
    if (task == 0) {
      drained = sharded.WaitUntilDrained();
      queue.Close();
      return;
    }
    std::pair<size_t, SessionQuestion> item;
    while (queue.Pop(&item)) {
      const Answer answer = fleet.users[item.first]->Ask(item.second.first,
                                                         item.second.second);
      Status posted = sharded.TryPostAnswer(item.first, answer);
      EXPECT_TRUE(posted.ok()) << posted.ToString();
    }
  });
  sharded.Stop();
  ASSERT_TRUE(drained.ok()) << drained.ToString();

  for (size_t i = 0; i < sessions; ++i) {
    Result<InteractionResult> result = sharded.TryTake(i);
    ASSERT_TRUE(result.ok()) << i << ": " << result.status().ToString();
    ExpectSameResult(reference[i], *result, "session " + std::to_string(i));
  }
}

// Contention stress for the Status boundary (DESIGN.md §16): eight clients
// hammer TryPostAnswer/TryCancel/TryTake against four shards, each client
// interleaving its legitimate answers with seeded hostile traffic —
// out-of-range posts and cancels, and racing takes of random sessions that
// may legitimately succeed mid-run. Whatever the interleaving, every misuse
// must come back as a clean Status, and the seeded population must still
// finish bit-identical to the sequential reference. CI runs this under TSan
// (`ctest -L serving`), which is where the cross-thread traffic earns its
// keep.
TEST(ShardedServingTest, ContendedBoundaryHammeringStaysBitIdentical) {
  Roster roster(SmallSkyline(200, 3, 271));
  RunBudget budget;
  budget.max_rounds = 10;
  const uint64_t master = 0x57E55;
  const size_t sessions = 32;
  std::vector<Vec> utilities = FleetUtilities(sessions, 3, 272);
  std::vector<InteractionResult> reference =
      SequentialReference(roster, sessions, budget, master, utilities);

  const size_t shards = 4;
  ShardStacks stacks(roster, shards);
  ShardedScheduler sharded(ShardedOptions{shards});
  AddShardedPopulation(sharded, stacks, sessions, roster.all().size(), budget,
                       master);
  Fleet fleet = LinearFleet(utilities);

  // Results stolen mid-run by racing TryTake calls, merged with the final
  // sweep below. Shared guarded slots rather than per-client storage: any
  // client may take any session, but the engine hands each result out once.
  struct TakenSlots {
    Mutex mu;
    std::vector<std::unique_ptr<InteractionResult>> slots ISRL_GUARDED_BY(mu);
  } taken;
  {
    MutexLock lock(taken.mu);
    taken.slots.resize(sessions);
  }

  ClientQueue queue;
  sharded.Start([&](size_t id, const SessionQuestion& question) {
    queue.Push(id, question);
  });
  const size_t clients = 8;
  Status drained;  // written by task 0 only, read after the join below
  ParallelFor(clients + 1, clients + 1, [&](size_t task) {
    if (task == 0) {
      drained = sharded.WaitUntilDrained();
      queue.Close();
      return;
    }
    Rng rng(SplitSeed(0xC0117EAD, task));
    std::pair<size_t, SessionQuestion> item;
    while (queue.Pop(&item)) {
      // Hostile traffic around the legitimate answer. Out-of-range ids must
      // be NotFound from any thread at any time.
      if (rng.Bernoulli(0.25)) {
        EXPECT_EQ(sharded.TryPostAnswer(sessions + 7, Answer::kFirst).code(),
                  StatusCode::kNotFound);
      }
      if (rng.Bernoulli(0.25)) {
        EXPECT_EQ(sharded.TryCancel(sessions + 7).code(),
                  StatusCode::kNotFound);
      }
      if (rng.Bernoulli(0.5)) {
        // Racing take of a random session: success means it had genuinely
        // finished — keep the result; anything else must be the documented
        // FailedPrecondition (unfinished or already taken), never a crash.
        const size_t victim = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(sessions) - 1));
        Result<InteractionResult> stolen = sharded.TryTake(victim);
        if (stolen.ok()) {
          MutexLock lock(taken.mu);
          EXPECT_EQ(taken.slots[victim], nullptr) << victim;
          taken.slots[victim] =
              std::make_unique<InteractionResult>(std::move(*stolen));
        } else {
          EXPECT_EQ(stolen.status().code(), StatusCode::kFailedPrecondition)
              << stolen.status().ToString();
        }
      }
      const Answer answer = fleet.users[item.first]->Ask(item.second.first,
                                                         item.second.second);
      Status posted = sharded.TryPostAnswer(item.first, answer);
      EXPECT_TRUE(posted.ok()) << posted.ToString();
    }
  });
  sharded.Stop();
  ASSERT_TRUE(drained.ok()) << drained.ToString();

  size_t stolen_count = 0;
  for (size_t i = 0; i < sessions; ++i) {
    std::unique_ptr<InteractionResult> early;
    {
      MutexLock lock(taken.mu);
      early = std::move(taken.slots[i]);
    }
    const std::string label = "session " + std::to_string(i);
    if (early != nullptr) {
      ++stolen_count;
      ExpectSameResult(reference[i], *early, "stolen " + label);
      // The engine hands each result out exactly once: a re-take of a
      // stolen session is a Status even after Stop().
      EXPECT_EQ(sharded.TryTake(i).status().code(),
                StatusCode::kFailedPrecondition)
          << label;
      EXPECT_TRUE(sharded.TryCancel(i).ok()) << label;  // idempotent on taken
      continue;
    }
    Result<InteractionResult> result = sharded.TryTake(i);
    ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
    ExpectSameResult(reference[i], *result, label);
  }
  // Not asserted (scheduling-dependent), but useful when tuning the test.
  std::printf("contended hammering: %zu/%zu results taken mid-run\n",
              stolen_count, sessions);
}

// A session that finishes inside StartSession (a one-point dataset leaves
// nothing to ask) is finished from admission on: the engine neither counts
// it as active nor waits for a tick to report it, so the drain completes.
TEST(ShardedServingTest, SessionFinishedAtAdmissionDoesNotBlockTheDrain) {
  Dataset single(std::vector<Vec>{Vec{0.5, 0.5, 0.5}});
  UhRandom trivial(single, Roster::UhOpt());
  SessionConfig config;
  config.seed = 1;
  ASSERT_TRUE(trivial.StartSession(config)->Finished());

  Roster roster(SmallSkyline(200, 3, 291));
  RunBudget budget;
  budget.max_rounds = 6;
  std::vector<Vec> utilities = FleetUtilities(4, 3, 292);
  ShardedScheduler sharded(ShardedOptions{2});
  for (size_t i = 0; i < 4; ++i) {
    config.budget = budget;
    config.seed = SplitSeed(0xF1D, i);
    sharded.Add(i == 1 ? trivial.StartSession(config)
                       : roster.uh_simplex.StartSession(config));
  }
  EXPECT_EQ(sharded.active(), 3u);
  EXPECT_TRUE(sharded.TryCancel(1).ok());  // already finished: a no-op
  Fleet fleet = LinearFleet(utilities);
  Result<std::vector<InteractionResult>> results =
      DriveSharded(sharded, fleet.users);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_EQ((*results)[1].rounds, 0u);
  EXPECT_EQ(sharded.active(), 0u);
}

// ------------------------------------------ generated exactly-once delivery

bool SameQuestion(const SessionQuestion& a, const SessionQuestion& b) {
  return a.first == b.first && a.second == b.second && a.pair.i == b.pair.i &&
         a.pair.j == b.pair.j && a.synthetic == b.synthetic;
}

/// Question number (1-based) at which a session is cancelled instead of
/// answered; 0 = never.
std::vector<size_t> CancelRounds(size_t sessions, uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> rounds(sessions, 0);
  for (size_t& r : rounds) {
    if (rng.Bernoulli(0.3)) r = static_cast<size_t>(rng.UniformInt(1, 4));
  }
  return rounds;
}

/// The sequential reference with cancellations: DriveWithUsers' loop on one
/// SessionScheduler, cancelling each session at its CancelRounds() question.
std::vector<InteractionResult> ReferenceWithCancels(
    Roster& roster, size_t sessions, const RunBudget& budget, uint64_t master,
    const std::vector<Vec>& utilities, const std::vector<size_t>& cancel) {
  SessionScheduler scheduler;
  std::vector<InteractiveAlgorithm*> algos = roster.all();
  for (size_t i = 0; i < sessions; ++i) {
    SessionConfig config;
    config.budget = budget;
    config.seed = SplitSeed(master, i);
    scheduler.Add(algos[i % algos.size()]->StartSession(config));
  }
  Fleet fleet = LinearFleet(utilities);
  std::vector<size_t> asked(sessions, 0);
  while (scheduler.active() > 0) {
    for (const PendingQuestion& pq : scheduler.Tick()) {
      if (++asked[pq.session_id] == cancel[pq.session_id]) {
        scheduler.Cancel(pq.session_id);
      } else {
        scheduler.PostAnswer(pq.session_id,
                             fleet.users[pq.session_id]->Ask(
                                 pq.question.first, pq.question.second));
      }
    }
  }
  std::vector<InteractionResult> results;
  for (size_t i = 0; i < sessions; ++i) results.push_back(scheduler.Take(i));
  return results;
}

/// What the sink has delivered, per session, guarded for the worker threads
/// that deliver and the client loop that answers.
struct DeliveryLog {
  struct Slot {
    bool outstanding = false;  ///< delivered, not yet answered or cancelled
    size_t start = 0;          ///< the Start() that last delivered it
    size_t questions = 0;      ///< distinct questions delivered
    SessionQuestion question;
  };
  Mutex mu;
  CondVar cv;
  std::vector<Slot> slots ISRL_GUARDED_BY(mu);
  size_t start ISRL_GUARDED_BY(mu) = 0;  ///< Start() calls so far
  size_t finished ISRL_GUARDED_BY(mu) = 0;
  size_t twice_in_one_start ISRL_GUARDED_BY(mu) = 0;
  size_t changed_on_redelivery ISRL_GUARDED_BY(mu) = 0;
  size_t redeliveries ISRL_GUARDED_BY(mu) = 0;

  void Deliver(size_t id, const SessionQuestion& question) {
    {
      MutexLock lock(mu);
      Slot& slot = slots[id];
      if (!slot.outstanding) {
        slot.outstanding = true;
        slot.question = question;
        ++slot.questions;
      } else if (slot.start == start) {
        ++twice_in_one_start;
      } else {
        ++redeliveries;
        if (!SameQuestion(slot.question, question)) ++changed_on_redelivery;
      }
      slot.start = start;
    }
    cv.NotifyAll();
  }

  void Finish() {
    {
      MutexLock lock(mu);
      ++finished;
    }
    cv.NotifyAll();
  }

  /// Delivered by the current Start() and not yet answered.
  bool Ready(size_t id) const ISRL_REQUIRES(mu) {
    return slots[id].outstanding && slots[id].start == start;
  }
};

// Generated schedules (seeded) over 1, 2 and 4 shards: every step withholds
// each delivered question for a random number of steps, some sessions are
// cancelled instead of answered, and serving is cycled through Stop()/
// Start(). The sink must see each question exactly once per Start() — a
// question still unanswered at a Stop() comes back, unchanged, on the next
// Start() — and the population must finish bit-identical to the sequential
// reference with the same cancellations.
TEST(ShardedServingTest, GeneratedScheduleDeliversEachQuestionOncePerStart) {
  Roster roster(SmallSkyline(200, 3, 281));
  RunBudget budget;
  budget.max_rounds = 8;
  const size_t sessions = 12;
  size_t redeliveries = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const uint64_t master = SplitSeed(0xE1AC7, seed);
    std::vector<Vec> utilities = FleetUtilities(sessions, 3, master);
    const std::vector<size_t> cancel = CancelRounds(sessions, master + 1);
    const std::vector<InteractionResult> reference = ReferenceWithCancels(
        roster, sessions, budget, master, utilities, cancel);
    for (size_t shards : {1u, 2u, 4u}) {
      const std::string label = "seed " + std::to_string(seed) + " shards " +
                                std::to_string(shards);
      ShardStacks stacks(roster, shards);
      ShardedScheduler sharded(ShardedOptions{shards});
      AddShardedPopulation(sharded, stacks, sessions, roster.all().size(),
                           budget, master);
      Fleet fleet = LinearFleet(utilities);
      DeliveryLog log;
      {
        MutexLock lock(log.mu);
        log.slots.resize(sessions);
      }
      sharded.SetHarvestSink(
          [&log](size_t, const SessionTraceRecord&) { log.Finish(); });
      auto sink = [&log](size_t id, const SessionQuestion& question) {
        log.Deliver(id, question);
      };
      sharded.Start(sink);

      Rng rng(SplitSeed(master, shards));
      std::vector<int> hold(sessions, -1);  // steps left; -1 = not drawn
      std::vector<size_t> answered(sessions, 0);
      while (true) {
        std::vector<std::pair<size_t, SessionQuestion>> answer_now;
        std::vector<size_t> cancel_now;
        {
          MutexLock lock(log.mu);
          bool any = false;
          while (log.finished < sessions) {
            for (size_t id = 0; id < sessions && !any; ++id) {
              any = log.Ready(id);
            }
            if (any) break;
            log.cv.Wait(log.mu);
          }
          if (log.finished == sessions) break;
          // Only questions delivered by this Start() are answered: one
          // held from before a Stop() waits for its re-delivery.
          for (size_t id = 0; id < sessions; ++id) {
            if (!log.Ready(id)) continue;
            if (hold[id] < 0) hold[id] = static_cast<int>(rng.UniformInt(0, 3));
            if (hold[id]-- > 0) continue;
            DeliveryLog::Slot& slot = log.slots[id];
            slot.outstanding = false;
            if (slot.questions == cancel[id]) {
              cancel_now.push_back(id);
            } else {
              answer_now.emplace_back(id, slot.question);
            }
          }
        }
        for (const auto& [id, question] : answer_now) {
          ++answered[id];
          EXPECT_TRUE(sharded
                          .TryPostAnswer(id, fleet.users[id]->Ask(
                                                 question.first,
                                                 question.second))
                          .ok())
              << label << " session " << id;
        }
        for (size_t id : cancel_now) {
          EXPECT_TRUE(sharded.TryCancel(id).ok()) << label << " session " << id;
        }
        if (rng.Bernoulli(0.2)) {
          sharded.Stop();
          {
            MutexLock lock(log.mu);
            ++log.start;
          }
          sharded.Start(sink);
        }
      }
      ASSERT_TRUE(sharded.WaitUntilDrained().ok()) << label;
      sharded.Stop();
      {
        MutexLock lock(log.mu);
        EXPECT_EQ(log.twice_in_one_start, 0u) << label;
        EXPECT_EQ(log.changed_on_redelivery, 0u) << label;
        redeliveries += log.redeliveries;
      }
      for (size_t id = 0; id < sessions; ++id) {
        Result<InteractionResult> result = sharded.TryTake(id);
        ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
        ExpectSameResult(reference[id], *result,
                         label + " session " + std::to_string(id));
        EXPECT_EQ(result->rounds, answered[id]) << label << " session " << id;
      }
    }
  }
  EXPECT_GT(redeliveries, 0u);  // the Stop()/Start() path was exercised
}

TEST(ShardedServingTest, BoundaryMisuseIsAlwaysAStatus) {
  Roster roster(SmallSkyline(150, 3, 241));
  RunBudget budget;
  budget.max_rounds = 6;
  ShardStacks stacks(roster, 2);
  ShardedScheduler sharded(ShardedOptions{2});
  AddShardedPopulation(sharded, stacks, 4, roster.all().size(), budget,
                       0xB0B);
  std::vector<Vec> utilities = FleetUtilities(4, 3, 242);
  Fleet fleet = LinearFleet(utilities);

  // Before Start(): valid ids are rejected with "not serving", bad ids with
  // NotFound.
  EXPECT_EQ(sharded.TryPostAnswer(0, Answer::kFirst).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(sharded.TryPostAnswer(99, Answer::kFirst).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(sharded.TryCancel(99).code(), StatusCode::kNotFound);
  EXPECT_EQ(sharded.TryTake(99).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(sharded.TryTake(0).status().code(),
            StatusCode::kFailedPrecondition);

  // While serving: double answers bounce, cancellation finishes the session
  // with its best-so-far. The sink runs on the question's own shard worker,
  // so the queued answer cannot be applied before the sink returns — the
  // duplicate post is deterministically "already queued".
  sharded.Start([&](size_t id, const SessionQuestion& question) {
    if (id == 1) {
      EXPECT_TRUE(sharded.TryCancel(id).ok());
      EXPECT_TRUE(sharded.TryCancel(id).ok());  // queued-cancel is idempotent
      return;
    }
    const Answer answer =
        fleet.users[id]->Ask(question.first, question.second);
    EXPECT_TRUE(sharded.TryPostAnswer(id, answer).ok());
    EXPECT_EQ(sharded.TryPostAnswer(id, answer).code(),
              StatusCode::kFailedPrecondition);
  });
  ASSERT_TRUE(sharded.WaitUntilDrained().ok());
  sharded.Stop();
  for (size_t id = 0; id < 4; ++id) {
    Result<InteractionResult> result = sharded.TryTake(id);
    ASSERT_TRUE(result.ok()) << id << ": " << result.status().ToString();
  }
  EXPECT_EQ(sharded.TryTake(0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(sharded.TryCancel(0).ok());  // idempotent on taken, even stopped
}

TEST(ShardedDurabilityTest, DurableShardedRunRecoversPerShardFromItsFiles) {
  Roster roster(SmallSkyline(200, 3, 251));
  RunBudget budget;
  budget.max_rounds = 8;
  const uint64_t master = 0xD0C5;
  const size_t sessions = 9;
  const size_t shards = 3;
  const std::string prefix = ::testing::TempDir() + "/isrl_shard_pop";
  std::vector<Vec> utilities = FleetUtilities(sessions, 3, 252);
  std::vector<InteractionResult> reference =
      SequentialReference(roster, sessions, budget, master, utilities);

  ShardStacks stacks(roster, shards);
  ShardedOptions options;
  options.shards = shards;
  options.checkpoint_every_ticks = 2;
  ShardedScheduler sharded(options);
  AddShardedPopulation(sharded, stacks, sessions, roster.all().size(), budget,
                       master);
  ASSERT_TRUE(sharded.EnableDurability(prefix).ok());
  Fleet fleet = LinearFleet(utilities);
  Result<std::vector<InteractionResult>> results =
      DriveSharded(sharded, fleet.users);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  for (size_t i = 0; i < sessions; ++i) {
    ExpectSameResult(reference[i], (*results)[i],
                     "durable session " + std::to_string(i));
  }

  // Every shard recovers independently from its own file. Sessions whose
  // final answer sits in the WAL come back runnable (replay posts answers;
  // the finishing tick belongs to serving), so restart serving: the first
  // tick finishes them without asking anything, and every result matches
  // the reference again (Take() was never logged, so the recovered slots
  // still hold them).
  ShardStacks recovery_stacks(roster, shards);
  Result<std::unique_ptr<ShardedScheduler>> recovered =
      ShardedScheduler::Recover(options, prefix, recovery_stacks.Resolver());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->size(), sessions);
  Fleet fresh = LinearFleet(utilities);
  Result<std::vector<InteractionResult>> refinished =
      DriveSharded(**recovered, fresh.users);
  ASSERT_TRUE(refinished.ok()) << refinished.status().ToString();
  for (size_t i = 0; i < sessions; ++i) {
    ExpectSameResult(reference[i], (*refinished)[i],
                     "recovered session " + std::to_string(i));
  }

  // Shard files from mismatched populations are rejected as a unit.
  ShardedOptions wrong = options;
  wrong.shards = 2;
  ShardStacks wrong_stacks(roster, 2);
  Result<std::unique_ptr<ShardedScheduler>> mismatched =
      ShardedScheduler::Recover(wrong, prefix, wrong_stacks.Resolver());
  EXPECT_FALSE(mismatched.ok());

  // Torn shard file: cut shard 0's final file at byte offsets across its
  // whole length. LoadFile+RecoverScheduler must never crash; whenever they
  // succeed, finishing the recovered sessions against fresh (stateless)
  // users reproduces the reference exactly — the shard resumes from its
  // last durable prefix.
  const std::string shard0 = ShardedScheduler::ShardPath(prefix, 0);
  const std::string torn = ::testing::TempDir() + "/isrl_shard_torn.bin";
  Result<std::string> full = snapshot::ReadFileBytes(shard0);
  ASSERT_TRUE(full.ok());
  const std::vector<size_t> shard0_sessions = {0, 3, 6};
  size_t recovered_ok = 0;
  for (size_t keep = 0; keep <= full->size(); keep += 7) {
    ASSERT_TRUE(snapshot::WriteFileBytes(torn, full->substr(0, keep)).ok());
    Result<SessionStore> loaded = SessionStore::LoadFile(torn);
    if (!loaded.ok()) continue;  // clean rejection (epoch frame torn)
    ShardStacks torn_stacks(roster, 1);
    AlgorithmResolver resolver =
        [&torn_stacks](const std::string& name) -> InteractiveAlgorithm* {
      return torn_stacks.Resolver()(0, name);
    };
    Result<SessionScheduler> scheduler = RecoverScheduler(*loaded, resolver);
    ASSERT_TRUE(scheduler.ok()) << "keep " << keep << ": "
                                << scheduler.status().ToString();
    std::vector<Vec> local_utilities;
    for (size_t global : shard0_sessions) {
      local_utilities.push_back(utilities[global]);
    }
    Fleet local = LinearFleet(local_utilities);
    std::vector<InteractionResult> finished =
        DriveWithUsers(*scheduler, local.users);
    ASSERT_EQ(finished.size(), shard0_sessions.size()) << "keep " << keep;
    for (size_t j = 0; j < shard0_sessions.size(); ++j) {
      ExpectSameResult(reference[shard0_sessions[j]], finished[j],
                       "keep " + std::to_string(keep) + " local " +
                           std::to_string(j));
    }
    ++recovered_ok;
  }
  EXPECT_GT(recovered_ok, 0u);

  for (size_t k = 0; k < shards; ++k) {
    std::remove(ShardedScheduler::ShardPath(prefix, k).c_str());
  }
  std::remove(ShardedScheduler::ManifestPath(prefix).c_str());
  std::remove(torn.c_str());
}

TEST(ShardedDurabilityTest, MidRunWriteFailureHaltsTheShardRecoverably) {
  Roster roster(SmallSkyline(200, 3, 261));
  RunBudget budget;
  budget.max_rounds = 8;
  const uint64_t master = 0xFA17;
  const size_t sessions = 6;
  const size_t shards = 2;
  const std::string prefix = ::testing::TempDir() + "/isrl_halt_pop";
  std::vector<Vec> utilities = FleetUtilities(sessions, 3, 262);
  std::vector<InteractionResult> reference =
      SequentialReference(roster, sessions, budget, master, utilities);

  ShardStacks stacks(roster, shards);
  ShardedOptions options;
  options.shards = shards;
  ShardedScheduler sharded(options);
  AddShardedPopulation(sharded, stacks, sessions, roster.all().size(), budget,
                       master);
  ASSERT_TRUE(sharded.EnableDurability(prefix).ok());

  // The first durable append after Start dies mid-write: that shard halts
  // with the IoError instead of applying unlogged answers, and the drive
  // surfaces it.
  snapshot::SetShortWriteForTesting(3);
  Fleet fleet = LinearFleet(utilities);
  Result<std::vector<InteractionResult>> crashed =
      DriveSharded(sharded, fleet.users);
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), StatusCode::kIoError);
  EXPECT_FALSE(sharded.error().ok());

  // Both shard files are still loadable (the torn append tail is dropped),
  // and the whole population recovers and finishes against fresh stateless
  // users with reference-identical results.
  ShardStacks recovery_stacks(roster, shards);
  Result<std::unique_ptr<ShardedScheduler>> recovered =
      ShardedScheduler::Recover(options, prefix, recovery_stacks.Resolver());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  Fleet fresh = LinearFleet(utilities);
  Result<std::vector<InteractionResult>> finished =
      DriveSharded(**recovered, fresh.users);
  ASSERT_TRUE(finished.ok()) << finished.status().ToString();
  for (size_t i = 0; i < sessions; ++i) {
    ExpectSameResult(reference[i], (*finished)[i],
                     "halted-recovery session " + std::to_string(i));
  }
  for (size_t k = 0; k < shards; ++k) {
    std::remove(ShardedScheduler::ShardPath(prefix, k).c_str());
  }
  std::remove(ShardedScheduler::ManifestPath(prefix).c_str());
}

}  // namespace
}  // namespace isrl
