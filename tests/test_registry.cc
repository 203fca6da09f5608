// Versioned model registry suite (DESIGN.md §18): the registry's atomic
// hot-swap contract — sessions pin the immutable snapshot they start under,
// Publish() never perturbs an in-flight or checkpointed episode, restore
// re-pins the exact published version recorded in the snapshot (refusing
// providers that no longer serve it, with the §14 fingerprint messages) —
// plus the continuous-learning loop built on it: trace harvesting through
// the scheduler sink, trace-driven retraining, drift detection, and the
// end-to-end claim that a hot-swapped retrained model answers users in
// fewer questions. Run with `ctest -L registry`; CI runs this label under
// TSan (concurrent publishes race shard ticks in the sharded tests).
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/aa.h"
#include "core/ea.h"
#include "core/scheduler.h"
#include "data/skyline.h"
#include "data/synthetic.h"
#include "nn/layer.h"
#include "nn/registry.h"
#include "nn/serialize.h"
#include "serve/drift.h"
#include "serve/sharding.h"
#include "serve/trace_store.h"
#include "serve/trainer.h"
#include "user/sampler.h"
#include "user/user.h"

namespace isrl {
namespace {

/// Single-threaded per-shard cache of snapshot replicas over a shared
/// provider, for recovering a registry-pinned sharded population: the
/// first Pin of a version replicates it (fresh scratch), later Pins reuse
/// the replica. One cache per shard worker keeps PredictBatch scratch
/// unshared across threads while the underlying registry stays shared and
/// hot-swappable. NOT thread-safe — one cache per thread.
class ModelReplicaCache : public nn::ModelProvider {
 public:
  /// `source` must outlive the cache.
  explicit ModelReplicaCache(nn::ModelProvider* source) : source_(source) {}

  std::shared_ptr<const nn::ModelSnapshot> Pin(uint64_t version) override {
    auto it = replicas_.find(version);
    if (it != replicas_.end()) return it->second;
    std::shared_ptr<const nn::ModelSnapshot> source = source_->Pin(version);
    if (source == nullptr) return nullptr;
    std::shared_ptr<const nn::ModelSnapshot> replica = source->Replicate();
    replicas_.emplace(version, replica);
    return replica;
  }

 private:
  nn::ModelProvider* source_;
  std::unordered_map<uint64_t, std::shared_ptr<const nn::ModelSnapshot>>
      replicas_;
};

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

EaOptions EaOpt() {
  EaOptions o;
  o.epsilon = 0.1;
  o.dqn = FastDqn();
  return o;
}

AaOptions AaOpt() {
  AaOptions o;
  o.epsilon = 0.1;
  o.dqn = FastDqn();
  return o;
}

/// Moves one Q-network weight so the fingerprint diverges from any snapshot
/// published earlier (same trick as the checkpoint suite).
void PerturbNetwork(rl::DqnAgent& agent) {
  auto& first = static_cast<nn::Linear&>(agent.main_network().layer(0));
  first.weights()[0] += 0.25;
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

/// Drives a session to completion against `user`, answering every question.
InteractionResult DriveToEnd(InteractionSession& session, UserOracle& user) {
  while (std::optional<SessionQuestion> q = session.NextQuestion()) {
    session.PostAnswer(user.Ask(q->first, q->second));
  }
  return session.Finish();
}

/// Answers up to `rounds` questions; false once the session terminated.
bool DriveRounds(InteractionSession& session, UserOracle& user,
                 size_t rounds) {
  for (size_t r = 0; r < rounds; ++r) {
    std::optional<SessionQuestion> q = session.NextQuestion();
    if (!q.has_value()) return false;
    session.PostAnswer(user.Ask(q->first, q->second));
  }
  return true;
}

SessionTraceRecord MakeRecord(size_t rounds, Termination termination,
                              uint64_t version = 1) {
  SessionTraceRecord record;
  record.model_version = version;
  record.rounds = rounds;
  record.termination = termination;
  return record;
}

// ------------------------------------------------------- registry basics

TEST(RegistryTest, PublishPinAndFingerprint) {
  Dataset sky = SmallSkyline(200, 3, 5);
  Ea ea(sky, EaOpt());
  nn::ModelRegistry registry;
  EXPECT_EQ(registry.Latest(), nullptr);
  EXPECT_EQ(registry.Pin(1), nullptr);

  const uint64_t v1_fp = nn::NetworkFingerprint(ea.agent().main_network());
  EXPECT_EQ(registry.Publish(ea.agent().main_network()), 1u);
  EXPECT_EQ(registry.Pin(2), nullptr);
  std::shared_ptr<const nn::ModelSnapshot> v1 = registry.Latest();
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_EQ(v1->fingerprint(), v1_fp);
  EXPECT_TRUE(v1->SameWeights(ea.agent().main_network()));

  // A publish installs an immutable copy: perturbing the source network
  // afterwards changes neither the pinned snapshot nor its fingerprint.
  PerturbNetwork(ea.agent());
  EXPECT_FALSE(v1->SameWeights(ea.agent().main_network()));
  EXPECT_EQ(v1->fingerprint(), v1_fp);

  EXPECT_EQ(registry.Publish(ea.agent().main_network()), 2u);
  std::shared_ptr<const nn::ModelSnapshot> v2 = registry.Latest();
  ASSERT_NE(v2, nullptr);
  EXPECT_NE(v2->fingerprint(), v1_fp);
  EXPECT_EQ(registry.Pin(1), v1);
  EXPECT_EQ(registry.Pin(2), v2);
  EXPECT_EQ(registry.Pin(0), nullptr);
  EXPECT_EQ(registry.Pin(3), nullptr);
}

TEST(RegistryTest, SameWeightsComparesEveryBit) {
  Dataset sky = SmallSkyline(200, 3, 5);
  Ea ea(sky, EaOpt());
  const nn::Network& net = ea.agent().main_network();
  const nn::ModelSnapshot snapshot(1, net);
  EXPECT_TRUE(snapshot.SameWeights(net));
  EXPECT_TRUE(snapshot.SameWeights(net.Clone()));

  // One ULP on the very last parameter is a different model.
  nn::Network moved = net.Clone();
  auto& head = static_cast<nn::Linear&>(moved.layer(moved.num_layers() - 1));
  head.biases().back() = std::nextafter(head.biases().back(), 1.0);
  EXPECT_FALSE(snapshot.SameWeights(moved));
  EXPECT_FALSE(snapshot.SameWeights(nn::Network()));
}

TEST(RegistryTest, ReplicaCacheReplicatesOncePerVersion) {
  Dataset sky = SmallSkyline(200, 3, 6);
  Ea ea(sky, EaOpt());
  nn::ModelRegistry registry;
  registry.Publish(ea.agent().main_network());

  ModelReplicaCache cache(&registry);
  std::shared_ptr<const nn::ModelSnapshot> replica = cache.Pin(1);
  ASSERT_NE(replica, nullptr);
  // Same identity, private scratch: the replica is a distinct object.
  EXPECT_NE(replica, registry.Pin(1));
  EXPECT_EQ(replica->version(), 1u);
  EXPECT_EQ(replica->fingerprint(), registry.Pin(1)->fingerprint());
  // Second pin reuses the replica; unknown versions miss through.
  EXPECT_EQ(cache.Pin(1), replica);
  EXPECT_EQ(cache.Pin(7), nullptr);
}

// ------------------------------------------- pin semantics across Publish

TEST(RegistrySessionTest, InFlightSessionUnaffectedByPublish) {
  Dataset sky = SmallSkyline(250, 3, 11);
  Ea ea(sky, EaOpt());
  nn::ModelRegistry registry;
  registry.Publish(ea.agent().main_network());
  Rng urng(12);
  LinearUser user(urng.SimplexUniform(sky.dim()));

  SessionConfig config;
  config.seed = 99;
  config.model = registry.Latest();

  // Reference: the whole episode under v1, no publish anywhere.
  std::unique_ptr<InteractionSession> reference = ea.StartSession(config);
  InteractionResult expected = DriveToEnd(*reference, user);

  // Same seed, same pin; v2 with different weights lands mid-episode.
  std::unique_ptr<InteractionSession> session = ea.StartSession(config);
  ASSERT_TRUE(DriveRounds(*session, user, 2));
  PerturbNetwork(ea.agent());
  EXPECT_EQ(registry.Publish(ea.agent().main_network()), 2u);
  InteractionResult actual = DriveToEnd(*session, user);

  ExpectSameResult(expected, actual, "publish mid-episode");
  EXPECT_EQ(session->ModelVersion(), 1u);
}

// One algorithm template for the checkpoint-across-swap contract; run for
// both RL algorithms (their snapshots carry the version + fingerprint).
template <typename Algo, typename Options>
void CheckpointAcrossSwap(Options options, const std::string& label) {
  Dataset sky = SmallSkyline(250, 3, 13);
  Algo algo(sky, options);
  nn::ModelRegistry registry;
  registry.Publish(algo.agent().main_network());
  Rng urng(14);
  LinearUser user(urng.SimplexUniform(sky.dim()));

  SessionConfig config;
  config.seed = 4242;
  config.model = registry.Latest();

  std::unique_ptr<InteractionSession> reference = algo.StartSession(config);
  InteractionResult expected = DriveToEnd(*reference, user);

  std::unique_ptr<InteractionSession> session = algo.StartSession(config);
  ASSERT_TRUE(DriveRounds(*session, user, 2)) << label;
  Result<std::string> bytes = session->SaveState();
  ASSERT_TRUE(bytes.ok()) << label << ": " << bytes.status().ToString();

  // The swap happens while the checkpoint is on disk: v2 has different
  // weights AND the algorithm instance's live network moves with it.
  PerturbNetwork(algo.agent());
  EXPECT_EQ(registry.Publish(algo.agent().main_network()), 2u);

  // Restore through the provider: the snapshot's recorded version re-pins
  // v1, and the episode finishes bit-identically to the uninterrupted
  // reference even though v2 is now Latest().
  SessionConfig restore;
  restore.models = &registry;
  Result<std::unique_ptr<InteractionSession>> restored =
      algo.RestoreSession(*bytes, restore);
  ASSERT_TRUE(restored.ok()) << label << ": " << restored.status().ToString();
  EXPECT_EQ((*restored)->ModelVersion(), 1u) << label;
  InteractionResult actual = DriveToEnd(**restored, user);
  ExpectSameResult(expected, actual, label + " restored across swap");

  // A provider that no longer serves v1 is refused with the version it
  // failed to resolve.
  nn::ModelRegistry empty;
  SessionConfig missing;
  missing.models = &empty;
  Result<std::unique_ptr<InteractionSession>> unserved =
      algo.RestoreSession(*bytes, missing);
  ASSERT_FALSE(unserved.ok()) << label;
  EXPECT_NE(unserved.status().message().find(
                "pinned to model version 1, which the restore-time model "
                "provider does not serve"),
            std::string::npos)
      << label << ": " << unserved.status().ToString();

  // An explicit pin with the wrong weights trips the §14 fingerprint
  // binding, exactly as a retrained in-place network always has.
  SessionConfig wrong;
  wrong.model = registry.Pin(2);
  Result<std::unique_ptr<InteractionSession>> mismatched =
      algo.RestoreSession(*bytes, wrong);
  ASSERT_FALSE(mismatched.ok()) << label;
  EXPECT_NE(mismatched.status().message().find("bound to Q-network"),
            std::string::npos)
      << label << ": " << mismatched.status().ToString();
}

TEST(RegistrySessionTest, EaCheckpointRestoresAcrossSwap) {
  CheckpointAcrossSwap<Ea>(EaOpt(), "EA");
}

TEST(RegistrySessionTest, AaCheckpointRestoresAcrossSwap) {
  CheckpointAcrossSwap<Aa>(AaOpt(), "AA");
}

// ------------------------------------------------------------ trace store

TEST(TraceStoreTest, RingKeepsNewestInHarvestOrder) {
  TraceStore store(4);
  for (size_t i = 0; i < 6; ++i) {
    store.Harvest(i, MakeRecord(i, Termination::kConverged));
  }
  EXPECT_EQ(store.harvested(), 6u);
  std::vector<SessionTraceRecord> window = store.Window();
  ASSERT_EQ(window.size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(window[i].rounds, i + 2);
}

TEST(TraceStoreTest, TrainingUtilitiesPicksNewestCarriers) {
  TraceStore store(8);
  Rng rng(21);
  for (size_t i = 0; i < 6; ++i) {
    SessionTraceRecord record = MakeRecord(i, Termination::kConverged);
    // Every other record failed to learn a utility region.
    if (i % 2 == 0) {
      record.has_utility = true;
      record.utility = Vec(3, static_cast<double>(i));
    }
    store.Harvest(i, record);
  }
  // Carriers are rounds 0, 2, 4; the newest two, oldest first.
  std::vector<Vec> utilities = store.TrainingUtilities(2);
  ASSERT_EQ(utilities.size(), 2u);
  EXPECT_DOUBLE_EQ(utilities[0][0], 2.0);
  EXPECT_DOUBLE_EQ(utilities[1][0], 4.0);
  OutcomeCounts outcomes = store.WindowOutcomes();
  EXPECT_EQ(outcomes.Failures(), 0u);
}

// -------------------------------------------------------- harvest wiring

TEST(HarvestTest, SchedulerSinkEmitsOneRecordPerFinishedSession) {
  Dataset sky = SmallSkyline(250, 3, 31);
  Ea ea(sky, EaOpt());
  nn::ModelRegistry registry;
  registry.Publish(ea.agent().main_network());

  TraceStore traces;
  SessionScheduler scheduler;
  scheduler.SetHarvestSink(
      [&traces](size_t id, const SessionTraceRecord& record) {
        traces.Harvest(id, record);
      });
  const size_t sessions = 5;
  Rng urng(32);
  std::vector<std::unique_ptr<LinearUser>> owned;
  std::vector<UserOracle*> users;
  for (size_t s = 0; s < sessions; ++s) {
    owned.push_back(
        std::make_unique<LinearUser>(urng.SimplexUniform(sky.dim())));
    users.push_back(owned.back().get());
    SessionConfig config;
    config.seed = 7000 + s;
    config.model = registry.Latest();
    scheduler.Add(ea.StartSession(config), &ea);
  }
  DriveWithUsers(scheduler, users);

  EXPECT_EQ(traces.harvested(), sessions);
  for (const SessionTraceRecord& record : traces.Window()) {
    EXPECT_EQ(record.model_version, 1u);
    EXPECT_GE(record.rounds, 1u);
    if (record.has_utility) {
      EXPECT_EQ(record.utility.dim(), sky.dim());
    }
  }
}

TEST(HarvestTest, CancelledSessionsAreHarvestedToo) {
  Dataset sky = SmallSkyline(250, 3, 33);
  Ea ea(sky, EaOpt());
  TraceStore traces;
  SessionScheduler scheduler;
  scheduler.SetHarvestSink(
      [&traces](size_t id, const SessionTraceRecord& record) {
        traces.Harvest(id, record);
      });
  SessionConfig config;
  config.seed = 77;
  scheduler.Add(ea.StartSession(config), &ea);
  ASSERT_TRUE(scheduler.TryCancel(0).ok());
  EXPECT_EQ(traces.harvested(), 1u);
}

// ----------------------------------------------------- continuous trainer

TEST(TrainerTest, RetrainOnceNeedsUtilitiesThenPublishes) {
  Dataset sky = SmallSkyline(250, 3, 41);
  Ea ea(sky, EaOpt());
  nn::ModelRegistry registry;
  TraceStore traces;
  ContinuousTrainer trainer(
      traces, registry,
      RetrainHooks{
          [&ea](const std::vector<Vec>& utilities) {
            return ea.Train(utilities);
          },
          [&ea]() -> const nn::Network& { return ea.agent().main_network(); }});

  Result<RetrainOutcome> starved = trainer.RetrainOnce();
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.Latest(), nullptr);

  Rng rng(42);
  for (size_t i = 0; i < 3; ++i) {
    SessionTraceRecord record = MakeRecord(5, Termination::kConverged);
    record.has_utility = true;
    record.utility = rng.SimplexUniform(sky.dim());
    traces.Harvest(i, record);
  }
  Result<RetrainOutcome> retrained = trainer.RetrainOnce();
  ASSERT_TRUE(retrained.ok()) << retrained.status().ToString();
  EXPECT_EQ(retrained->samples, 3u);
  EXPECT_EQ(retrained->version, 1u);
  ASSERT_NE(registry.Latest(), nullptr);
  EXPECT_EQ(registry.Latest()->version(), 1u);
}

// --------------------------------------------------------- drift detector

TEST(DriftTest, FlagsShiftedMeanRounds) {
  std::vector<double> rounds(64, 8.0);
  for (size_t i = 0; i < rounds.size(); i += 2) rounds[i] = 10.0;
  DriftBaseline baseline =
      DriftBaseline::FromPopulation(rounds, OutcomeCounts{});

  std::vector<SessionTraceRecord> live;
  for (size_t i = 0; i < 32; ++i) {
    live.push_back(MakeRecord(14 + (i % 2), Termination::kConverged));
  }
  DriftReport report = DetectDrift(baseline, live);
  EXPECT_TRUE(report.drifted);
  EXPECT_GT(report.rounds_z, 3.0);
  EXPECT_NE(report.reason.find("mean rounds shifted"), std::string::npos);
}

TEST(DriftTest, FlagsRisingFailureFraction) {
  std::vector<double> rounds(64, 9.0);
  for (size_t i = 0; i < rounds.size(); i += 2) rounds[i] = 8.0;
  DriftBaseline baseline =
      DriftBaseline::FromPopulation(rounds, OutcomeCounts{});

  // Same round counts, but half the live sessions now blow their budget.
  std::vector<SessionTraceRecord> live;
  for (size_t i = 0; i < 32; ++i) {
    live.push_back(MakeRecord(8 + (i % 2),
                              i % 2 == 0 ? Termination::kBudgetExhausted
                                         : Termination::kConverged));
  }
  DriftReport report = DetectDrift(baseline, live);
  EXPECT_TRUE(report.drifted);
  EXPECT_NE(report.reason.find("failure fraction rose"), std::string::npos);
}

TEST(DriftTest, NeverFlagsThinEvidenceOrStablePopulations) {
  std::vector<double> rounds(64, 8.0);
  for (size_t i = 0; i < rounds.size(); i += 2) rounds[i] = 10.0;
  DriftBaseline baseline =
      DriftBaseline::FromPopulation(rounds, OutcomeCounts{});

  // Wildly shifted but below min_live_episodes: stays quiet.
  std::vector<SessionTraceRecord> thin(8, MakeRecord(40, Termination::kConverged));
  EXPECT_FALSE(DetectDrift(baseline, thin).drifted);

  // The training population served back to itself: stays quiet.
  std::vector<SessionTraceRecord> same;
  for (size_t i = 0; i < 64; ++i) {
    same.push_back(MakeRecord(i % 2 == 0 ? 10 : 8, Termination::kConverged));
  }
  EXPECT_FALSE(DetectDrift(baseline, same).drifted);
}

TEST(DriftTest, FlagsBudgetStarvedServingPopulation) {
  // End to end: the baseline comes from a healthy harvested wave; the live
  // wave runs under a starved round budget, so every session terminates
  // early with kBudgetExhausted — both detector channels fire.
  Dataset sky = SmallSkyline(250, 3, 51);
  Ea ea(sky, EaOpt());
  nn::ModelRegistry registry;
  registry.Publish(ea.agent().main_network());
  Rng urng(52);

  auto serve = [&](size_t count, uint64_t seed_base, size_t max_rounds,
                   TraceStore& traces) {
    SessionScheduler scheduler;
    scheduler.SetHarvestSink(
        [&traces](size_t id, const SessionTraceRecord& record) {
          traces.Harvest(id, record);
        });
    std::vector<std::unique_ptr<LinearUser>> owned;
    std::vector<UserOracle*> users;
    for (size_t s = 0; s < count; ++s) {
      owned.push_back(
          std::make_unique<LinearUser>(urng.SimplexUniform(sky.dim())));
      users.push_back(owned.back().get());
      SessionConfig config;
      config.budget.max_rounds = max_rounds;
      config.seed = seed_base + s;
      config.model = registry.Latest();
      scheduler.Add(ea.StartSession(config), &ea);
    }
    DriveWithUsers(scheduler, users);
  };

  TraceStore healthy;
  serve(24, 1000, 64, healthy);
  DriftBaseline baseline = DriftBaseline::FromPopulation(
      [&] {
        std::vector<double> rounds;
        for (const SessionTraceRecord& r : healthy.Window()) {
          rounds.push_back(static_cast<double>(r.rounds));
        }
        return rounds;
      }(),
      healthy.WindowOutcomes());
  EXPECT_DOUBLE_EQ(baseline.failure_fraction, 0.0);

  TraceStore starved;
  serve(24, 2000, 2, starved);
  DriftReport report = DetectDrift(baseline, starved.Window());
  EXPECT_TRUE(report.drifted) << report.reason;
}

// ------------------------------------- the closed loop lowers mean rounds

TEST(HotSwapTest, RetrainedModelLowersMeanRoundsForNewSessions) {
  // The paper's promise, end to end: serve a wave under a barely trained
  // v1, retrain, hot-swap, and the post-swap wave needs fewer questions.
  // Everything is seeded, so the improvement is a deterministic fact of
  // this configuration, not a flaky expectation.
  Rng drng(3);
  Dataset sky =
      SkylineOf(GenerateSynthetic(600, 4, Distribution::kAntiCorrelated, drng));
  Rng rng(42);
  AaOptions options = AaOpt();
  options.seed = 42;
  Aa aa(sky, options);
  nn::ModelRegistry registry;

  auto serve_wave = [&](size_t count, uint64_t seed_base, TraceStore& traces) {
    SessionScheduler scheduler;
    scheduler.SetHarvestSink(
        [&traces](size_t id, const SessionTraceRecord& record) {
          traces.Harvest(id, record);
        });
    std::vector<std::unique_ptr<LinearUser>> owned;
    std::vector<UserOracle*> users;
    for (size_t s = 0; s < count; ++s) {
      owned.push_back(
          std::make_unique<LinearUser>(rng.SimplexUniform(sky.dim())));
      users.push_back(owned.back().get());
      SessionConfig config;
      config.seed = seed_base + s;
      config.model = registry.Latest();
      scheduler.Add(aa.StartSession(config), &aa);
    }
    std::vector<InteractionResult> results = DriveWithUsers(scheduler, users);
    double total = 0.0;
    for (const InteractionResult& r : results) {
      total += static_cast<double>(r.rounds);
    }
    return total / static_cast<double>(count);
  };

  aa.Train(SampleUtilityVectors(2, sky.dim(), rng));
  registry.Publish(aa.agent().main_network());
  TraceStore wave1;
  const double before = serve_wave(40, 1000, wave1);
  for (const SessionTraceRecord& record : wave1.Window()) {
    EXPECT_EQ(record.model_version, 1u);
  }

  aa.Train(SampleUtilityVectors(60, sky.dim(), rng));
  EXPECT_EQ(registry.Publish(aa.agent().main_network()), 2u);
  TraceStore wave2;
  const double after = serve_wave(40, 2000, wave2);
  for (const SessionTraceRecord& record : wave2.Window()) {
    EXPECT_EQ(record.model_version, 2u);
  }

  EXPECT_LT(after, before) << "retraining did not reduce mean rounds: "
                           << before << " -> " << after;
}

// ------------------------------------------------ sharded serving + races

TEST(ShardedRegistryTest, ConcurrentPublishesRaceShardTicks) {
  // Four shard workers score through per-shard snapshot replicas and push
  // harvest records while another task publishes version after version into
  // the shared registry — the TSan target for the §18 locking contract.
  Dataset sky = SmallSkyline(250, 3, 61);
  Ea ea(sky, EaOpt());
  nn::ModelRegistry registry;
  registry.Publish(ea.agent().main_network());

  const size_t shards = 4;
  const size_t sessions = 24;
  std::vector<std::unique_ptr<ModelReplicaCache>> caches;
  for (size_t k = 0; k < shards; ++k) {
    caches.push_back(std::make_unique<ModelReplicaCache>(&registry));
  }

  ShardedOptions options;
  options.shards = shards;
  ShardedScheduler sharded(options);
  TraceStore traces;
  // The sink runs on shard worker threads; pinning Latest() from it makes
  // the workers genuinely contend with the publisher task below.
  sharded.SetHarvestSink(
      [&traces, &registry](size_t id, const SessionTraceRecord& record) {
        std::shared_ptr<const nn::ModelSnapshot> latest = registry.Latest();
        EXPECT_NE(latest, nullptr);
        traces.Harvest(id, record);
      });

  Rng urng(62);
  std::vector<std::unique_ptr<LinearUser>> owned;
  std::vector<UserOracle*> users;
  for (size_t i = 0; i < sessions; ++i) {
    owned.push_back(
        std::make_unique<LinearUser>(urng.SimplexUniform(sky.dim())));
    users.push_back(owned.back().get());
    SessionConfig config;
    config.seed = SplitSeed(0x5EED, i);
    config.model = caches[i % shards]->Pin(1);
    sharded.Add(ea.StartSession(config), &ea);
  }

  std::atomic<bool> done{false};
  std::atomic<size_t> published{0};
  // Two dedicated workers (threads >= tasks): the driver and the publisher
  // may block on each other — the sanctioned ParallelFor spawning idiom.
  ParallelFor(2, 2, [&](size_t, size_t task) {
    if (task == 0) {
      Result<std::vector<InteractionResult>> results =
          DriveSharded(sharded, users);
      EXPECT_TRUE(results.ok()) << results.status().ToString();
      done.store(true, std::memory_order_release);
    } else {
      nn::Network publisher = ea.agent().main_network().Clone();
      while (!done.load(std::memory_order_acquire)) {
        published.fetch_add(1, std::memory_order_relaxed);
        registry.Publish(publisher);
      }
    }
  });

  EXPECT_GE(published.load(), 1u);
  EXPECT_EQ(registry.Latest()->version(), published.load() + 1);
  EXPECT_EQ(traces.harvested(), sessions);
  for (const SessionTraceRecord& record : traces.Window()) {
    EXPECT_EQ(record.model_version, 1u);  // every session stayed pinned
  }
}

TEST(ShardedRegistryTest, DurableRecoveryRePinsManifestVersion) {
  Dataset sky = SmallSkyline(250, 3, 71);
  Ea ea(sky, EaOpt());
  nn::ModelRegistry registry;
  registry.Publish(ea.agent().main_network());

  const size_t shards = 2;
  const size_t sessions = 6;
  const uint64_t master = 0xF1A7;
  const std::string prefix = ::testing::TempDir() + "/isrl_registry_pop";
  RunBudget budget;
  budget.max_rounds = 16;

  std::vector<Vec> utilities;
  Rng urng(72);
  for (size_t i = 0; i < sessions; ++i) {
    utilities.push_back(urng.SimplexUniform(sky.dim()));
  }
  auto fleet = [&utilities] {
    std::pair<std::vector<std::unique_ptr<LinearUser>>,
              std::vector<UserOracle*>>
        f;
    for (const Vec& u : utilities) {
      f.first.push_back(std::make_unique<LinearUser>(u));
      f.second.push_back(f.first.back().get());
    }
    return f;
  };

  // Single-threaded reference population, pinned to the same v1.
  std::vector<InteractionResult> reference;
  {
    SessionScheduler scheduler;
    for (size_t i = 0; i < sessions; ++i) {
      SessionConfig config;
      config.budget = budget;
      config.seed = SplitSeed(master, i);
      config.model = registry.Latest();
      scheduler.Add(ea.StartSession(config), &ea);
    }
    auto users = fleet();
    reference = DriveWithUsers(scheduler, users.second);
  }

  // Durable sharded run: per-shard clones and per-shard replica pins; the
  // manifest records the registry head (v1) alongside the shard layout.
  std::vector<std::unique_ptr<InteractiveAlgorithm>> clones;
  std::vector<std::unique_ptr<ModelReplicaCache>> caches;
  for (size_t k = 0; k < shards; ++k) {
    clones.push_back(ea.CloneForEval());
    ASSERT_NE(clones.back(), nullptr);
    caches.push_back(std::make_unique<ModelReplicaCache>(&registry));
  }
  ShardedOptions options;
  options.shards = shards;
  ShardedScheduler sharded(options);
  for (size_t i = 0; i < sessions; ++i) {
    const size_t shard = i % shards;
    SessionConfig config;
    config.budget = budget;
    config.seed = SplitSeed(master, i);
    config.model = caches[shard]->Pin(1);
    sharded.Add(clones[shard]->StartSession(config), clones[shard].get());
  }
  ASSERT_TRUE(sharded.EnableDurability(prefix, &registry).ok());
  {
    auto users = fleet();
    Result<std::vector<InteractionResult>> results =
        DriveSharded(sharded, users.second);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    for (size_t i = 0; i < sessions; ++i) {
      ExpectSameResult(reference[i], (*results)[i],
                       "durable pinned session " + std::to_string(i));
    }
  }

  std::vector<std::unique_ptr<InteractiveAlgorithm>> recovery_clones;
  for (size_t k = 0; k < shards; ++k) {
    recovery_clones.push_back(ea.CloneForEval());
  }
  ShardAlgorithmResolver resolver =
      [&recovery_clones](size_t shard,
                         const std::string& name) -> InteractiveAlgorithm* {
    return recovery_clones[shard]->name() == name
               ? recovery_clones[shard].get()
               : nullptr;
  };

  // A provider that no longer serves the manifest's registry version is
  // refused before any session is decoded.
  nn::ModelRegistry empty;
  std::vector<std::unique_ptr<ModelReplicaCache>> empty_caches;
  for (size_t k = 0; k < shards; ++k) {
    empty_caches.push_back(std::make_unique<ModelReplicaCache>(&empty));
  }
  Result<std::unique_ptr<ShardedScheduler>> unserved = ShardedScheduler::Recover(
      options, prefix, resolver,
      [&empty_caches](size_t shard) -> nn::ModelProvider* {
        return empty_caches[shard].get();
      });
  ASSERT_FALSE(unserved.ok());
  EXPECT_NE(unserved.status().message().find("does not serve registry version"),
            std::string::npos)
      << unserved.status().ToString();

  // So is a provider whose version 1 hashes to different weights.
  nn::ModelRegistry imposter;
  {
    std::unique_ptr<InteractiveAlgorithm> source = ea.CloneForEval();
    auto& source_ea = static_cast<Ea&>(*source);
    PerturbNetwork(source_ea.agent());
    imposter.Publish(source_ea.agent().main_network());
  }
  std::vector<std::unique_ptr<ModelReplicaCache>> imposter_caches;
  for (size_t k = 0; k < shards; ++k) {
    imposter_caches.push_back(
        std::make_unique<ModelReplicaCache>(&imposter));
  }
  Result<std::unique_ptr<ShardedScheduler>> mismatched =
      ShardedScheduler::Recover(
          options, prefix, resolver,
          [&imposter_caches](size_t shard) -> nn::ModelProvider* {
            return imposter_caches[shard].get();
          });
  ASSERT_FALSE(mismatched.ok());
  EXPECT_NE(mismatched.status().message().find("hashes to"),
            std::string::npos)
      << mismatched.status().ToString();

  // The real registry re-pins every recovered session; finishing them under
  // fresh stateless users reproduces the reference, and every harvested
  // record still carries the manifest's version.
  std::vector<std::unique_ptr<ModelReplicaCache>> recovery_caches;
  for (size_t k = 0; k < shards; ++k) {
    recovery_caches.push_back(
        std::make_unique<ModelReplicaCache>(&registry));
  }
  Result<std::unique_ptr<ShardedScheduler>> recovered =
      ShardedScheduler::Recover(
          options, prefix, resolver,
          [&recovery_caches](size_t shard) -> nn::ModelProvider* {
            return recovery_caches[shard].get();
          });
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  TraceStore traces;
  (*recovered)->SetHarvestSink(
      [&traces](size_t id, const SessionTraceRecord& record) {
        traces.Harvest(id, record);
      });
  {
    auto users = fleet();
    Result<std::vector<InteractionResult>> refinished =
        DriveSharded(**recovered, users.second);
    ASSERT_TRUE(refinished.ok()) << refinished.status().ToString();
    for (size_t i = 0; i < sessions; ++i) {
      ExpectSameResult(reference[i], (*refinished)[i],
                       "re-pinned session " + std::to_string(i));
    }
  }
  // Sessions that WAL replay already finished are NOT re-harvested (their
  // records fed training before the crash; re-emitting would double-count
  // them) — only sessions whose finishing tick belongs to the new serving
  // epoch emit, and those records carry the re-pinned manifest version.
  EXPECT_GT(traces.harvested(), 0u);
  EXPECT_LE(traces.harvested(), sessions);
  for (const SessionTraceRecord& record : traces.Window()) {
    EXPECT_EQ(record.model_version, 1u);
  }

  for (size_t k = 0; k < shards; ++k) {
    std::remove(ShardedScheduler::ShardPath(prefix, k).c_str());
  }
  std::remove(ShardedScheduler::ManifestPath(prefix).c_str());
}

}  // namespace
}  // namespace isrl
