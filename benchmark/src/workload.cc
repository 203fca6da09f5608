#include "workload.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/aa.h"
#include "core/ea.h"
#include "data/real_like.h"
#include "data/skyline.h"
#include "data/synthetic.h"
#include "rl/dqn.h"
#include "user/sampler.h"

namespace isrl::e2e {

namespace {

// The dataset, the trained Q-network and the users' utilities and session
// seeds are part of a workload's definition, like the paper's fixed tables:
// they come from this constant, not from the run seed, so runs of different
// seeds differ only in their schedules.
constexpr uint64_t kModelSeed = 9176;

// Independent streams of a seed (Rng::Split semantics).
constexpr uint64_t kDataStream = 1;
constexpr uint64_t kTrainStream = 2;
constexpr uint64_t kUserStream = 3;
constexpr uint64_t kScheduleStream = 4;
constexpr uint64_t kSessionStream = 5;
constexpr uint64_t kThinkStream = 6;

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;
  {
    // The paper's default EA setting. Answers are dominated by the action
    // space (BuildEaActionSpace); no LP, no disk, and the largest coalesced
    // NN batches of the four.
    Workload w;
    w.name = "ea-anti4";
    w.algo = Algo::kEa;
    w.data = DataKind::kAntiCorrelated;
    w.rows = 10000;
    w.dim = 4;
    w.epsilon = 0.1;
    w.train_episodes = 50;
    w.users = 2048;
    w.arrival_s = 5.0;
    w.think_s = 0.5;
    w.window_s = 7.0;
    w.slo_ms = 100.0;
    w.shard_scaling = true;
    w.traced_users = 2048;
    w.delta_ms = 2.0;
    all.push_back(w);
  }
  {
    // LP-bound: ComputeAaGeometry's 2d+1 simplex solves dominate an answer.
    Workload w;
    w.name = "aa-anti20";
    w.algo = Algo::kAa;
    w.data = DataKind::kAntiCorrelated;
    w.rows = 2000;
    w.dim = 20;
    w.epsilon = 0.15;
    w.train_episodes = 4;
    w.users = 48;
    w.arrival_s = 6.0;
    w.think_s = 0.7;
    w.window_s = 22.0;
    w.slo_ms = 500.0;
    w.traced_users = 20;
    w.delta_ms = 5.0;
    all.push_back(w);
  }
  {
    // The paper's flagship real-data setting (Fig 16): the 6.4k-point
    // skyline makes BuildAaActionSpace dominate, so an LP change moves
    // aa-anti20 but not this one.
    Workload w;
    w.name = "aa-player20";
    w.algo = Algo::kAa;
    w.data = DataKind::kPlayer;
    w.rows = 8000;
    w.dim = kPlayerAttributes;
    w.epsilon = 0.2;
    w.train_episodes = 4;
    w.users = 72;
    w.arrival_s = 5.0;
    w.think_s = 1.4;
    w.window_s = 25.0;
    w.slo_ms = 500.0;
    w.traced_users = 24;
    w.delta_ms = 5.0;
    all.push_back(w);
  }
  {
    // The only workload that writes (WAL per batch, population
    // checkpoints) and reads back (recovery). Sessions are tiny (~1.9
    // questions), so per-tick scans over parked slots, fsyncs and
    // checkpoints dominate.
    Workload w;
    w.name = "ea-car-durable";
    w.algo = Algo::kEa;
    w.data = DataKind::kCar;
    w.rows = kCarRows;
    w.dim = 3;
    w.epsilon = 0.05;
    w.train_episodes = 30;
    w.users = 4096;
    w.arrival_s = 5.0;
    w.think_s = 1.0;
    w.window_s = 7.0;
    w.slo_ms = 100.0;
    w.durable = true;
    w.checkpoint_every_ticks = 256;
    w.traced_users = 4096;
    w.delta_ms = 2.0;
    all.push_back(w);
  }
  return all;
}

rl::DqnOptions TrainingDqn(size_t episodes) {
  // The figure benches' training setup (bench/common.h): Adam, a per-round
  // step penalty with γ = 1, and exploration decayed over 2/3 of training.
  rl::DqnOptions dqn;
  dqn.optimizer = rl::OptimizerKind::kAdam;
  dqn.step_penalty = 1.0;
  dqn.gamma = 1.0;
  dqn.epsilon_start = 0.9;
  dqn.epsilon_end = 0.1;
  dqn.epsilon_decay_episodes = std::max<size_t>(1, (2 * episodes) / 3);
  return dqn;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = MakeWorkloads();
  return all;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Workload SmokeProfile(const Workload& w) {
  Workload out = w;
  out.rows = std::min<size_t>(w.rows, w.dim >= 20 ? 400 : 2000);
  out.train_episodes = std::min<size_t>(w.train_episodes, w.dim >= 20 ? 1 : 10);
  out.users = w.dim >= 20 ? 3 : 96;
  out.arrival_s = 0.3;
  out.think_s = 0.02;
  out.window_s = 0.35;
  out.traced_users = w.dim >= 20 ? 2 : 32;
  out.checkpoint_every_ticks = std::min<size_t>(w.checkpoint_every_ticks, 8);
  return out;
}

uint64_t ServingFingerprint(InteractiveAlgorithm& algorithm) {
  if (auto* ea = dynamic_cast<Ea*>(&algorithm)) {
    return ea->ServingModel()->fingerprint();
  }
  auto* aa = dynamic_cast<Aa*>(&algorithm);
  ISRL_CHECK(aa != nullptr);
  return aa->ServingModel()->fingerprint();
}

Setup BuildSetup(const Workload& w) {
  const uint64_t seed = kModelSeed;
  Setup setup;
  Rng data_rng(SplitSeed(seed, kDataStream));
  switch (w.data) {
    case DataKind::kAntiCorrelated:
      setup.skyline = std::make_unique<Dataset>(SkylineOf(GenerateSynthetic(
          w.rows, w.dim, Distribution::kAntiCorrelated, data_rng)));
      break;
    case DataKind::kCar:
      setup.skyline =
          std::make_unique<Dataset>(SkylineOf(MakeCarDataset(data_rng, w.rows)));
      break;
    case DataKind::kPlayer:
      setup.skyline = std::make_unique<Dataset>(
          SkylineOf(MakePlayerDataset(data_rng, w.rows)));
      break;
  }
  const Dataset& sky = *setup.skyline;
  Rng train_rng(SplitSeed(seed, kTrainStream));
  const std::vector<Vec> training =
      SampleUtilityVectors(w.train_episodes, sky.dim(), train_rng);
  if (w.algo == Algo::kEa) {
    EaOptions opt;
    opt.epsilon = w.epsilon;
    opt.seed = SplitSeed(seed, kTrainStream + 100);
    opt.dqn = TrainingDqn(w.train_episodes);
    opt.updates_per_round = 2;
    auto ea = std::make_unique<Ea>(sky, opt);
    ea->Train(training);
    setup.trained = std::move(ea);
  } else {
    AaOptions opt;
    opt.epsilon = w.epsilon;
    opt.seed = SplitSeed(seed, kTrainStream + 100);
    opt.dqn = TrainingDqn(w.train_episodes);
    opt.updates_per_round = 2;
    auto aa = std::make_unique<Aa>(sky, opt);
    aa->Train(training);
    setup.trained = std::move(aa);
  }
  for (size_t k = 0; k < kShards; ++k) {
    setup.clones.push_back(setup.trained->CloneForEval());
    ISRL_CHECK(setup.clones.back() != nullptr);
  }
  setup.fingerprint = ServingFingerprint(*setup.trained);
  return setup;
}

std::vector<SimUser> MakeUsers(const Workload& w, size_t count, size_t dim,
                               uint64_t seed) {
  // The population is part of the workload, like the paper's fixed test
  // users: a change to the engine then shows in rounds_mean exactly, and
  // runs of different seeds differ in when users answer, not in who they
  // are.
  Rng utility_rng(SplitSeed(kModelSeed, kUserStream));
  Rng schedule_rng(SplitSeed(seed, kScheduleStream));
  const std::vector<Vec> utilities =
      SampleUtilityVectors(count, dim, utility_rng);
  std::vector<SimUser> users;
  users.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    users.push_back(SimUser{LinearUser(utilities[i]),
                            SplitSeed(SplitSeed(kModelSeed, kSessionStream), i),
                            schedule_rng.Uniform(0.0, w.arrival_s),
                            SplitSeed(SplitSeed(seed, kThinkStream), i)});
  }
  return users;
}

double DrawThink(Rng& rng, double mean_s) {
  const double u = rng.Uniform();
  return std::min(-mean_s * std::log1p(-u), 4.0 * mean_s);
}

SessionConfig SessionConfigFor(const SimUser& user) {
  SessionConfig config;
  config.seed = user.session_seed;
  return config;
}

}  // namespace isrl::e2e
