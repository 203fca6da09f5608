// The benchmark's workloads and the set-up every run performs: the dataset,
// its skyline, the trained Q-network, one CloneForEval() per shard and the
// simulated users' utilities and session seeds (all fixed per workload), and
// the users' arrival and think times, which the run's seed draws.
#ifndef ISRL_BENCHMARK_WORKLOAD_H_
#define ISRL_BENCHMARK_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/vec.h"
#include "core/algorithm.h"
#include "data/dataset.h"
#include "user/user.h"

namespace isrl::e2e {

/// Every workload serves its population on this many scheduler shards.
inline constexpr size_t kShards = 2;

enum class Algo { kEa, kAa };
enum class DataKind { kAntiCorrelated, kCar, kPlayer };

struct Workload {
  std::string name;
  Algo algo = Algo::kEa;
  DataKind data = DataKind::kAntiCorrelated;
  size_t rows = 0;  ///< tuples generated before the skyline
  size_t dim = 0;
  double epsilon = 0.1;
  size_t train_episodes = 0;

  size_t users = 0;        ///< paced population
  double arrival_s = 0.0;  ///< first answers are due uniformly over this time
  double think_s = 0.0;    ///< mean think time between question and answer
  /// Answers due within this time of the paced start are timed; then the
  /// durable workload crashes and the others drain untimed.
  double window_s = 0.0;
  double slo_ms = 0.0;  ///< response-time limit behind slo_attain

  bool durable = false;
  size_t checkpoint_every_ticks = 0;
  /// Also serve the first saturation population on one shard and report
  /// the two-shard speed-up.
  bool shard_scaling = false;

  size_t traced_users = 0;  ///< users driven by the traced run
  double delta_ms = 1.0;    ///< traced run: virtual-time batching window
};

/// The four workloads.
const std::vector<Workload>& Workloads();

/// The workload named `name`, or nullptr.
const Workload* FindWorkload(const std::string& name);

/// `w` shrunk to the --smoke profile: tiny data and populations, every
/// check still enabled.
Workload SmokeProfile(const Workload& w);

/// The trained algorithm and everything it borrows.
struct Setup {
  std::unique_ptr<Dataset> skyline;
  std::unique_ptr<InteractiveAlgorithm> trained;
  /// One CloneForEval() per shard: RL scoring scratch is never shared
  /// across shard workers (serve/sharding.h).
  std::vector<std::unique_ptr<InteractiveAlgorithm>> clones;
  uint64_t fingerprint = 0;  ///< §14 fingerprint of the trained Q-network
};

/// Generates the dataset, computes its skyline, trains the Q-network and
/// clones it once per shard. The same for every run of `w`.
Setup BuildSetup(const Workload& w);

/// The fingerprint of the model `algorithm` serves (EA or AA).
uint64_t ServingFingerprint(InteractiveAlgorithm& algorithm);

/// One simulated user: a hidden linear utility plus its schedule. Each user
/// is asked from one thread at a time (its shard's worker, or the main
/// thread between serving phases).
struct SimUser {
  LinearUser oracle;
  uint64_t session_seed = 0;
  double arrival_s = 0.0;   ///< first answer due this long after the start
  uint64_t think_seed = 0;  ///< stream of this user's think times
};

/// The workload's first `count` users. Utilities and session seeds are the
/// workload's own, the same in every run; `seed` draws the arrival times
/// and think-time streams.
std::vector<SimUser> MakeUsers(const Workload& w, size_t count, size_t dim,
                               uint64_t seed);

/// Next think time from a user's stream: exponential with mean `mean_s`,
/// clamped at four means so the slowest user cannot stretch the run.
double DrawThink(Rng& rng, double mean_s);

/// The config that starts `user`'s session (seeded, unbudgeted).
SessionConfig SessionConfigFor(const SimUser& user);

}  // namespace isrl::e2e

#endif  // ISRL_BENCHMARK_WORKLOAD_H_
