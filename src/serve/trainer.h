// Trace-driven retraining (DESIGN.md §18): the train side of the
// train→serve loop.
//
// A ContinuousTrainer trains on the utility estimates harvested into a
// TraceStore and Publish()es the new weights into the shared ModelRegistry.
// The publish is the ONLY handoff to serving: serving threads score
// exclusively through pinned registry snapshots, so they never observe
// weights mid-update, and in-flight sessions (pinned at StartSession) are
// untouched by the swap.
#ifndef ISRL_SERVE_TRAINER_H_
#define ISRL_SERVE_TRAINER_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/vec.h"
#include "core/ea.h"
#include "nn/registry.h"
#include "serve/trace_store.h"

namespace isrl {

/// The two capabilities a trainer borrows from its training algorithm.
/// Both run on the thread that calls RetrainOnce; serving never touches
/// that algorithm's network directly — it holds registry snapshots instead
/// (DESIGN.md §18).
struct RetrainHooks {
  /// One incremental training pass over the harvested utility estimates
  /// (e.g. [&ea](const std::vector<Vec>& u) { return ea.Train(u); }).
  std::function<TrainStats(const std::vector<Vec>&)> train;
  /// The freshly trained weights to publish (e.g. the algorithm's main
  /// Q-network).
  std::function<const nn::Network&()> network;
};

struct TrainerOptions {
  /// Cap on utility samples per retrain (the newest ones win).
  size_t max_utilities = 256;
};

/// What one successful retrain produced.
struct RetrainOutcome {
  uint64_t version = 0;  ///< the registry version the new weights got
  TrainStats stats;
  size_t samples = 0;  ///< utility estimates trained on
};

/// Retrains on harvested traces and hot-swaps the result into a registry.
class ContinuousTrainer {
 public:
  /// All three referents must outlive the trainer.
  ContinuousTrainer(TraceStore& traces, nn::ModelRegistry& registry,
                    RetrainHooks hooks, TrainerOptions options = {});

  /// One synchronous retrain: trains on the newest harvested utilities
  /// (<= max_utilities) and publishes the result. FailedPrecondition when
  /// no harvested record carries a utility estimate (nothing to train on).
  Result<RetrainOutcome> RetrainOnce();

 private:
  TraceStore& traces_;
  nn::ModelRegistry& registry_;
  RetrainHooks hooks_;
  TrainerOptions options_;
};

}  // namespace isrl

#endif  // ISRL_SERVE_TRAINER_H_
