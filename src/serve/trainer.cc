#include "serve/trainer.h"

#include <utility>

#include "common/check.h"

namespace isrl {

ContinuousTrainer::ContinuousTrainer(TraceStore& traces,
                                     nn::ModelRegistry& registry,
                                     RetrainHooks hooks,
                                     TrainerOptions options)
    : traces_(traces),
      registry_(registry),
      hooks_(std::move(hooks)),
      options_(options) {
  ISRL_CHECK(hooks_.train != nullptr);
  ISRL_CHECK(hooks_.network != nullptr);
  ISRL_CHECK_GT(options_.max_utilities, 0u);
}

Result<RetrainOutcome> ContinuousTrainer::RetrainOnce() {
  std::vector<Vec> utilities = traces_.TrainingUtilities(options_.max_utilities);
  if (utilities.empty()) {
    return Status::FailedPrecondition(
        "no harvested utility estimates to retrain on");
  }
  RetrainOutcome outcome;
  outcome.samples = utilities.size();
  outcome.stats = hooks_.train(utilities);
  outcome.version = registry_.Publish(hooks_.network());
  return outcome;
}

}  // namespace isrl
