#include "rl/dqn.h"

#include <algorithm>

#include "audit/audit.h"
#include "audit/checkers.h"
#include "common/check.h"
#include "rl/schedule.h"

namespace isrl::rl {

DqnAgent::DqnAgent(size_t input_dim, const DqnOptions& options, Rng& rng)
    : input_dim_(input_dim),
      options_(options),
      main_(nn::Network::Mlp({input_dim, options.hidden_neurons, 1},
                             options.activation, rng)),
      target_(main_.Clone()),
      replay_(options.replay_capacity),
      prioritized_(options.replay_capacity, options.prioritized) {
  if (options_.optimizer == OptimizerKind::kAdam) {
    optimizer_ = std::make_unique<nn::Adam>(main_.Params(),
                                            options_.learning_rate);
  } else {
    optimizer_ =
        std::make_unique<nn::Sgd>(main_.Params(), options_.learning_rate);
  }
}

DqnAgent::DqnAgent(const DqnAgent& other)
    : input_dim_(other.input_dim_),
      options_(other.options_),
      main_(other.main_.Clone()),
      target_(other.target_.Clone()),
      replay_(other.replay_),
      prioritized_(other.prioritized_),
      num_updates_(other.num_updates_) {
  // The optimiser must bind to *this* copy's parameter blocks.
  if (options_.optimizer == OptimizerKind::kAdam) {
    optimizer_ = std::make_unique<nn::Adam>(main_.Params(),
                                            options_.learning_rate);
  } else {
    optimizer_ =
        std::make_unique<nn::Sgd>(main_.Params(), options_.learning_rate);
  }
}

double DqnAgent::QValue(const Vec& state_action) {
  ISRL_CHECK_EQ(state_action.dim(), input_dim_);
  return main_.Predict(state_action);
}

Vec DqnAgent::QValues(const std::vector<Vec>& candidate_features) {
  ISRL_CHECK(!candidate_features.empty());
  ISRL_CHECK_EQ(candidate_features[0].dim(), input_dim_);
  return main_.PredictBatch(candidate_features);
}

size_t DqnAgent::SelectEpsilonGreedy(const Matrix& candidate_features,
                                     double epsilon, Rng& rng) {
  ISRL_CHECK_GT(candidate_features.rows(), 0u);
  if (rng.Bernoulli(epsilon)) {
    return static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(candidate_features.rows()) - 1));
  }
  ISRL_CHECK_EQ(candidate_features.cols(), input_dim_);
  return main_.PredictBatch(candidate_features).ArgMax();
}

double DqnAgent::EpsilonAt(size_t episode) const {
  EpsilonSchedule schedule(options_.epsilon_start, options_.epsilon_end,
                           options_.epsilon_decay_episodes);
  return schedule.Value(episode);
}

void DqnAgent::Remember(Transition t) {
  ISRL_CHECK_EQ(t.state_action.dim(), input_dim_);
  if (options_.prioritized_replay) {
    prioritized_.Add(t);
  }
  replay_.Add(std::move(t));
}

Vec DqnAgent::TargetsFor(const std::vector<const Transition*>& batch) {
  Vec targets(batch.size());
  // Stack every next-candidate feature row of the whole batch into one
  // matrix; `offsets[i]` is transition i's first row, npos = no bootstrap.
  constexpr size_t kNoRows = static_cast<size_t>(-1);
  std::vector<size_t> offsets(batch.size(), kNoRows);
  size_t total_rows = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const Transition& t = *batch[i];
    if (t.terminal || t.next_candidates.empty()) continue;
    offsets[i] = total_rows;
    total_rows += t.next_candidates.size();
  }
  if (total_rows == 0) {
    for (size_t i = 0; i < batch.size(); ++i) targets[i] = batch[i]->reward;
    return targets;
  }
  std::vector<double> flat;
  flat.reserve(total_rows * input_dim_);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (offsets[i] == kNoRows) continue;
    for (const Vec& cand : batch[i]->next_candidates) {
      ISRL_CHECK_EQ(cand.dim(), input_dim_);
      const double* src = cand.raw();
      flat.insert(flat.end(), src, src + input_dim_);
    }
  }
  const Matrix stacked(total_rows, input_dim_, std::move(flat));
  // One batched forward per network for the whole batch's candidate pools.
  const Vec target_q = target_.PredictBatch(stacked);
  Vec main_q;
  if (options_.double_dqn) main_q = main_.PredictBatch(stacked);
  for (size_t i = 0; i < batch.size(); ++i) {
    const Transition& t = *batch[i];
    if (offsets[i] == kNoRows) {
      targets[i] = t.reward;
      continue;
    }
    const size_t off = offsets[i];
    const size_t count = t.next_candidates.size();
    double best_next;
    if (options_.double_dqn) {
      size_t best = 0;
      double best_main = main_q[off];
      for (size_t c = 1; c < count; ++c) {
        if (main_q[off + c] > best_main) {
          best_main = main_q[off + c];
          best = c;
        }
      }
      best_next = target_q[off + best];
    } else {
      best_next = target_q[off];
      for (size_t c = 1; c < count; ++c) {
        best_next = std::max(best_next, target_q[off + c]);
      }
    }
    targets[i] = t.reward + options_.gamma * best_next;
  }
  return targets;
}

double DqnAgent::FitSampledBatch(Rng& rng) {
  // Prioritized replay draws weighted handles whose priorities are refreshed
  // from the fit's errors; uniform replay leaves `weights` empty (all 1).
  std::vector<PrioritizedSample> handles;
  std::vector<const Transition*> batch;
  Vec weights;
  if (options_.prioritized_replay) {
    handles = prioritized_.Sample(options_.batch_size, rng);
    weights = Vec(handles.size());
    for (size_t i = 0; i < handles.size(); ++i) {
      batch.push_back(handles[i].transition);
      weights[i] = handles[i].weight;
    }
  } else {
    batch = replay_.Sample(options_.batch_size, rng);
  }
  Matrix inputs(batch.size(), input_dim_);
  for (size_t i = 0; i < batch.size(); ++i) {
    const double* src = batch[i]->state_action.raw();
    std::copy(src, src + input_dim_, inputs.row(i));
  }
  const double delta = options_.loss == LossKind::kHuber ? options_.huber_delta
                                                         : 0.0;
  Vec errs =
      main_.AccumulateRegressionBatch(inputs, TargetsFor(batch), weights, delta);
  double loss_sum = 0.0;
  for (size_t i = 0; i < errs.dim(); ++i) loss_sum += errs[i] * errs[i];
  for (size_t i = 0; i < handles.size(); ++i) {
    prioritized_.UpdatePriority(handles[i], errs[i]);
  }
  optimizer_->Step(batch.size());
  return loss_sum / static_cast<double>(batch.size());
}

double DqnAgent::Update(Rng& rng) {
  if (replay_.size() < options_.min_replay_before_update) return 0.0;
  const double loss = FitSampledBatch(rng);
  ++num_updates_;
  if (options_.target_sync_every > 0 &&
      num_updates_ % options_.target_sync_every == 0) {
    SyncTarget();
  }
  // Audit: a single NaN weight or gradient spreads through every later
  // Q-value without crashing anything — catch it at the update that made it.
  if (audit::ShouldCheck(audit::Checker::kNnFinite)) {
    std::vector<std::string> problems =
        audit::CheckNetworkFinite(main_, "main");
    std::vector<std::string> target_problems =
        audit::CheckNetworkFinite(target_, "target");
    problems.insert(problems.end(), target_problems.begin(),
                    target_problems.end());
    std::vector<std::string> sync_problems = audit::CheckTargetSyncEpoch(
        num_updates_, options_.target_sync_every, main_, target_);
    problems.insert(problems.end(), sync_problems.begin(),
                    sync_problems.end());
    audit::Auditor().Record(audit::Checker::kNnFinite, "DqnAgent.Update",
                            problems);
  }
  if (options_.prioritized_replay &&
      audit::ShouldCheck(audit::Checker::kReplayTree)) {
    audit::Auditor().Record(audit::Checker::kReplayTree, "DqnAgent.Update",
                            audit::CheckReplayTree(prioritized_, 1e-9));
  }
  return loss;
}

void DqnAgent::SyncTarget() { target_.CopyParamsFrom(main_); }

}  // namespace isrl::rl
