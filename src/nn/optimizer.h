// Gradient-descent optimisers over a network's parameter blocks.
#ifndef ISRL_NN_OPTIMIZER_H_
#define ISRL_NN_OPTIMIZER_H_

#include <vector>

#include "nn/layer.h"

namespace isrl::nn {

/// Base optimiser. Usage per mini-batch: accumulate gradients over the batch
/// (e.g. Network::AccumulateMseSample), then call Step(batch_size) — the
/// optimiser averages the accumulated gradients, applies an update, and
/// zeroes the accumulators.
class Optimizer {
 public:
  explicit Optimizer(std::vector<ParamBlock> params)
      : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  /// Applies one update from gradients accumulated over `batch_size` samples
  /// and resets the gradient accumulators.
  virtual void Step(size_t batch_size) = 0;

 protected:
  std::vector<ParamBlock> params_;
};

/// Plain stochastic gradient descent, the paper's stated update rule.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<ParamBlock> params, double learning_rate)
      : Optimizer(std::move(params)), learning_rate_(learning_rate) {}
  void Step(size_t batch_size) override;

 private:
  double learning_rate_;
};

/// Adam (Kingma & Ba); available for the optimiser ablation.
class Adam : public Optimizer {
 public:
  Adam(std::vector<ParamBlock> params, double learning_rate,
       double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8);
  void Step(size_t batch_size) override;

 private:
  double learning_rate_, beta1_, beta2_, eps_;
  size_t t_ = 0;
  std::vector<std::vector<double>> m_, v_;
};

}  // namespace isrl::nn

#endif  // ISRL_NN_OPTIMIZER_H_
