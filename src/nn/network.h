// Feed-forward network: an ordered stack of layers with scalar-regression
// helpers for Q-value fitting.
#ifndef ISRL_NN_NETWORK_H_
#define ISRL_NN_NETWORK_H_

#include <memory>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/vec.h"
#include "nn/layer.h"

namespace isrl::nn {

/// Hidden-layer activation choices (paper default: SELU).
enum class Activation { kSelu, kRelu, kTanh };

/// Sequential dense network.
class Network {
 public:
  Network() = default;

  /// Builds an MLP with the given layer widths, e.g. {30, 64, 1} gives
  /// Linear(30,64) → act → Linear(64,1). `widths` needs ≥ 2 entries.
  static Network Mlp(const std::vector<size_t>& widths, Activation activation,
                     Rng& rng);

  void AddLayer(std::unique_ptr<Layer> layer);

  /// Forward pass (caches per-layer state for Backward).
  Vec Forward(const Vec& input);

  /// Backward pass from the output-gradient; accumulates parameter grads.
  void Backward(const Vec& output_grad);

  /// Batched training forward: one sample per row; caches per-layer batch
  /// state for BatchBackward.
  Matrix BatchForward(const Matrix& inputs);

  /// Batched backward: row r of `output_grads` is sample r's output
  /// gradient. Accumulates parameter gradients in sample-row order —
  /// bit-identical to per-sample Backward calls.
  void BatchBackward(const Matrix& output_grads);

  /// Convenience for scalar heads: returns Forward(input)[0].
  double Predict(const Vec& input);

  /// Inference-mode Predict: no activation caching (Backward is invalid
  /// afterwards). Use for target-network evaluation and action scoring.
  double Infer(const Vec& input);

  /// Batched inference for scalar-head networks: row-stacked inputs in, one
  /// predicted value per row out. No activation caching — scoring a
  /// candidate pool costs one blocked GEMM per layer instead of
  /// |pool| scalar dispatches. Bit-identical to calling Predict per row.
  Vec PredictBatch(const Matrix& inputs);
  /// Convenience overload that stacks the samples first.
  Vec PredictBatch(const std::vector<Vec>& inputs);

  /// One MSE sample: accumulates gradients of ½(pred − target)² and returns
  /// the squared error. Call an optimiser Step to apply.
  double AccumulateMseSample(const Vec& input, double target);

  /// General regression sample: accumulates `weight`-scaled gradients of the
  /// squared error (huber_delta ≤ 0) or the Huber loss with the given delta
  /// (gradient clipped to ±delta — robust to outlier TD targets). Returns
  /// the raw error pred − target.
  double AccumulateRegressionSample(const Vec& input, double target,
                                    double weight, double huber_delta);

  /// Batched AccumulateRegressionSample: one batched forward plus one
  /// batched backward over the whole row-stacked batch, with gradient
  /// accumulation preserved (bit-identical to the per-sample loop).
  /// `weights` is either empty (all samples weighted 1) or one weight per
  /// row. Returns the per-row raw errors pred − target.
  Vec AccumulateRegressionBatch(const Matrix& inputs, const Vec& targets,
                                const Vec& weights, double huber_delta);

  /// All parameter blocks across layers (optimiser interface).
  std::vector<ParamBlock> Params();

  /// Copies every parameter value from `other` (architectures must match);
  /// used to synchronise the target network.
  void CopyParamsFrom(Network& other);

  /// Deep copy including current weights.
  Network Clone() const;

  size_t num_layers() const { return layers_.size(); }
  Layer& layer(size_t i) { return *layers_[i]; }
  const Layer& layer(size_t i) const { return *layers_[i]; }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace isrl::nn

#endif  // ISRL_NN_NETWORK_H_
