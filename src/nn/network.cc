#include "nn/network.h"

#include <algorithm>

namespace isrl::nn {

namespace {
std::unique_ptr<Layer> MakeActivation(Activation activation, size_t dim) {
  switch (activation) {
    case Activation::kSelu: return std::make_unique<Selu>(dim);
    case Activation::kRelu: return std::make_unique<Relu>(dim);
    case Activation::kTanh: return std::make_unique<Tanh>(dim);
  }
  return nullptr;
}
}  // namespace

Network Network::Mlp(const std::vector<size_t>& widths, Activation activation,
                     Rng& rng) {
  ISRL_CHECK_GE(widths.size(), 2u);
  Network net;
  for (size_t i = 0; i + 1 < widths.size(); ++i) {
    net.AddLayer(std::make_unique<Linear>(widths[i], widths[i + 1], rng));
    const bool is_last = (i + 2 == widths.size());
    if (!is_last) net.AddLayer(MakeActivation(activation, widths[i + 1]));
  }
  return net;
}

void Network::AddLayer(std::unique_ptr<Layer> layer) {
  if (!layers_.empty()) {
    ISRL_CHECK_EQ(layers_.back()->output_dim(), layer->input_dim());
  }
  layers_.push_back(std::move(layer));
}

Vec Network::Forward(const Vec& input) {
  Vec x = input;
  for (auto& layer : layers_) x = layer->Forward(x);
  return x;
}

void Network::Backward(const Vec& output_grad) {
  Vec g = output_grad;
  for (size_t i = layers_.size(); i-- > 0;) g = layers_[i]->Backward(g);
}

Matrix Network::BatchForward(const Matrix& inputs) {
  Matrix x = inputs;
  for (auto& layer : layers_) x = layer->BatchForward(x);
  return x;
}

void Network::BatchBackward(const Matrix& output_grads) {
  Matrix g = output_grads;
  for (size_t i = layers_.size(); i-- > 1;) g = layers_[i]->BatchBackward(g);
  // The bottom layer's input gradient has no consumer — let it skip the
  // computation (parameter gradients still accumulate identically).
  if (!layers_.empty()) layers_[0]->BatchBackwardNoInputGrad(g);
}

double Network::Predict(const Vec& input) {
  Vec out = Forward(input);
  ISRL_CHECK_EQ(out.dim(), 1u);
  return out[0];
}

double Network::Infer(const Vec& input) {
  Vec x = input;
  for (auto& layer : layers_) x = layer->Infer(x);
  ISRL_CHECK_EQ(x.dim(), 1u);
  return x[0];
}

Vec Network::PredictBatch(const Matrix& inputs) {
  // Cache blocking over sample rows: inferring a whole candidate pool in one
  // call materialises m×hidden intermediates, which fall out of L2 once the
  // pool reaches a few hundred rows and leave the GEMM waiting on memory.
  // Row blocks of a GEMM are independent and each output element's
  // k-accumulation is untouched, so chunking is bit-invisible; 256 rows
  // keeps every intermediate (~256×64 doubles, ~330 KB across the layer
  // buffers) comfortably L2-resident while amortising the per-chunk fixed
  // costs (weight-panel packing, dispatch) — measured faster than 128 and
  // equal to 512 on the update benchmark. Each layer writes into a
  // persistent buffer reused across chunks (equal-size chunks mean no
  // reallocation), and the first layer reads its rows directly out of
  // `inputs` — the loop allocates nothing after the first chunk.
  constexpr size_t kRowChunk = 256;
  ISRL_CHECK(!layers_.empty());
  const size_t m = inputs.rows();
  ISRL_CHECK_EQ(inputs.cols(), layers_.front()->input_dim());
  Vec out(m);
  std::vector<Matrix> bufs(layers_.size());
  for (size_t start = 0; start < m; start += kRowChunk) {
    const size_t rows = std::min(kRowChunk, m - start);
    const double* cur = inputs.row(start);
    for (size_t i = 0; i < layers_.size(); ++i) {
      layers_[i]->BatchInferInto(cur, rows, &bufs[i]);
      cur = bufs[i].data().data();
    }
    const Matrix& last = bufs.back();
    ISRL_CHECK_EQ(last.cols(), 1u);
    for (size_t r = 0; r < rows; ++r) out[start + r] = last(r, 0);
  }
  return out;
}

Vec Network::PredictBatch(const std::vector<Vec>& inputs) {
  return PredictBatch(Matrix::FromRows(inputs));
}

double Network::AccumulateMseSample(const Vec& input, double target) {
  double pred = Predict(input);
  double err = pred - target;
  Backward(Vec{err});
  return err * err;
}

double Network::AccumulateRegressionSample(const Vec& input, double target,
                                           double weight, double huber_delta) {
  double pred = Predict(input);
  double err = pred - target;
  double grad = err;
  if (huber_delta > 0.0) {
    grad = std::clamp(err, -huber_delta, huber_delta);
  }
  Backward(Vec{weight * grad});
  return err;
}

Vec Network::AccumulateRegressionBatch(const Matrix& inputs,
                                       const Vec& targets, const Vec& weights,
                                       double huber_delta) {
  const size_t batch = inputs.rows();
  ISRL_CHECK_EQ(targets.dim(), batch);
  if (!weights.empty()) ISRL_CHECK_EQ(weights.dim(), batch);
  Matrix preds = BatchForward(inputs);
  ISRL_CHECK_EQ(preds.cols(), 1u);
  Vec errs(batch);
  Matrix output_grads(batch, 1);
  for (size_t r = 0; r < batch; ++r) {
    const double err = preds(r, 0) - targets[r];
    errs[r] = err;
    double grad = err;
    if (huber_delta > 0.0) grad = std::clamp(err, -huber_delta, huber_delta);
    const double w = weights.empty() ? 1.0 : weights[r];
    output_grads(r, 0) = w * grad;
  }
  BatchBackward(output_grads);
  return errs;
}

std::vector<ParamBlock> Network::Params() {
  std::vector<ParamBlock> blocks;
  for (auto& layer : layers_) {
    for (ParamBlock b : layer->Params()) blocks.push_back(b);
  }
  return blocks;
}

void Network::CopyParamsFrom(Network& other) {
  std::vector<ParamBlock> mine = Params();
  std::vector<ParamBlock> theirs = other.Params();
  ISRL_CHECK_EQ(mine.size(), theirs.size());
  for (size_t i = 0; i < mine.size(); ++i) {
    ISRL_CHECK_EQ(mine[i].values->size(), theirs[i].values->size());
    *mine[i].values = *theirs[i].values;
  }
}

Network Network::Clone() const {
  Network copy;
  for (const auto& layer : layers_) copy.layers_.push_back(layer->Clone());
  return copy;
}

}  // namespace isrl::nn
