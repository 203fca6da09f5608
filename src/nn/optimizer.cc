#include "nn/optimizer.h"

#include <cmath>

#include "common/check.h"

namespace isrl::nn {

void Sgd::Step(size_t batch_size) {
  ISRL_CHECK_GE(batch_size, 1u);
  const double scale = learning_rate_ / static_cast<double>(batch_size);
  for (ParamBlock& b : params_) {
    std::vector<double>& values = *b.values;
    std::vector<double>& grads = *b.grads;
    for (size_t i = 0; i < values.size(); ++i) {
      values[i] -= scale * grads[i];
      grads[i] = 0.0;
    }
  }
}

Adam::Adam(std::vector<ParamBlock> params, double learning_rate, double beta1,
           double beta2, double eps)
    : Optimizer(std::move(params)),
      learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  for (ParamBlock& b : params_) {
    m_.emplace_back(b.values->size(), 0.0);
    v_.emplace_back(b.values->size(), 0.0);
  }
}

void Adam::Step(size_t batch_size) {
  ISRL_CHECK_GE(batch_size, 1u);
  ++t_;
  const double inv_batch = 1.0 / static_cast<double>(batch_size);
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (size_t p = 0; p < params_.size(); ++p) {
    std::vector<double>& values = *params_[p].values;
    std::vector<double>& grads = *params_[p].grads;
    for (size_t i = 0; i < values.size(); ++i) {
      const double g = grads[i] * inv_batch;
      m_[p][i] = beta1_ * m_[p][i] + (1.0 - beta1_) * g;
      v_[p][i] = beta2_ * v_[p][i] + (1.0 - beta2_) * g * g;
      const double mhat = m_[p][i] / bc1;
      const double vhat = v_[p][i] / bc2;
      values[i] -= learning_rate_ * mhat / (std::sqrt(vhat) + eps_);
      grads[i] = 0.0;
    }
  }
}

}  // namespace isrl::nn
