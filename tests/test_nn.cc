// Unit tests for the neural-network substrate: layer math, finite-difference
// gradient checks, optimisers, and serialisation.
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/layer.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"

namespace isrl::nn {
namespace {

TEST(LinearTest, ForwardMatchesManualComputation) {
  Rng rng(1);
  Linear layer(2, 2, rng);
  layer.weights() = {1.0, 2.0, 3.0, 4.0};  // row-major (out × in)
  layer.biases() = {0.5, -0.5};
  Vec out = layer.Forward(Vec{1.0, 1.0});
  EXPECT_NEAR(out[0], 3.5, 1e-12);   // 1+2+0.5
  EXPECT_NEAR(out[1], 6.5, 1e-12);   // 3+4-0.5
}

TEST(SeluTest, KnownValues) {
  Selu selu(2);
  Vec out = selu.Forward(Vec{1.0, 0.0});
  EXPECT_NEAR(out[0], Selu::kScale, 1e-12);
  EXPECT_NEAR(out[1], 0.0, 1e-12);
  out = selu.Forward(Vec{-1.0, -5.0});
  EXPECT_NEAR(out[0], Selu::kScale * Selu::kAlpha * (std::exp(-1.0) - 1.0),
              1e-12);
  // SELU is bounded below by −scale·alpha.
  EXPECT_GT(out[1], -Selu::kScale * Selu::kAlpha);
}

TEST(ReluTest, ClampsNegative) {
  Relu relu(3);
  Vec out = relu.Forward(Vec{-1.0, 0.0, 2.0});
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 0.0);
  EXPECT_EQ(out[2], 2.0);
}

TEST(TanhTest, Range) {
  Tanh t(1);
  EXPECT_NEAR(t.Forward(Vec{100.0})[0], 1.0, 1e-9);
  EXPECT_NEAR(t.Forward(Vec{0.0})[0], 0.0, 1e-12);
}

// Finite-difference gradient check: the backward pass of a full MLP must
// match numerical gradients of the scalar output w.r.t. every parameter.
class GradientCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(GradientCheck, BackwardMatchesFiniteDifferences) {
  Rng rng(2);
  Network net = Network::Mlp({3, 5, 1}, GetParam(), rng);
  Vec input{0.3, -0.7, 1.1};
  const double target = 0.25;

  // Analytic gradients of L = (pred − target)² (AccumulateMseSample uses
  // dL/dpred = (pred − target), i.e. ½-scaled MSE; mirror that here).
  net.AccumulateMseSample(input, target);
  std::vector<ParamBlock> blocks = net.Params();

  const double h = 1e-6;
  for (ParamBlock& block : blocks) {
    for (size_t i = 0; i < block.values->size(); ++i) {
      double saved = (*block.values)[i];
      (*block.values)[i] = saved + h;
      double up = net.Predict(input);
      (*block.values)[i] = saved - h;
      double down = net.Predict(input);
      (*block.values)[i] = saved;
      double pred = net.Predict(input);
      double numeric = (pred - target) * (up - down) / (2.0 * h);
      EXPECT_NEAR((*block.grads)[i], numeric,
                  1e-4 * std::max(1.0, std::abs(numeric)))
          << "param " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Activations, GradientCheck,
                         ::testing::Values(Activation::kSelu,
                                           Activation::kRelu,
                                           Activation::kTanh));

TEST(NetworkTest, MlpShapes) {
  Rng rng(3);
  Network net = Network::Mlp({4, 64, 1}, Activation::kSelu, rng);
  EXPECT_EQ(net.num_layers(), 3u);  // linear, selu, linear
  Vec out = net.Forward(Vec(4, 0.5));
  EXPECT_EQ(out.dim(), 1u);
  // 4*64 + 64 + 64*1 + 1 parameters.
  size_t params = 0;
  for (ParamBlock& b : net.Params()) params += b.values->size();
  EXPECT_EQ(params, 4u * 64 + 64 + 64 + 1);
}

TEST(NetworkTest, CloneIsDeepAndEqual) {
  Rng rng(4);
  Network net = Network::Mlp({2, 3, 1}, Activation::kSelu, rng);
  Network copy = net.Clone();
  Vec x{0.1, 0.9};
  EXPECT_NEAR(net.Predict(x), copy.Predict(x), 1e-15);
  // Mutating the copy must not affect the original.
  (*copy.Params()[0].values)[0] += 1.0;
  EXPECT_NE(net.Predict(x), copy.Predict(x));
}

TEST(NetworkTest, CopyParamsFromSynchronises) {
  Rng rng(5);
  Network a = Network::Mlp({2, 4, 1}, Activation::kRelu, rng);
  Network b = Network::Mlp({2, 4, 1}, Activation::kRelu, rng);
  Vec x{0.4, -0.2};
  ASSERT_NE(a.Predict(x), b.Predict(x));
  b.CopyParamsFrom(a);
  EXPECT_NEAR(a.Predict(x), b.Predict(x), 1e-15);
}

TEST(SgdTest, ReducesLossOnRegression) {
  Rng rng(6);
  Network net = Network::Mlp({2, 8, 1}, Activation::kTanh, rng);
  Sgd sgd(net.Params(), 0.05);
  // Learn f(x) = x0 − x1 on fixed samples.
  std::vector<Vec> xs;
  std::vector<double> ys;
  for (int i = 0; i < 32; ++i) {
    Vec x{rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
    xs.push_back(x);
    ys.push_back(x[0] - x[1]);
  }
  auto epoch_loss = [&]() {
    double total = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
      double e = net.Predict(xs[i]) - ys[i];
      total += e * e;
    }
    return total / xs.size();
  };
  double before = epoch_loss();
  for (int epoch = 0; epoch < 200; ++epoch) {
    for (size_t i = 0; i < xs.size(); ++i) net.AccumulateMseSample(xs[i], ys[i]);
    sgd.Step(xs.size());
  }
  double after = epoch_loss();
  EXPECT_LT(after, before * 0.2);
  EXPECT_LT(after, 0.05);
}

TEST(AdamTest, ReducesLossFasterThanFewSteps) {
  Rng rng(7);
  Network net = Network::Mlp({1, 8, 1}, Activation::kSelu, rng);
  Adam adam(net.Params(), 0.01);
  auto loss_at = [&](double x, double y) {
    double e = net.Predict(Vec{x}) - y;
    return e * e;
  };
  double before = loss_at(0.5, 2.0);
  for (int i = 0; i < 300; ++i) {
    net.AccumulateMseSample(Vec{0.5}, 2.0);
    adam.Step(1);
  }
  EXPECT_LT(loss_at(0.5, 2.0), std::max(1e-6, before * 0.01));
}

TEST(OptimizerTest, StepAveragesOverBatch) {
  // Two identical samples with batch_size 2 must produce the same update as
  // one sample with batch_size 1.
  Rng rng(9);
  Network a = Network::Mlp({1, 2, 1}, Activation::kRelu, rng);
  Network b = a.Clone();
  Sgd opt_a(a.Params(), 0.1), opt_b(b.Params(), 0.1);
  a.AccumulateMseSample(Vec{1.0}, 0.0);
  opt_a.Step(1);
  b.AccumulateMseSample(Vec{1.0}, 0.0);
  b.AccumulateMseSample(Vec{1.0}, 0.0);
  opt_b.Step(2);
  EXPECT_NEAR(a.Predict(Vec{1.0}), b.Predict(Vec{1.0}), 1e-12);
}

TEST(SerializeTest, RoundTripPreservesPredictions) {
  Rng rng(10);
  Network net = Network::Mlp({3, 7, 1}, Activation::kSelu, rng);
  std::string text = SerializeNetwork(net);
  Result<Network> loaded = DeserializeNetwork(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (int i = 0; i < 10; ++i) {
    Vec x{rng.Uniform(-1, 1), rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
    EXPECT_NEAR(net.Predict(x), loaded->Predict(x), 1e-12);
  }
}

TEST(SerializeTest, RejectsGarbage) {
  EXPECT_FALSE(DeserializeNetwork("not a network").ok());
  EXPECT_FALSE(DeserializeNetwork("isrl-network v1\nlayers 1\nblob 2 2\n").ok());
  EXPECT_FALSE(
      DeserializeNetwork("isrl-network v1\nlayers 1\nlinear 2 2\n1 2 3\n").ok());
}

// Corpus of hostile/corrupted inputs (DESIGN.md §14): each one must come
// back as a descriptive InvalidArgument — never a CHECK abort, never an
// over-allocation, never UB. The `expect_in_message` substring pins each
// input to its intended rejection path so a later refactor cannot quietly
// start rejecting (or accepting) them for the wrong reason.
TEST(SerializeTest, NegativeCorpusYieldsDescriptiveStatuses) {
  struct Case {
    const char* label;
    std::string text;
    const char* expect_in_message;
    // Some rejections are platform-dependent in *message* (libstdc++'s
    // num_get refuses "nan"/"inf" at parse time, libc++ parses them and
    // trips the finiteness check); either message is a correct rejection.
    const char* alt_message = nullptr;
  };
  const std::vector<Case> corpus = {
      {"empty input", "", "bad header"},
      {"future version", "isrl-network v2\nlayers 1\nlinear 2 2\n", "header"},
      {"layer count missing", "isrl-network v1\n", "layer count"},
      {"layer count not a number", "isrl-network v1\nlayers many\n",
       "layer count"},
      {"implausible layer count", "isrl-network v1\nlayers 400000000\n",
       "implausible layer count"},
      {"truncated layer header", "isrl-network v1\nlayers 2\nlinear 2 2\n"
       "1 1 1 1\n1 1\n", "truncated header"},
      {"zero dimension", "isrl-network v1\nlayers 1\nlinear 0 4\n",
       "out of range"},
      // A 2^40-element weight allocation must be refused before it happens.
      {"giant dimensions", "isrl-network v1\nlayers 1\nlinear 1048576 1048576\n",
       "out of range"},
      {"unknown layer kind", "isrl-network v1\nlayers 1\nconv 2 2\n",
       "unknown layer kind"},
      {"truncated weights", "isrl-network v1\nlayers 1\nlinear 2 2\n1 2 3\n",
       "truncated weights"},
      {"truncated biases", "isrl-network v1\nlayers 1\nlinear 2 2\n"
       "1 2 3 4\n1\n", "truncated biases"},
      {"NaN weight", "isrl-network v1\nlayers 1\nlinear 2 2\n"
       "1 nan 3 4\n0 0\n", "non-finite weight", "truncated weights"},
      {"infinite bias", "isrl-network v1\nlayers 1\nlinear 2 2\n"
       "1 2 3 4\ninf 0\n", "non-finite bias", "truncated biases"},
      {"weight that is not a number", "isrl-network v1\nlayers 1\nlinear 2 2\n"
       "1 x 3 4\n0 0\n", "truncated weights"},
  };
  for (const Case& c : corpus) {
    Result<Network> net = DeserializeNetwork(c.text);
    ASSERT_FALSE(net.ok()) << c.label;
    EXPECT_EQ(net.status().code(), StatusCode::kInvalidArgument) << c.label;
    // status() returns by value: hold the Status, not a reference into
    // the temporary.
    const Status status = net.status();
    const std::string& msg = status.message();
    const bool matched =
        msg.find(c.expect_in_message) != std::string::npos ||
        (c.alt_message != nullptr &&
         msg.find(c.alt_message) != std::string::npos);
    EXPECT_TRUE(matched) << c.label << ": got '" << net.status().ToString()
                         << "'";
  }
}

TEST(SerializeTest, FingerprintTracksWeightsAndArchitecture) {
  Rng rng(13);
  Network a = Network::Mlp({3, 7, 1}, Activation::kSelu, rng);
  Network b = a.Clone();
  EXPECT_EQ(NetworkFingerprint(a), NetworkFingerprint(b));

  // One optimiser step must change the identity...
  Sgd sgd(b.Params(), 0.1);
  b.AccumulateMseSample(Vec{0.1, 0.2, 0.3}, 1.0);
  sgd.Step(1);
  EXPECT_NE(NetworkFingerprint(a), NetworkFingerprint(b));

  // ...and the fingerprint survives a serialisation round trip.
  Result<Network> reloaded = DeserializeNetwork(SerializeNetwork(a));
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(NetworkFingerprint(a), NetworkFingerprint(*reloaded));
}

TEST(SerializeTest, FileRoundTrip) {
  Rng rng(11);
  Network net = Network::Mlp({2, 4, 1}, Activation::kTanh, rng);
  const std::string path = ::testing::TempDir() + "/isrl_net.txt";
  ASSERT_TRUE(SaveNetwork(net, path).ok());
  Result<Network> loaded = LoadNetwork(path);
  ASSERT_TRUE(loaded.ok());
  Vec x{0.2, -0.4};
  EXPECT_NEAR(net.Predict(x), loaded->Predict(x), 1e-12);
}


TEST(RegressionSampleTest, WeightScalesGradientLinearly) {
  Rng rng(12);
  Network a = Network::Mlp({2, 4, 1}, Activation::kRelu, rng);
  Network b = a.Clone();
  Vec x{0.4, -0.3};
  a.AccumulateRegressionSample(x, 1.0, /*weight=*/1.0, /*huber_delta=*/0.0);
  b.AccumulateRegressionSample(x, 1.0, /*weight=*/0.5, /*huber_delta=*/0.0);
  std::vector<ParamBlock> ga = a.Params(), gb = b.Params();
  for (size_t blk = 0; blk < ga.size(); ++blk) {
    for (size_t i = 0; i < ga[blk].grads->size(); ++i) {
      EXPECT_NEAR((*gb[blk].grads)[i], 0.5 * (*ga[blk].grads)[i], 1e-12);
    }
  }
}

TEST(RegressionSampleTest, HuberClipsLargeErrors) {
  Rng rng(13);
  Network a = Network::Mlp({1, 3, 1}, Activation::kTanh, rng);
  Network b = a.Clone();
  // A wildly wrong target: the squared-error gradient is huge; Huber's is
  // clipped at delta, so the Huber-updated accumulation must be the
  // squared-error accumulation rescaled by delta/|err|.
  Vec x{0.7};
  double err_a = a.AccumulateRegressionSample(x, 100.0, 1.0, 0.0);
  double err_b = b.AccumulateRegressionSample(x, 100.0, 1.0, 2.0);
  EXPECT_NEAR(err_a, err_b, 1e-12);  // raw error identical
  double scale = 2.0 / std::abs(err_a);
  std::vector<ParamBlock> ga = a.Params(), gb = b.Params();
  for (size_t blk = 0; blk < ga.size(); ++blk) {
    for (size_t i = 0; i < ga[blk].grads->size(); ++i) {
      EXPECT_NEAR((*gb[blk].grads)[i], scale * (*ga[blk].grads)[i], 1e-9);
    }
  }
}

// ---------- Batched execution (DESIGN.md §12) ----------

Matrix RandomBatch(size_t rows, size_t dim, Rng& rng) {
  Matrix m(rows, dim);
  for (double& v : m.data()) v = rng.Uniform(-1.0, 1.0);
  return m;
}

class BatchedEquivalence : public ::testing::TestWithParam<Activation> {};

TEST_P(BatchedEquivalence, PredictBatchMatchesScalarExactly) {
  Rng rng(31);
  Network net = Network::Mlp({5, 9, 1}, GetParam(), rng);
  Matrix batch = RandomBatch(7, 5, rng);
  Vec preds = net.PredictBatch(batch);
  ASSERT_EQ(preds.dim(), 7u);
  for (size_t r = 0; r < batch.rows(); ++r) {
    // Exact equality: the batched kernel keeps the scalar summation order.
    EXPECT_EQ(preds[r], net.Predict(batch.RowVec(r)));
    EXPECT_EQ(preds[r], net.Infer(batch.RowVec(r)));
  }
}

TEST_P(BatchedEquivalence, BatchForwardMatchesScalarOnWideHead) {
  Rng rng(32);
  Network net = Network::Mlp({4, 6, 3}, GetParam(), rng);
  Matrix batch = RandomBatch(5, 4, rng);
  Matrix out = net.BatchForward(batch);
  ASSERT_EQ(out.rows(), 5u);
  ASSERT_EQ(out.cols(), 3u);
  for (size_t r = 0; r < batch.rows(); ++r) {
    Vec scalar = net.Forward(batch.RowVec(r));
    for (size_t c = 0; c < out.cols(); ++c) EXPECT_EQ(out(r, c), scalar[c]);
  }
}

TEST_P(BatchedEquivalence, BatchBackwardAccumulatesScalarGradients) {
  Rng rng(33);
  Network scalar_net = Network::Mlp({4, 8, 1}, GetParam(), rng);
  Network batched_net = scalar_net.Clone();
  Matrix batch = RandomBatch(6, 4, rng);
  Vec out_grads(6);
  for (size_t r = 0; r < 6; ++r) out_grads[r] = rng.Uniform(-2.0, 2.0);

  for (size_t r = 0; r < 6; ++r) {
    scalar_net.Forward(batch.RowVec(r));
    scalar_net.Backward(Vec{out_grads[r]});
  }
  Matrix grads(6, 1);
  for (size_t r = 0; r < 6; ++r) grads(r, 0) = out_grads[r];
  batched_net.BatchForward(batch);
  batched_net.BatchBackward(grads);

  std::vector<ParamBlock> gs = scalar_net.Params();
  std::vector<ParamBlock> gb = batched_net.Params();
  ASSERT_EQ(gs.size(), gb.size());
  for (size_t blk = 0; blk < gs.size(); ++blk) {
    for (size_t i = 0; i < gs[blk].grads->size(); ++i) {
      // Exact equality: BatchBackward accumulates in sample-row order, the
      // same order as the sequential scalar Backward calls.
      EXPECT_EQ((*gb[blk].grads)[i], (*gs[blk].grads)[i]);
    }
  }
}

TEST_P(BatchedEquivalence, RegressionBatchMatchesSampleLoopThroughAdamStep) {
  Rng rng(34);
  Network scalar_net = Network::Mlp({3, 7, 1}, GetParam(), rng);
  Network batched_net = scalar_net.Clone();
  Adam scalar_opt(scalar_net.Params(), 0.01);
  Adam batched_opt(batched_net.Params(), 0.01);

  Matrix inputs = RandomBatch(5, 3, rng);
  Vec targets(5), weights(5);
  for (size_t r = 0; r < 5; ++r) {
    targets[r] = rng.Uniform(-1.0, 1.0);
    weights[r] = rng.Uniform(0.1, 2.0);
  }
  const double huber_delta = 0.5;

  Vec scalar_errs(5);
  for (size_t r = 0; r < 5; ++r) {
    scalar_errs[r] = scalar_net.AccumulateRegressionSample(
        inputs.RowVec(r), targets[r], weights[r], huber_delta);
  }
  Vec batched_errs =
      batched_net.AccumulateRegressionBatch(inputs, targets, weights,
                                            huber_delta);
  ASSERT_EQ(batched_errs.dim(), 5u);
  for (size_t r = 0; r < 5; ++r) EXPECT_EQ(batched_errs[r], scalar_errs[r]);

  scalar_opt.Step(5);
  batched_opt.Step(5);
  std::vector<ParamBlock> ps = scalar_net.Params();
  std::vector<ParamBlock> pb = batched_net.Params();
  for (size_t blk = 0; blk < ps.size(); ++blk) {
    for (size_t i = 0; i < ps[blk].values->size(); ++i) {
      EXPECT_EQ((*pb[blk].values)[i], (*ps[blk].values)[i]);
    }
  }
  // After the step both nets must still predict identically.
  Vec probe{0.2, -0.4, 0.9};
  EXPECT_EQ(batched_net.Predict(probe), scalar_net.Predict(probe));
}

TEST_P(BatchedEquivalence, EmptyWeightsMeanUnitWeights) {
  Rng rng(35);
  Network a = Network::Mlp({2, 5, 1}, GetParam(), rng);
  Network b = a.Clone();
  Matrix inputs = RandomBatch(4, 2, rng);
  Vec targets{0.1, -0.2, 0.3, -0.4};
  Vec unit(4, 1.0);
  Vec ea = a.AccumulateRegressionBatch(inputs, targets, Vec(), 0.0);
  Vec eb = b.AccumulateRegressionBatch(inputs, targets, unit, 0.0);
  for (size_t r = 0; r < 4; ++r) EXPECT_EQ(ea[r], eb[r]);
  std::vector<ParamBlock> ga = a.Params(), gb = b.Params();
  for (size_t blk = 0; blk < ga.size(); ++blk) {
    for (size_t i = 0; i < ga[blk].grads->size(); ++i) {
      EXPECT_EQ((*ga[blk].grads)[i], (*gb[blk].grads)[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Activations, BatchedEquivalence,
                         ::testing::Values(Activation::kSelu, Activation::kRelu,
                                           Activation::kTanh));

TEST(InferenceModeTest, InferDoesNotDisturbTrainingCache) {
  Rng rng(36);
  Network with_infer = Network::Mlp({3, 6, 1}, Activation::kSelu, rng);
  Network without = with_infer.Clone();
  Vec train_x{0.4, -0.1, 0.8};
  Vec other{0.9, 0.9, -0.9};

  with_infer.Forward(train_x);
  // Inference between Forward and Backward (e.g. target-network scoring in
  // the middle of a DQN update) must leave the cached activations intact.
  (void)with_infer.Infer(other);
  (void)with_infer.PredictBatch(Matrix::FromRows({other, train_x}));
  with_infer.Backward(Vec{1.0});

  without.Forward(train_x);
  without.Backward(Vec{1.0});

  std::vector<ParamBlock> ga = with_infer.Params(), gb = without.Params();
  for (size_t blk = 0; blk < ga.size(); ++blk) {
    for (size_t i = 0; i < ga[blk].grads->size(); ++i) {
      EXPECT_EQ((*ga[blk].grads)[i], (*gb[blk].grads)[i]);
    }
  }
}

TEST(RegressionSampleTest, HuberMatchesMseInsideDelta) {
  Rng rng(14);
  Network a = Network::Mlp({1, 3, 1}, Activation::kSelu, rng);
  Network b = a.Clone();
  // Target chosen so |err| < delta: gradients must be identical.
  Vec x{0.2};
  double pred = a.Predict(x);
  double target = pred - 0.1;
  a.AccumulateRegressionSample(x, target, 1.0, 0.0);
  b.AccumulateRegressionSample(x, target, 1.0, 5.0);
  std::vector<ParamBlock> ga = a.Params(), gb = b.Params();
  for (size_t blk = 0; blk < ga.size(); ++blk) {
    for (size_t i = 0; i < ga[blk].grads->size(); ++i) {
      EXPECT_NEAR((*gb[blk].grads)[i], (*ga[blk].grads)[i], 1e-12);
    }
  }
}

}  // namespace
}  // namespace isrl::nn
