// Tests for the autograd engine: graph mechanics, accumulation, no-grad mode,
// and closed-form gradient checks for key ops.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "linalg/kernels/kernels.h"
#include "tensor/tensor_ops.h"

namespace rita {
namespace ag {
namespace {

TEST(VariableTest, LeafHasNoGradFn) {
  Variable v(Tensor::Ones({2}), /*requires_grad=*/true);
  EXPECT_TRUE(v.requires_grad());
  EXPECT_EQ(v.grad_fn(), nullptr);
  EXPECT_FALSE(v.has_grad());
}

TEST(VariableTest, SimpleChainBackward) {
  Variable x(Tensor::Scalar(3.0f), true);
  Variable y = MulScalar(x, 2.0f);      // y = 2x
  Variable z = AddScalar(y, 1.0f);      // z = 2x + 1
  z.Backward();
  EXPECT_FLOAT_EQ(x.grad().Item(), 2.0f);
}

TEST(VariableTest, FanOutAccumulatesGrads) {
  Variable x(Tensor::Scalar(2.0f), true);
  Variable y = Add(Mul(x, x), x);  // y = x^2 + x, dy/dx = 2x + 1 = 5
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad().Item(), 5.0f);
}

TEST(VariableTest, DiamondGraph) {
  Variable x(Tensor::Scalar(3.0f), true);
  Variable a = MulScalar(x, 2.0f);  // 2x
  Variable b = MulScalar(x, 5.0f);  // 5x
  Variable y = Mul(a, b);           // 10 x^2, dy/dx = 20x = 60
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad().Item(), 60.0f);
}

TEST(VariableTest, BackwardTwiceAccumulates) {
  Variable x(Tensor::Scalar(1.0f), true);
  Variable y = MulScalar(x, 3.0f);
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad().Item(), 3.0f);
  Variable y2 = MulScalar(x, 3.0f);
  y2.Backward();
  EXPECT_FLOAT_EQ(x.grad().Item(), 6.0f);
  x.ZeroGrad();
  EXPECT_FALSE(x.has_grad());
}

TEST(VariableTest, NoGradModeBuildsNoGraph) {
  Variable x(Tensor::Scalar(2.0f), true);
  {
    NoGradGuard guard;
    Variable y = Mul(x, x);
    EXPECT_EQ(y.grad_fn(), nullptr);
  }
  Variable y = Mul(x, x);
  EXPECT_NE(y.grad_fn(), nullptr);
}

TEST(VariableTest, NonRequiringInputGetsNoGrad) {
  Variable x(Tensor::Scalar(2.0f), true);
  Variable c(Tensor::Scalar(10.0f), false);
  Variable y = Mul(x, c);
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad().Item(), 10.0f);
  EXPECT_FALSE(c.has_grad());
}

TEST(VariableTest, BackwardWithExplicitGrad) {
  Variable x(Tensor::FromVector({2}, {1.0f, 2.0f}), true);
  Variable y = MulScalar(x, 3.0f);
  y.Backward(Tensor::FromVector({2}, {1.0f, 10.0f}));
  EXPECT_FLOAT_EQ(x.grad().data()[0], 3.0f);
  EXPECT_FLOAT_EQ(x.grad().data()[1], 30.0f);
}

TEST(BroadcastGradTest, BiasAddReducesGrad) {
  Variable x(Tensor::Ones({2, 3}), true);
  Variable b(Tensor::Zeros({3}), true);
  Variable y = SumAll(Add(x, b));
  y.Backward();
  EXPECT_EQ(b.grad().shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(b.grad().data()[0], 2.0f);  // summed over batch
  EXPECT_FLOAT_EQ(x.grad().data()[0], 1.0f);
}

TEST(MatMulGradTest, ClosedForm) {
  // y = sum(A B): dA = ones * B^T, dB = A^T * ones
  Variable a(Tensor::FromVector({2, 2}, {1, 2, 3, 4}), true);
  Variable b(Tensor::FromVector({2, 2}, {5, 6, 7, 8}), true);
  Variable y = SumAll(MatMul(a, b));
  y.Backward();
  // dA[i,k] = sum_j B[k,j]
  EXPECT_FLOAT_EQ(a.grad().At({0, 0}), 11.0f);
  EXPECT_FLOAT_EQ(a.grad().At({0, 1}), 15.0f);
  // dB[k,j] = sum_i A[i,k]
  EXPECT_FLOAT_EQ(b.grad().At({0, 0}), 4.0f);
  EXPECT_FLOAT_EQ(b.grad().At({1, 1}), 6.0f);
}

TEST(SoftmaxGradTest, GradSumsToZeroPerRow) {
  Rng rng(1);
  Variable x(Tensor::RandNormal({4, 6}, &rng), true);
  Variable s = SoftmaxLastDim(x);
  // Weighted sum objective so gradient is nontrivial.
  Tensor w = Tensor::RandNormal({4, 6}, &rng);
  Variable y = SumAll(Mul(s, Variable(w)));
  y.Backward();
  for (int64_t r = 0; r < 4; ++r) {
    float row_sum = 0.0f;
    for (int64_t j = 0; j < 6; ++j) row_sum += x.grad().At({r, j});
    EXPECT_NEAR(row_sum, 0.0f, 1e-5f);  // softmax grad is orthogonal to ones
  }
}

TEST(CrossEntropyTest, UniformLogitsGiveLogC) {
  Variable logits(Tensor::Zeros({2, 4}), true);
  Variable loss = CrossEntropy(logits, {0, 3});
  EXPECT_NEAR(loss.data().Item(), std::log(4.0f), 1e-5f);
  loss.Backward();
  // grad = (softmax - onehot)/B; softmax uniform = 0.25
  EXPECT_NEAR(logits.grad().At({0, 0}), (0.25f - 1.0f) / 2.0f, 1e-5f);
  EXPECT_NEAR(logits.grad().At({0, 1}), 0.25f / 2.0f, 1e-5f);
}

TEST(CrossEntropyTest, PerfectPredictionLowLoss) {
  Tensor t = Tensor::Zeros({1, 3});
  t.At({0, 1}) = 100.0f;
  Variable logits(t, true);
  Variable loss = CrossEntropy(logits, {1});
  EXPECT_LT(loss.data().Item(), 1e-4f);
}

TEST(MaskedMseTest, MaskRestrictsLoss) {
  Variable pred(Tensor::FromVector({1, 2, 2}, {1, 2, 3, 4}), true);
  Tensor target = Tensor::FromVector({1, 2, 2}, {0, 0, 0, 0});
  Tensor mask = Tensor::FromVector({1, 2, 2}, {1, 0, 0, 1});
  Variable loss = MaskedMse(pred, target, mask);
  // (1^2 + 4^2) / 2 = 8.5
  EXPECT_FLOAT_EQ(loss.data().Item(), 8.5f);
  loss.Backward();
  EXPECT_FLOAT_EQ(pred.grad().At({0, 0, 1}), 0.0f);   // masked out
  EXPECT_FLOAT_EQ(pred.grad().At({0, 0, 0}), 1.0f);   // 2 * 1 / 2
  EXPECT_FLOAT_EQ(pred.grad().At({0, 1, 1}), 4.0f);
}

TEST(DropoutTest, EvalModeIsIdentity) {
  Rng rng(1);
  Variable x(Tensor::Ones({10}), true);
  Variable y = Dropout(x, 0.5f, /*training=*/false, &rng);
  EXPECT_TRUE(y.data().AllClose(x.data()));
}

TEST(DropoutTest, TrainingScalesSurvivors) {
  Rng rng(1);
  Variable x(Tensor::Ones({10000}), true);
  Variable y = Dropout(x, 0.25f, /*training=*/true, &rng);
  double sum = 0.0;
  int64_t zeros = 0;
  for (int64_t i = 0; i < y.numel(); ++i) {
    const float v = y.data().data()[i];
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.75f, 1e-5f);
    }
    sum += v;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.25, 0.02);
  EXPECT_NEAR(sum / y.numel(), 1.0, 0.03);  // inverted dropout preserves mean
}

TEST(UnfoldFoldTest, UnfoldExtractsWindows) {
  // T=4, C=2, w=2, stride=2 -> 2 windows
  Variable x(Tensor::Arange(8).Reshape({1, 4, 2}), false);
  Variable u = Unfold1d(x, 2, 2);
  EXPECT_EQ(u.shape(), (Shape{1, 2, 4}));
  EXPECT_EQ(u.data().At({0, 0, 0}), 0.0f);
  EXPECT_EQ(u.data().At({0, 1, 3}), 7.0f);
}

TEST(UnfoldFoldTest, FoldSumsOverlap) {
  // n_win=2, w=2, stride=1, C=1 -> T=3, middle element summed twice.
  Variable x(Tensor::FromVector({1, 2, 2}, {1, 2, 3, 4}), false);
  Variable f = Fold1d(x, 3, 1, 2, 1);
  EXPECT_EQ(f.shape(), (Shape{1, 3, 1}));
  EXPECT_EQ(f.data().At({0, 0, 0}), 1.0f);
  EXPECT_EQ(f.data().At({0, 1, 0}), 5.0f);  // 2 + 3
  EXPECT_EQ(f.data().At({0, 2, 0}), 4.0f);
}

TEST(LayerNormTest, NormalisesRows) {
  Rng rng(2);
  Variable x(Tensor::RandNormal({3, 8}, &rng, 5.0f, 2.0f), true);
  Variable gamma(Tensor::Ones({8}), true);
  Variable beta(Tensor::Zeros({8}), true);
  Variable y = LayerNorm(x, gamma, beta);
  for (int64_t r = 0; r < 3; ++r) {
    float mean = 0.0f, var = 0.0f;
    for (int64_t j = 0; j < 8; ++j) mean += y.data().At({r, j});
    mean /= 8.0f;
    for (int64_t j = 0; j < 8; ++j) {
      const float c = y.data().At({r, j}) - mean;
      var += c * c;
    }
    var /= 8.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(BatchNormTest, TrainingNormalisesAndUpdatesRunningStats) {
  Rng rng(3);
  Variable x(Tensor::RandNormal({64, 4}, &rng, 3.0f, 2.0f), true);
  Variable gamma(Tensor::Ones({4}), true);
  Variable beta(Tensor::Zeros({4}), true);
  Tensor rm = Tensor::Zeros({4});
  Tensor rv = Tensor::Ones({4});
  Variable y = BatchNorm(x, gamma, beta, &rm, &rv, /*training=*/true, 1.0f);
  // With momentum 1.0 running stats equal the batch stats.
  EXPECT_NEAR(rm.data()[0], 3.0f, 0.5f);
  EXPECT_NEAR(rv.data()[0], 4.0f, 1.0f);
  // Output is normalised per feature.
  float mean = 0.0f;
  for (int64_t r = 0; r < 64; ++r) mean += y.data().At({r, 0});
  EXPECT_NEAR(mean / 64.0f, 0.0f, 1e-4f);
}

TEST(BatchNormTest, EvalUsesRunningStats) {
  Variable x(Tensor::Full({2, 2}, 10.0f), false);
  Variable gamma(Tensor::Ones({2}), false);
  Variable beta(Tensor::Zeros({2}), false);
  Tensor rm = Tensor::Full({2}, 10.0f);
  Tensor rv = Tensor::Ones({2});
  Variable y = BatchNorm(x, gamma, beta, &rm, &rv, /*training=*/false);
  EXPECT_NEAR(y.data().At({0, 0}), 0.0f, 1e-4f);
}

TEST(ShapeGradTest, ConcatSliceRoundTrip) {
  Variable a(Tensor::Ones({2, 2}), true);
  Variable b(Tensor::Ones({3, 2}), true);
  Variable c = Concat({a, b}, 0);
  EXPECT_EQ(c.shape(), (Shape{5, 2}));
  Variable top = Slice(c, 0, 0, 2);
  Variable y = SumAll(MulScalar(top, 2.0f));
  y.Backward();
  EXPECT_FLOAT_EQ(a.grad().data()[0], 2.0f);
  EXPECT_FLOAT_EQ(b.grad().data()[0], 0.0f);  // sliced away
}

TEST(ReshapeGradTest, GradKeepsOriginalShape) {
  Variable x(Tensor::Ones({2, 3}), true);
  Variable y = SumAll(Reshape(x, {6}));
  y.Backward();
  EXPECT_EQ(x.grad().shape(), (Shape{2, 3}));
}

// Grad-free Gelu is the dispatched kernel's output with no graph node, on
// every backend; on the scalar backend it is also the historical closed form
// bit for bit, so serving outputs there are unchanged.
TEST(GeluTest, NoGradValueIsTheKernelValue) {
  namespace kn = kernels;
  const kn::Backend original = kn::ActiveBackend();
  std::vector<kn::Backend> backends = {kn::Backend::kScalar};
  if (kn::SimdAvailable()) backends.push_back(kn::Backend::kSimd);
  // 4099 values over [-8, 8]: crosses both tanh saturations and leaves a
  // non-multiple-of-8 tail for the SIMD loop.
  const int64_t n = 4099;
  Tensor x({n});
  for (int64_t i = 0; i < n; ++i) {
    x.data()[i] = -8.0f + 16.0f * static_cast<float>(i) / static_cast<float>(n - 1);
  }
  for (const kn::Backend backend : backends) {
    kn::SetBackendForTesting(backend);
    Variable input(x, /*requires_grad=*/true);
    Variable y;
    {
      NoGradGuard guard;
      y = Gelu(input);
    }
    EXPECT_EQ(y.grad_fn(), nullptr);
    EXPECT_FALSE(y.requires_grad());
    const Tensor want = ops::Gelu(x);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(y.data().data()[i], want.data()[i])
          << kn::BackendName(backend) << " i=" << i;
    }
    if (backend == kn::Backend::kScalar) {
      constexpr float kC = 0.7978845608f;
      for (int64_t i = 0; i < n; ++i) {
        const float v = x.data()[i];
        const float ref = 0.5f * v * (1.0f + std::tanh(kC * (v + 0.044715f * v * v * v)));
        ASSERT_EQ(y.data().data()[i], ref) << "i=" << i;
      }
    }
    // Grad mode keeps the graph node and the same value.
    Variable tracked = Gelu(input);
    EXPECT_NE(tracked.grad_fn(), nullptr);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(tracked.data().data()[i], want.data()[i]);
    }
  }
  kn::SetBackendForTesting(original);
}

}  // namespace
}  // namespace ag
}  // namespace rita
