// Finite-difference gradient verification for every differentiable op,
// parameterised over representative shapes.
#include <gtest/gtest.h>

#include "attention/multi_head.h"
#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "core/attention_factory.h"
#include "nn/layers.h"
#include "tensor/tensor_ops.h"

namespace rita {
namespace ag {
namespace {

Variable WeightedSum(const Variable& v, const Tensor& w) {
  return SumAll(Mul(v, Variable(w)));
}

// Each case is (name, scalar objective builder over a single input).
struct UnaryCase {
  const char* name;
  Variable (*apply)(const Variable&);
  float lo;  // input sampling range (keeps ops like Log in-domain)
  float hi;
};

Variable ApplyExp(const Variable& x) { return SumAll(Exp(x)); }
Variable ApplyLog(const Variable& x) { return SumAll(Log(x)); }
Variable ApplySqrt(const Variable& x) { return SumAll(Sqrt(x)); }
Variable ApplySquare(const Variable& x) { return SumAll(Square(x)); }
Variable ApplyTanh(const Variable& x) { return SumAll(Tanh(x)); }
Variable ApplySigmoid(const Variable& x) { return SumAll(Sigmoid(x)); }
Variable ApplyGelu(const Variable& x) { return SumAll(Gelu(x)); }
Variable ApplyNeg(const Variable& x) { return SumAll(Neg(x)); }
Variable ApplyMean(const Variable& x) { return MeanAll(x); }
Variable ApplySoftmaxSq(const Variable& x) {
  return SumAll(Square(SoftmaxLastDim(x)));
}
Variable ApplyLogSoftmaxSq(const Variable& x) {
  return SumAll(Square(LogSoftmaxLastDim(x)));
}

class UnaryGradTest : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradTest, MatchesFiniteDifference) {
  const UnaryCase& c = GetParam();
  Rng rng(17);
  Variable x(Tensor::RandUniform({3, 5}, &rng, c.lo, c.hi), true);
  auto f = [&](const std::vector<Variable>& in) { return c.apply(in[0]); };
  auto result = GradCheck(f, {x});
  EXPECT_TRUE(result.ok) << c.name << ": " << result.message;
}

INSTANTIATE_TEST_SUITE_P(
    AllUnaryOps, UnaryGradTest,
    ::testing::Values(UnaryCase{"Exp", ApplyExp, -1.0f, 1.0f},
                      UnaryCase{"Log", ApplyLog, 0.5f, 2.0f},
                      UnaryCase{"Sqrt", ApplySqrt, 0.5f, 2.0f},
                      UnaryCase{"Square", ApplySquare, -1.0f, 1.0f},
                      UnaryCase{"Tanh", ApplyTanh, -1.0f, 1.0f},
                      UnaryCase{"Sigmoid", ApplySigmoid, -1.0f, 1.0f},
                      UnaryCase{"Gelu", ApplyGelu, -1.5f, 1.5f},
                      UnaryCase{"Neg", ApplyNeg, -1.0f, 1.0f},
                      UnaryCase{"Mean", ApplyMean, -1.0f, 1.0f},
                      UnaryCase{"SoftmaxSq", ApplySoftmaxSq, -1.0f, 1.0f},
                      UnaryCase{"LogSoftmaxSq", ApplyLogSoftmaxSq, -1.0f, 1.0f}),
    [](const ::testing::TestParamInfo<UnaryCase>& info) { return info.param.name; });

TEST(BinaryGradTest, AddSubMulDivWithBroadcast) {
  Rng rng(23);
  Tensor w = Tensor::RandNormal({4, 3}, &rng);
  Variable a(Tensor::RandUniform({4, 3}, &rng, 0.5f, 1.5f), true);
  Variable b(Tensor::RandUniform({3}, &rng, 0.5f, 1.5f), true);

  auto check = [&](const char* name, Variable (*op)(const Variable&, const Variable&)) {
    auto f = [&](const std::vector<Variable>& in) {
      return WeightedSum(op(in[0], in[1]), w);
    };
    auto result = GradCheck(f, {a, b});
    EXPECT_TRUE(result.ok) << name << ": " << result.message;
  };
  check("Add", Add);
  check("Sub", Sub);
  check("Mul", Mul);
  check("Div", Div);
}

TEST(MatMulGradTest, AllTransposeCombos) {
  Rng rng(29);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      Variable a(Tensor::RandNormal(ta ? Shape{4, 3} : Shape{3, 4}, &rng), true);
      Variable b(Tensor::RandNormal(tb ? Shape{5, 4} : Shape{4, 5}, &rng), true);
      Tensor w = Tensor::RandNormal({3, 5}, &rng);
      auto f = [&](const std::vector<Variable>& in) {
        return WeightedSum(MatMul(in[0], in[1], ta, tb), w);
      };
      auto result = GradCheck(f, {a, b});
      EXPECT_TRUE(result.ok) << "ta=" << ta << " tb=" << tb << ": " << result.message;
    }
  }
}

TEST(BmmGradTest, BatchedAndSharedB) {
  Rng rng(31);
  {
    Variable a(Tensor::RandNormal({2, 3, 4}, &rng), true);
    Variable b(Tensor::RandNormal({2, 4, 5}, &rng), true);
    Tensor w = Tensor::RandNormal({2, 3, 5}, &rng);
    auto f = [&](const std::vector<Variable>& in) {
      return WeightedSum(Bmm(in[0], in[1]), w);
    };
    auto result = GradCheck(f, {a, b});
    EXPECT_TRUE(result.ok) << "3Dx3D: " << result.message;
  }
  {
    Variable a(Tensor::RandNormal({2, 3, 4}, &rng), true);
    Variable b(Tensor::RandNormal({4, 5}, &rng), true);
    Tensor w = Tensor::RandNormal({2, 3, 5}, &rng);
    auto f = [&](const std::vector<Variable>& in) {
      return WeightedSum(Bmm(in[0], in[1]), w);
    };
    auto result = GradCheck(f, {a, b});
    EXPECT_TRUE(result.ok) << "3Dx2D: " << result.message;
  }
  {
    // Attention pattern: Q K^T.
    Variable q(Tensor::RandNormal({2, 3, 4}, &rng), true);
    Variable k(Tensor::RandNormal({2, 5, 4}, &rng), true);
    Tensor w = Tensor::RandNormal({2, 3, 5}, &rng);
    auto f = [&](const std::vector<Variable>& in) {
      return WeightedSum(Bmm(in[0], in[1], false, true), w);
    };
    auto result = GradCheck(f, {q, k});
    EXPECT_TRUE(result.ok) << "QKt: " << result.message;
  }
}

TEST(ReduceGradTest, SumAndMeanAlongAxes) {
  Rng rng(37);
  Variable x(Tensor::RandNormal({3, 4, 2}, &rng), true);
  for (int64_t axis = 0; axis < 3; ++axis) {
    for (bool keep : {false, true}) {
      auto f = [&](const std::vector<Variable>& in) {
        return SumAll(Square(Sum(in[0], axis, keep)));
      };
      auto result = GradCheck(f, {x});
      EXPECT_TRUE(result.ok) << "Sum axis " << axis << ": " << result.message;
      auto g = [&](const std::vector<Variable>& in) {
        return SumAll(Square(Mean(in[0], axis, keep)));
      };
      result = GradCheck(g, {x});
      EXPECT_TRUE(result.ok) << "Mean axis " << axis << ": " << result.message;
    }
  }
}

TEST(ShapeGradTest, ReshapeTransposeConcatSlice) {
  Rng rng(41);
  Variable a(Tensor::RandNormal({2, 6}, &rng), true);
  Variable b(Tensor::RandNormal({2, 6}, &rng), true);
  Tensor w = Tensor::RandNormal({4, 6}, &rng);
  auto f = [&](const std::vector<Variable>& in) {
    Variable t = TransposeLast2(Reshape(in[0], {3, 4}));  // [4,3]
    Variable t2 = Reshape(t, {2, 6});
    Variable cat = Concat({t2, in[1]}, 0);  // [4,6]
    Variable sl = Slice(cat, 1, 1, 4);      // [4,4]
    return WeightedSum(sl, ops::Slice(w, 1, 1, 4));
  };
  auto result = GradCheck(f, {a, b});
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(NormGradTest, LayerNormAllInputs) {
  Rng rng(43);
  Variable x(Tensor::RandNormal({4, 6}, &rng), true);
  Variable gamma(Tensor::RandUniform({6}, &rng, 0.5f, 1.5f), true);
  Variable beta(Tensor::RandNormal({6}, &rng), true);
  Tensor w = Tensor::RandNormal({4, 6}, &rng);
  auto f = [&](const std::vector<Variable>& in) {
    return WeightedSum(LayerNorm(in[0], in[1], in[2]), w);
  };
  auto result = GradCheck(f, {x, gamma, beta});
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(NormGradTest, BatchNormTrainingAllInputs) {
  Rng rng(47);
  Variable x(Tensor::RandNormal({8, 3}, &rng), true);
  Variable gamma(Tensor::RandUniform({3}, &rng, 0.5f, 1.5f), true);
  Variable beta(Tensor::RandNormal({3}, &rng), true);
  Tensor w = Tensor::RandNormal({8, 3}, &rng);
  auto f = [&](const std::vector<Variable>& in) {
    Tensor rm = Tensor::Zeros({3});
    Tensor rv = Tensor::Ones({3});
    return WeightedSum(BatchNorm(in[0], in[1], in[2], &rm, &rv, true), w);
  };
  auto result = GradCheck(f, {x, gamma, beta});
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(ConvGradTest, UnfoldAndFold) {
  Rng rng(53);
  {
    Variable x(Tensor::RandNormal({2, 8, 3}, &rng), true);
    Tensor w = Tensor::RandNormal({2, 3, 12}, &rng);  // n_win=(8-4)/2+1=3
    auto f = [&](const std::vector<Variable>& in) {
      return WeightedSum(Unfold1d(in[0], 4, 2), w);
    };
    auto result = GradCheck(f, {x});
    EXPECT_TRUE(result.ok) << "Unfold: " << result.message;
  }
  {
    Variable x(Tensor::RandNormal({2, 3, 8}, &rng), true);  // n_win=3, w*C=8
    Tensor w = Tensor::RandNormal({2, 10, 2}, &rng);        // T=10, C=2, w=4, stride=3
    auto f = [&](const std::vector<Variable>& in) {
      return WeightedSum(Fold1d(in[0], 10, 2, 4, 3), w);
    };
    auto result = GradCheck(f, {x});
    EXPECT_TRUE(result.ok) << "Fold: " << result.message;
  }
}

TEST(LossGradTest, CrossEntropyLogits) {
  Rng rng(59);
  Variable logits(Tensor::RandNormal({5, 4}, &rng), true);
  const std::vector<int64_t> labels = {0, 3, 1, 2, 2};
  auto f = [&](const std::vector<Variable>& in) { return CrossEntropy(in[0], labels); };
  auto result = GradCheck(f, {logits});
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(LossGradTest, MaskedMse) {
  Rng rng(61);
  Variable pred(Tensor::RandNormal({2, 4, 3}, &rng), true);
  Tensor target = Tensor::RandNormal({2, 4, 3}, &rng);
  Tensor mask(target.shape());
  for (int64_t i = 0; i < mask.numel(); ++i) mask.data()[i] = (i % 3 == 0) ? 1.0f : 0.0f;
  auto f = [&](const std::vector<Variable>& in) {
    return MaskedMse(in[0], target, mask);
  };
  auto result = GradCheck(f, {pred});
  EXPECT_TRUE(result.ok) << result.message;
}

// nn::Linear's forward is a row loop with one LinearFunction node; its
// backward (dx, dW, db) is checked against central differences through the
// module's own parameters.
TEST(LinearGradTest, RowLoopForwardWithAndWithoutBias) {
  for (bool bias : {true, false}) {
    for (Shape in_shape : {Shape{4, 5}, Shape{2, 3, 5}}) {
      Rng rng(71);
      nn::Linear lin(5, 3, &rng, bias);
      Variable x(Tensor::RandNormal(in_shape, &rng), true);
      Shape out_shape = in_shape;
      out_shape.back() = 3;
      const Tensor w = Tensor::RandNormal(out_shape, &rng);
      std::vector<Variable> inputs = {x, lin.weight()};
      if (bias) {
        lin.bias().mutable_data().CopyFrom(Tensor::RandNormal({3}, &rng));
        inputs.push_back(lin.bias());
      }
      auto f = [&](const std::vector<Variable>& in) {
        return WeightedSum(lin.Forward(in[0]), w);
      };
      auto result = GradCheck(f, inputs);
      EXPECT_TRUE(result.ok) << "bias " << bias << " " << ShapeToString(in_shape) << ": "
                             << result.message;
    }
  }
}

// The head split/merge copies' backward is the inverse copy. Checked through
// the stage helpers, so the projections' LinearFunction is on the path too.
TEST(HeadCopyGradTest, ProjectHeadsAndMergeHeads) {
  Rng rng(73);
  core::AttentionOptions opts;
  opts.kind = attn::AttentionKind::kVanilla;
  const int64_t b = 2, n = 3, dim = 8, heads = 2;
  attn::MultiHeadAttention mha(dim, heads,
                               core::CreateAttentionMechanism(dim / heads, opts, &rng),
                               &rng);
  Variable x(Tensor::RandNormal({b, n, dim}, &rng), true);
  const Tensor wq = Tensor::RandNormal({b * heads, n, dim / heads}, &rng);
  auto split = [&](const std::vector<Variable>& in) {
    return WeightedSum(mha.ProjectHeads(0, in[0]), wq);
  };
  auto split_result = GradCheck(split, {x, mha.projection(0)->weight()});
  EXPECT_TRUE(split_result.ok) << split_result.message;

  Variable o(Tensor::RandNormal({b * heads, n, dim / heads}, &rng), true);
  const Tensor wo = Tensor::RandNormal({b, n, dim}, &rng);
  auto merge = [&](const std::vector<Variable>& in) {
    return WeightedSum(mha.MergeHeads(in[0], b, n), wo);
  };
  auto merge_result = GradCheck(merge, {o});
  EXPECT_TRUE(merge_result.ok) << merge_result.message;
}

TEST(CompositeGradTest, TwoLayerMlpEndToEnd) {
  Rng rng(67);
  Variable x(Tensor::RandNormal({4, 5}, &rng), true);
  Variable w1(Tensor::RandNormal({5, 8}, &rng, 0.0f, 0.5f), true);
  Variable b1(Tensor::Zeros({8}), true);
  Variable w2(Tensor::RandNormal({8, 3}, &rng, 0.0f, 0.5f), true);
  const std::vector<int64_t> labels = {0, 1, 2, 1};
  auto f = [&](const std::vector<Variable>& in) {
    Variable h = Gelu(Add(MatMul(in[0], in[1]), in[2]));
    Variable logits = MatMul(h, in[3]);
    return CrossEntropy(logits, labels);
  };
  auto result = GradCheck(f, {x, w1, b1, w2});
  EXPECT_TRUE(result.ok) << result.message;
}

}  // namespace
}  // namespace ag
}  // namespace rita
