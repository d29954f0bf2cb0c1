// Tests for the baseline attention mechanisms and the multi-head wrapper.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>

#include "attention/multi_head.h"
#include "autograd/gradcheck.h"
#include "core/attention_factory.h"
#include "linalg/kernels/kernels.h"
#include "tensor/quantized_tensor.h"
#include "tensor/tensor_ops.h"

namespace rita {
namespace attn {
namespace {

TEST(PermuteTest, HeadSplitRoundTrip) {
  Rng rng(1);
  Tensor x = Tensor::RandNormal({2, 5, 3, 4}, &rng);
  Tensor p = ops::Permute(x, {0, 2, 1, 3});
  EXPECT_EQ(p.shape(), (Shape{2, 3, 5, 4}));
  EXPECT_EQ(p.At({1, 2, 3, 0}), x.At({1, 3, 2, 0}));
  Tensor back = ops::Permute(p, {0, 2, 1, 3});
  EXPECT_TRUE(back.AllClose(x));
}

TEST(PermuteTest, GradientIsInversePermutation) {
  Rng rng(2);
  ag::Variable x(Tensor::RandNormal({2, 3, 4}, &rng), true);
  Tensor w = Tensor::RandNormal({4, 3, 2}, &rng);
  auto f = [&](const std::vector<ag::Variable>& in) {
    return ag::SumAll(ag::Mul(ag::Permute(in[0], {2, 1, 0}), ag::Variable(w)));
  };
  auto result = ag::GradCheck(f, {x});
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(VanillaAttentionTest, UniformKeysGiveMeanPooling) {
  // With identical keys, attention weights are uniform: output = mean(V).
  Rng rng(3);
  VanillaAttention mech(4, 0.0f, &rng);
  mech.SetTraining(false);
  Tensor k = Tensor::Ones({1, 6, 4});
  Tensor q = Tensor::RandNormal({1, 6, 4}, &rng);
  Tensor v = Tensor::RandNormal({1, 6, 4}, &rng);
  Tensor o = mech.Forward(ag::Variable(q), ag::Variable(k), ag::Variable(v)).data();
  Tensor mean_v = ops::Mean(v, 1, true);
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(o.At({0, i, j}), mean_v.At({0, 0, j}), 1e-5f);
    }
  }
}

TEST(VanillaAttentionTest, PeakedQueryAttendsToMatchingKey) {
  Rng rng(4);
  VanillaAttention mech(4, 0.0f, &rng);
  mech.SetTraining(false);
  // Orthogonal one-hot keys scaled up: query = key 2 selects value row 2.
  Tensor k = Tensor::Zeros({1, 4, 4});
  for (int64_t i = 0; i < 4; ++i) k.At({0, i, i}) = 20.0f;
  Tensor q = Tensor::Zeros({1, 1, 4});
  q.At({0, 0, 2}) = 20.0f;
  Tensor v = Tensor::RandNormal({1, 4, 4}, &rng);
  // Broadcast-free: use 1-query attention.
  Tensor o = mech.Forward(ag::Variable(q), ag::Variable(k), ag::Variable(v)).data();
  for (int64_t j = 0; j < 4; ++j) EXPECT_NEAR(o.At({0, 0, j}), v.At({0, 2, j}), 1e-3f);
}

TEST(PerformerAttentionTest, ApproximatesVanillaOnSmallInputs) {
  Rng rng(5);
  const int64_t d = 8;
  PerformerAttention perf(d, /*num_features=*/512, &rng);
  perf.SetTraining(false);
  Rng r2(0);
  VanillaAttention vanilla(d, 0.0f, &r2);
  vanilla.SetTraining(false);

  Tensor q = Tensor::RandNormal({1, 10, d}, &rng, 0.0f, 0.5f);
  Tensor k = Tensor::RandNormal({1, 10, d}, &rng, 0.0f, 0.5f);
  Tensor v = Tensor::RandNormal({1, 10, d}, &rng);
  Tensor approx = perf.Forward(ag::Variable(q), ag::Variable(k), ag::Variable(v)).data();
  Tensor exact = vanilla.Forward(ag::Variable(q), ag::Variable(k), ag::Variable(v)).data();
  // Monte-Carlo feature approximation: loose elementwise tolerance.
  float max_err = 0.0f;
  for (int64_t i = 0; i < approx.numel(); ++i) {
    max_err = std::max(max_err, std::fabs(approx.data()[i] - exact.data()[i]));
  }
  EXPECT_LT(max_err, 0.25f);
}

TEST(PerformerAttentionTest, RedrawChangesFeaturesButKeepsShape) {
  Rng rng(6);
  PerformerAttention perf(4, 16, &rng);
  Tensor q = Tensor::RandNormal({2, 5, 4}, &rng);
  Tensor o1 = perf.Forward(ag::Variable(q), ag::Variable(q), ag::Variable(q)).data();
  perf.RedrawFeatures();
  Tensor o2 = perf.Forward(ag::Variable(q), ag::Variable(q), ag::Variable(q)).data();
  EXPECT_EQ(o1.shape(), o2.shape());
  EXPECT_FALSE(o1.AllClose(o2, 1e-6f, 1e-7f));  // different random features
}

TEST(PerformerAttentionTest, GradientsFlowToAllInputs) {
  Rng rng(7);
  PerformerAttention perf(4, 8, &rng);
  ag::Variable q(Tensor::RandNormal({1, 5, 4}, &rng), true);
  ag::Variable k(Tensor::RandNormal({1, 5, 4}, &rng), true);
  ag::Variable v(Tensor::RandNormal({1, 5, 4}, &rng), true);
  ag::SumAll(perf.Forward(q, k, v)).Backward();
  EXPECT_TRUE(q.has_grad());
  EXPECT_TRUE(k.has_grad());
  EXPECT_TRUE(v.has_grad());
}

TEST(LinformerAttentionTest, ShapeAndProjectionDim) {
  Rng rng(8);
  LinformerAttention lin(4, /*seq_len=*/20, /*proj_dim=*/6, &rng);
  EXPECT_EQ(lin.ScoreMatrixElements(20), 20 * 6);
  Tensor q = Tensor::RandNormal({2, 20, 4}, &rng);
  Tensor o = lin.Forward(ag::Variable(q), ag::Variable(q), ag::Variable(q)).data();
  EXPECT_EQ(o.shape(), (Shape{2, 20, 4}));
}

TEST(LinformerAttentionTest, HasLearnableProjections) {
  Rng rng(9);
  LinformerAttention lin(4, 20, 6, &rng);
  auto named = lin.NamedParameters();
  EXPECT_EQ(named.size(), 2u);  // E and F
  EXPECT_EQ(lin.NumParameters(), 2 * 6 * 20);
}

TEST(LinformerAttentionTest, GradCheckThroughProjection) {
  Rng rng(10);
  LinformerAttention lin(3, 6, 2, &rng);
  ag::Variable q(Tensor::RandNormal({1, 6, 3}, &rng), true);
  ag::Variable k(Tensor::RandNormal({1, 6, 3}, &rng), true);
  ag::Variable v(Tensor::RandNormal({1, 6, 3}, &rng), true);
  Tensor w = Tensor::RandNormal({1, 6, 3}, &rng);
  auto f = [&](const std::vector<ag::Variable>& in) {
    return ag::SumAll(ag::Mul(lin.Forward(in[0], in[1], in[2]), ag::Variable(w)));
  };
  auto result = ag::GradCheck(f, {q, k, v});
  EXPECT_TRUE(result.ok) << result.message;
}

class MultiHeadKindTest : public ::testing::TestWithParam<AttentionKind> {};

TEST_P(MultiHeadKindTest, ForwardBackwardShapes) {
  Rng rng(11);
  core::AttentionOptions opts;
  opts.kind = GetParam();
  opts.dropout = 0.0f;
  opts.group.num_groups = 4;
  opts.performer_features = 8;
  opts.linformer_k = 4;
  opts.seq_len = 12;
  const int64_t dim = 16, heads = 2;
  auto mech = core::CreateAttentionMechanism(dim / heads, opts, &rng);
  MultiHeadAttention mha(dim, heads, std::move(mech), &rng);

  ag::Variable x(Tensor::RandNormal({3, 12, dim}, &rng), true);
  ag::Variable y = mha.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{3, 12, dim}));
  ag::SumAll(y).Backward();
  EXPECT_TRUE(x.has_grad());
  // Projection weights receive gradients too.
  for (auto& [name, p] : mha.NamedParameters()) {
    EXPECT_TRUE(p.has_grad()) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, MultiHeadKindTest,
                         ::testing::Values(AttentionKind::kVanilla,
                                           AttentionKind::kGroup,
                                           AttentionKind::kPerformer,
                                           AttentionKind::kLinformer),
                         [](const ::testing::TestParamInfo<AttentionKind>& info) {
                           return AttentionKindName(info.param);
                         });

TEST(MultiHeadTest, HeadCountMustDivideDim) {
  Rng rng(12);
  core::AttentionOptions opts;
  opts.kind = AttentionKind::kVanilla;
  auto mech = core::CreateAttentionMechanism(5, opts, &rng);
  EXPECT_DEATH(MultiHeadAttention(16, 3, std::move(mech), &rng), "divisible");
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

// The head split/merge as the Reshape -> Permute -> Reshape chain did it.
ag::Variable PermuteSplit(const ag::Variable& y, int64_t b, int64_t n, int64_t heads) {
  const int64_t dh = y.size(2) / heads;
  ag::Variable r = ag::Permute(ag::Reshape(y, {b, n, heads, dh}), {0, 2, 1, 3});
  return ag::Reshape(r, {b * heads, n, dh});
}
ag::Variable PermuteMerge(const ag::Variable& o, int64_t b, int64_t n, int64_t heads) {
  const int64_t dh = o.size(2);
  ag::Variable r = ag::Permute(ag::Reshape(o, {b, heads, n, dh}), {0, 2, 1, 3});
  return ag::Reshape(r, {b, n, heads * dh});
}

TEST(MultiHeadTest, HeadSplitAndMergeMatchThePermuteChainInBothGradModes) {
  const kernels::Backend initial = kernels::ActiveBackend();
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::SimdAvailable()) backends.push_back(kernels::Backend::kSimd);
  for (kernels::Backend backend : backends) {
    kernels::SetBackendForTesting(backend);
    for (auto [b, n, dim, heads] : std::vector<std::array<int64_t, 4>>{
             {1, 41, 64, 2}, {16, 251, 64, 2}, {3, 5, 24, 4}}) {
      Rng rng(14);
      core::AttentionOptions opts;
      opts.kind = AttentionKind::kVanilla;
      MultiHeadAttention mha(dim, heads,
                             core::CreateAttentionMechanism(dim / heads, opts, &rng),
                             &rng);
      const Tensor x = Tensor::RandNormal({b, n, dim}, &rng);
      const Tensor o = Tensor::RandNormal({b * heads, n, dim / heads}, &rng);
      const std::string what =
          std::string(kernels::BackendName(backend)) + " b " + std::to_string(b);
      for (int which = 0; which < 3; ++which) {
        const Tensor want =
            PermuteSplit(mha.projection(which)->Forward(ag::Variable(x)), b, n, heads).data();
        EXPECT_TRUE(BitEqual(mha.ProjectHeads(which, ag::Variable(x, true)).data(), want))
            << what;
        ag::NoGradGuard guard;
        EXPECT_TRUE(BitEqual(mha.ProjectHeads(which, ag::Variable(x)).data(), want)) << what;
      }
      const Tensor want =
          mha.projection(3)->Forward(PermuteMerge(ag::Variable(o), b, n, heads)).data();
      EXPECT_TRUE(BitEqual(mha.MergeHeads(ag::Variable(o, true), b, n).data(), want)) << what;
      ag::NoGradGuard guard;
      EXPECT_TRUE(BitEqual(mha.MergeHeads(ag::Variable(o), b, n).data(), want)) << what;
    }
  }
  kernels::SetBackendForTesting(initial);
}

// A grad-free ProjectHeads writes head-major from the GEMM tiles whichever
// weight is attached; with bf16 projections it still equals the head split
// of the Linear's own (bf16) forward.
TEST(MultiHeadTest, GradFreeProjectHeadsWithBf16WeightsMatchesTheSplitLinear) {
  const kernels::Backend initial = kernels::ActiveBackend();
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::SimdAvailable()) backends.push_back(kernels::Backend::kSimd);
  for (kernels::Backend backend : backends) {
    kernels::SetBackendForTesting(backend);
    for (auto [b, n, dim, heads] : std::vector<std::array<int64_t, 4>>{
             {1, 41, 64, 2}, {16, 251, 64, 2}, {3, 5, 24, 4}}) {
      Rng rng(15);
      core::AttentionOptions opts;
      opts.kind = AttentionKind::kVanilla;
      MultiHeadAttention mha(dim, heads,
                             core::CreateAttentionMechanism(dim / heads, opts, &rng),
                             &rng);
      std::vector<QuantizedTensor> weights;
      weights.reserve(3);
      for (int which = 0; which < 3; ++which) {
        weights.push_back(QuantizedTensor::QuantizeBf16(mha.projection(which)->weight().data()));
        mha.projection(which)->SetQuantizedWeight(&weights.back());
      }
      const Tensor x = Tensor::RandNormal({b, n, dim}, &rng);
      ag::NoGradGuard guard;
      for (int which = 0; which < 3; ++which) {
        const Tensor want =
            PermuteSplit(mha.projection(which)->Forward(ag::Variable(x)), b, n, heads).data();
        EXPECT_TRUE(BitEqual(mha.ProjectHeads(which, ag::Variable(x)).data(), want))
            << kernels::BackendName(backend) << " b " << b << " projection " << which;
      }
    }
  }
  kernels::SetBackendForTesting(initial);
}

TEST(FactoryTest, KindNamesAndCreation) {
  EXPECT_STREQ(AttentionKindName(AttentionKind::kGroup), "GroupAttn");
  Rng rng(13);
  core::AttentionOptions opts;
  opts.kind = AttentionKind::kGroup;
  auto mech = core::CreateAttentionMechanism(8, opts, &rng);
  EXPECT_EQ(mech->kind(), AttentionKind::kGroup);
}

}  // namespace
}  // namespace attn
}  // namespace rita
