// Correctness tests for group attention (the paper's core contribution):
// Lemma 3 exact-equivalence, Lemma 1 error bound, fused-backward gradcheck,
// and pool-width bit-identity of the narrow (row-tiled attention) inference
// path. Run under TSan and ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "attention/attention.h"
#include "autograd/gradcheck.h"
#include "core/group_attention.h"
#include "tensor/tensor_ops.h"
#include "util/execution_context.h"
#include "util/thread_pool.h"

namespace rita {
namespace core {
namespace {

// Reference vanilla attention output (no dropout).
Tensor VanillaReference(const Tensor& q, const Tensor& k, const Tensor& v) {
  ag::NoGradGuard guard;
  Rng rng(0);
  attn::VanillaAttention vanilla(q.size(2), 0.0f, &rng);
  vanilla.SetTraining(false);
  return vanilla.Forward(ag::Variable(q), ag::Variable(k), ag::Variable(v)).data();
}

TEST(GroupAttentionTest, OutputShape) {
  Rng rng(1);
  GroupAttentionOptions opts;
  opts.num_groups = 4;
  GroupAttentionMechanism mech(8, opts, &rng);
  ag::Variable q(Tensor::RandNormal({3, 10, 8}, &rng), false);
  ag::Variable k(Tensor::RandNormal({3, 10, 8}, &rng), false);
  ag::Variable v(Tensor::RandNormal({3, 10, 8}, &rng), false);
  ag::Variable o = mech.Forward(q, k, v);
  EXPECT_EQ(o.shape(), (Shape{3, 10, 8}));
}

// Lemma 3 / Appendix A.4: when every window is its own group (N = n), group
// attention must reproduce vanilla attention exactly.
TEST(GroupAttentionTest, SingletonGroupsMatchVanilla) {
  Rng rng(2);
  const int64_t n = 12, d = 6;
  GroupAttentionOptions opts;
  opts.num_groups = n;
  opts.kmeans_iters = 4;
  GroupAttentionMechanism mech(d, opts, &rng);

  Tensor q = Tensor::RandNormal({2, n, d}, &rng);
  Tensor k = Tensor::RandNormal({2, n, d}, &rng);
  Tensor v = Tensor::RandNormal({2, n, d}, &rng);
  ag::Variable o = mech.Forward(ag::Variable(q), ag::Variable(k), ag::Variable(v));
  Tensor ref = VanillaReference(q, k, v);
  EXPECT_TRUE(o.data().AllClose(ref, 1e-3f, 1e-4f));
}

// Lemma 3 again, now with duplicated keys: windows whose keys coincide share
// attention exactly, so group attention with N = #distinct keys is *exact*.
TEST(GroupAttentionTest, DuplicateKeysShareAttentionExactly) {
  Rng rng(3);
  const int64_t n = 16, d = 4, blobs = 4;
  // Keys: 4 distinct vectors, each repeated 4 times.
  Tensor distinct = Tensor::RandNormal({blobs, d}, &rng, 0.0f, 3.0f);
  Tensor k({1, n, d});
  for (int64_t i = 0; i < n; ++i) {
    const int64_t b = i % blobs;
    for (int64_t j = 0; j < d; ++j) k.At({0, i, j}) = distinct.At({b, j});
  }
  Tensor q = Tensor::RandNormal({1, n, d}, &rng);
  Tensor v = Tensor::RandNormal({1, n, d}, &rng);

  GroupAttentionOptions opts;
  opts.num_groups = blobs;
  opts.kmeans_iters = 8;
  opts.kmeanspp_init = true;
  GroupAttentionMechanism mech(d, opts, &rng);
  ag::Variable o = mech.Forward(ag::Variable(q), ag::Variable(k), ag::Variable(v));
  Tensor ref = VanillaReference(q, k, v);
  EXPECT_TRUE(o.data().AllClose(ref, 1e-3f, 1e-4f));
}

// Lemma 1: with every key within distance d_max of its representative, each
// restored attention entry is within a multiplicative exp(2 * d_max * |q|)
// band of the exact attention (inequality (14) in the proof, adapted to the
// scaled dot product).
TEST(GroupAttentionTest, Lemma1ErrorBoundHolds) {
  Rng rng(4);
  const int64_t n = 32, d = 8, ng = 6;
  Tensor q = Tensor::RandNormal({1, n, d}, &rng);
  Tensor k = Tensor::RandNormal({1, n, d}, &rng);

  // Group the keys exactly as the mechanism would.
  Tensor keys2d = k.Reshape({n, d});
  cluster::KMeansOptions km;
  km.num_clusters = ng;
  km.max_iters = 8;
  km.kmeanspp_init = true;
  cluster::KMeansResult grouping = cluster::RunKMeans(keys2d, km, &rng);

  // d_max = max over keys of |k_i - representative|.
  const auto radii = cluster::ClusterRadii(keys2d, grouping);
  float d_max = 0.0f;
  for (float r : radii) d_max = std::max(d_max, r);
  const float q_ball = cluster::PointBallRadius(q.Reshape({n, d}));
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const float eps = std::exp(2.0f * d_max * q_ball * scale);

  // Exact attention vs attention restored from the group matrix.
  const float* pq = q.data();
  const float* pk = k.data();
  const float* pr = grouping.centroids.data();
  for (int64_t i = 0; i < n; ++i) {
    // Exact row.
    std::vector<double> exact(n), approx(n);
    double exact_sum = 0.0, approx_sum = 0.0;
    for (int64_t j = 0; j < n; ++j) {
      double s_exact = 0.0, s_approx = 0.0;
      const int64_t g = grouping.assignment[j];
      for (int64_t t = 0; t < d; ++t) {
        s_exact += static_cast<double>(pq[i * d + t]) * pk[j * d + t];
        s_approx += static_cast<double>(pq[i * d + t]) * pr[g * d + t];
      }
      exact[j] = std::exp(s_exact * scale);
      approx[j] = std::exp(s_approx * scale);
      exact_sum += exact[j];
      approx_sum += approx[j];
    }
    for (int64_t j = 0; j < n; ++j) {
      const double ratio = (approx[j] / approx_sum) / (exact[j] / exact_sum);
      EXPECT_LE(ratio, eps * 1.01);
      EXPECT_GE(ratio, 1.0 / (eps * 1.01));
    }
  }
}

// The fused backward (group softmax Jacobian + aggregation adjoint + centroid
// mean rule) against finite differences. Keys are placed in well-separated
// blobs so the grouping is stable under the probe perturbations.
TEST(GroupAttentionTest, FusedBackwardGradCheck) {
  Rng rng(5);
  const int64_t n = 8, d = 3, blobs = 3;
  Tensor centers = Tensor::FromVector(
      {blobs, d}, {10, 0, 0, 0, 10, 0, 0, 0, 10});
  Tensor k0({1, n, d});
  for (int64_t i = 0; i < n; ++i) {
    const int64_t b = i % blobs;
    for (int64_t j = 0; j < d; ++j) {
      k0.At({0, i, j}) =
          centers.At({b, j}) + static_cast<float>(rng.Normal(0.0, 0.05));
    }
  }
  ag::Variable q(Tensor::RandNormal({1, n, d}, &rng, 0.0f, 0.3f), true);
  ag::Variable k(k0, true);
  ag::Variable v(Tensor::RandNormal({1, n, d}, &rng), true);
  Tensor w = Tensor::RandNormal({1, n, d}, &rng);

  GroupAttentionOptions opts;
  opts.num_groups = blobs;
  opts.kmeans_iters = 6;
  opts.kmeanspp_init = true;
  opts.collect_snapshots = false;
  GroupAttentionMechanism mech(d, opts, &rng);

  auto f = [&](const std::vector<ag::Variable>& in) {
    return ag::SumAll(ag::Mul(mech.Forward(in[0], in[1], in[2]), ag::Variable(w)));
  };
  ag::GradCheckOptions gopts;
  gopts.eps = 5e-3;
  gopts.rtol = 8e-2;
  gopts.atol = 2e-2;
  auto result = ag::GradCheck(f, {q, k, v}, gopts);
  EXPECT_TRUE(result.ok) << result.message;
}

// With singleton groups the fused backward must match vanilla attention's
// gradients (stronger than finite differences: exact comparison).
TEST(GroupAttentionTest, SingletonBackwardMatchesVanilla) {
  Rng rng(6);
  const int64_t n = 10, d = 4;
  Tensor q0 = Tensor::RandNormal({2, n, d}, &rng);
  Tensor k0 = Tensor::RandNormal({2, n, d}, &rng);
  Tensor v0 = Tensor::RandNormal({2, n, d}, &rng);
  Tensor w = Tensor::RandNormal({2, n, d}, &rng);

  auto run = [&](bool group) {
    ag::Variable q(q0.Clone(), true), k(k0.Clone(), true), v(v0.Clone(), true);
    ag::Variable o;
    if (group) {
      GroupAttentionOptions opts;
      opts.num_groups = n;
      opts.kmeans_iters = 4;
      GroupAttentionMechanism mech(d, opts, &rng);
      o = mech.Forward(q, k, v);
    } else {
      Rng r2(0);
      attn::VanillaAttention vanilla(d, 0.0f, &r2);
      vanilla.SetTraining(false);
      o = vanilla.Forward(q, k, v);
    }
    ag::SumAll(ag::Mul(o, ag::Variable(w))).Backward();
    return std::array<Tensor, 3>{q.grad().Clone(), k.grad().Clone(), v.grad().Clone()};
  };

  auto g_group = run(true);
  auto g_vanilla = run(false);
  EXPECT_TRUE(g_group[0].AllClose(g_vanilla[0], 1e-3f, 1e-4f)) << "dQ mismatch";
  EXPECT_TRUE(g_group[1].AllClose(g_vanilla[1], 1e-3f, 1e-4f)) << "dK mismatch";
  EXPECT_TRUE(g_group[2].AllClose(g_vanilla[2], 1e-3f, 1e-4f)) << "dV mismatch";
}

TEST(GroupAttentionTest, SnapshotsDescribeGrouping) {
  Rng rng(7);
  GroupAttentionOptions opts;
  opts.num_groups = 5;
  GroupAttentionMechanism mech(4, opts, &rng);
  ag::Variable q(Tensor::RandNormal({3, 20, 4}, &rng), false);
  ag::Variable k(Tensor::RandNormal({3, 20, 4}, &rng), false);
  ag::Variable v(Tensor::RandNormal({3, 20, 4}, &rng), false);
  mech.Forward(q, k, v);

  const auto& snaps = mech.last_snapshots();
  ASSERT_EQ(snaps.size(), 3u);  // one per batch*head slice
  for (const auto& s : snaps) {
    int64_t total = 0;
    for (int64_t c : s.counts) total += c;
    EXPECT_EQ(total, 20);
    EXPECT_EQ(s.radii.size(), s.counts.size());
    EXPECT_GT(s.key_ball_radius, 0.0f);
  }
}

TEST(GroupAttentionTest, SetNumGroupsClampsAndApplies) {
  Rng rng(8);
  GroupAttentionOptions opts;
  opts.num_groups = 16;
  GroupAttentionMechanism mech(4, opts, &rng);
  mech.set_num_groups(9);
  EXPECT_EQ(mech.num_groups(), 9);
  mech.set_num_groups(-3);
  EXPECT_EQ(mech.num_groups(), 1);
  EXPECT_EQ(mech.ScoreMatrixElements(100), 100);  // n * N with N = 1
}

TEST(GroupAttentionTest, FewerGroupsUseLessScoreMemory) {
  Rng rng(9);
  GroupAttentionOptions opts;
  opts.num_groups = 8;
  GroupAttentionMechanism mech(4, opts, &rng);
  Rng r2(0);
  attn::VanillaAttention vanilla(4, 0.0f, &r2);
  const int64_t n = 1000;
  EXPECT_LT(mech.ScoreMatrixElements(n), vanilla.ScoreMatrixElements(n));
}

// With fewer slices than pool threads, inference splits a slice's attention
// rows into tiles once its attend work clears the row-tile grain (2000 rows
// x 16 groups x d=32 does). Tiling may not change a bit: width 1 (never
// narrow) is the reference, width 2 is wide for 2 slices, and widths 3/4/8
// cut 2000 rows into 3/4/7 uneven tiles.
TEST(GroupAttentionTest, NarrowInferenceBitIdenticalAcrossPoolWidths) {
  const int64_t bh = 2, n = 2000, d = 32;
  Rng data_rng(9);
  const Tensor q = Tensor::RandNormal({bh, n, d}, &data_rng);
  const Tensor k = Tensor::RandNormal({bh, n, d}, &data_rng);
  const Tensor v = Tensor::RandNormal({bh, n, d}, &data_rng);
  auto run = [&](int threads) {
    ThreadPool pool(threads);
    ExecutionContext context(&pool);
    Rng rng(77);
    GroupAttentionOptions opts;
    opts.num_groups = 16;
    opts.collect_snapshots = false;
    GroupAttentionMechanism mech(d, opts, &rng);
    attn::ForwardState state;
    state.context = &context;
    state.stochastic = false;
    ag::NoGradGuard guard;
    return mech.Forward(ag::Variable(q), ag::Variable(k), ag::Variable(v), &state)
        .data();
  };
  const Tensor want = run(1);
  for (int threads : {2, 3, 4, 8}) {
    const Tensor got = run(threads);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(std::memcmp(want.data(), got.data(), sizeof(float) * want.numel()), 0)
        << "narrow inference differs at pool width " << threads;
  }
}

}  // namespace
}  // namespace core
}  // namespace rita
