// Tests for the GPU-friendly k-means grouping engine (Sec. 4.4).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "cluster/kmeans.h"
#include "linalg/kernels/kernels.h"
#include "tensor/tensor_ops.h"
#include "util/execution_context.h"
#include "util/thread_pool.h"

namespace rita {
namespace cluster {
namespace {

// Three well-separated Gaussian blobs in 2-D.
Tensor MakeBlobs(int64_t per_blob, Rng* rng) {
  const float centers[3][2] = {{0.0f, 0.0f}, {10.0f, 0.0f}, {0.0f, 10.0f}};
  Tensor points({3 * per_blob, 2});
  float* p = points.data();
  for (int64_t b = 0; b < 3; ++b) {
    for (int64_t i = 0; i < per_blob; ++i) {
      const int64_t r = b * per_blob + i;
      p[r * 2] = centers[b][0] + static_cast<float>(rng->Normal(0.0, 0.3));
      p[r * 2 + 1] = centers[b][1] + static_cast<float>(rng->Normal(0.0, 0.3));
    }
  }
  return points;
}

// The fused kmeans_assign entry (active backend) against the explicit
// pairwise-difference reference: each point's reported distance is the naive
// row minimum, and the chosen centroid attains it.
TEST(PairwiseDistTest, FusedAssignMatchesNaive) {
  Rng rng(1);
  Tensor a = Tensor::RandNormal({17, 5}, &rng);
  Tensor b = Tensor::RandNormal({9, 5}, &rng);
  std::vector<int64_t> assignment(17);
  std::vector<float> best(17);
  kernels::KMeansAssign(a.data(), b.data(), 17, 9, 5, assignment.data(), best.data());
  Tensor ref = PairwiseSqDistNaive(a, b);
  for (int64_t i = 0; i < 17; ++i) {
    float row_min = ref.At({i, 0});
    for (int64_t j = 1; j < 9; ++j) row_min = std::min(row_min, ref.At({i, j}));
    ASSERT_GE(assignment[i], 0);
    ASSERT_LT(assignment[i], 9);
    EXPECT_NEAR(best[i], row_min, 1e-3f * std::max(1.0f, row_min));
    EXPECT_NEAR(ref.At({i, assignment[i]}), row_min, 1e-3f * std::max(1.0f, row_min));
  }
}

TEST(PairwiseDistTest, SelfAssignmentHasZeroDistance) {
  Rng rng(2);
  Tensor a = Tensor::RandNormal({8, 4}, &rng);
  std::vector<int64_t> assignment(8);
  std::vector<float> best(8);
  kernels::KMeansAssign(a.data(), a.data(), 8, 8, 4, assignment.data(), best.data());
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(assignment[i], i);
    EXPECT_NEAR(best[i], 0.0f, 1e-4f);
  }
}

TEST(PairwiseDistTest, NonNegativeDespiteCancellation) {
  // Identical large-magnitude vectors provoke cancellation; the clamp keeps
  // every distance >= 0 and the exact tie goes to the lowest index.
  Tensor a = Tensor::Full({4, 3}, 1000.0f);
  std::vector<int64_t> assignment(4);
  std::vector<float> best(4);
  kernels::KMeansAssign(a.data(), a.data(), 4, 4, 3, assignment.data(), best.data());
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_GE(best[i], 0.0f);
    EXPECT_EQ(assignment[i], 0);
  }
}

TEST(KMeansTest, RecoversWellSeparatedBlobs) {
  Rng rng(3);
  Tensor points = MakeBlobs(50, &rng);
  KMeansOptions opts;
  opts.num_clusters = 3;
  opts.max_iters = 10;
  opts.kmeanspp_init = true;
  KMeansResult result = RunKMeans(points, opts, &rng);
  ASSERT_EQ(result.num_clusters(), 3);
  // Every blob is internally pure: members of one blob share an assignment.
  for (int64_t b = 0; b < 3; ++b) {
    std::set<int64_t> labels;
    for (int64_t i = 0; i < 50; ++i) labels.insert(result.assignment[b * 50 + i]);
    EXPECT_EQ(labels.size(), 1u) << "blob " << b << " split";
  }
  // Inertia is small for tight blobs.
  EXPECT_LT(result.inertia / points.size(0), 1.0);
}

TEST(KMeansTest, CountsMatchAssignmentAndArePositive) {
  Rng rng(4);
  Tensor points = Tensor::RandNormal({64, 6}, &rng);
  KMeansOptions opts;
  opts.num_clusters = 8;
  KMeansResult result = RunKMeans(points, opts, &rng);
  std::vector<int64_t> recount(result.num_clusters(), 0);
  for (int64_t a : result.assignment) {
    ASSERT_GE(a, 0);
    ASSERT_LT(a, result.num_clusters());
    ++recount[a];
  }
  for (int64_t c = 0; c < result.num_clusters(); ++c) {
    EXPECT_EQ(recount[c], result.counts[c]);
    EXPECT_GT(result.counts[c], 0);  // empty clusters compacted away
  }
}

TEST(KMeansTest, ClusterCountClampedToPoints) {
  Rng rng(5);
  Tensor points = Tensor::RandNormal({5, 3}, &rng);
  KMeansOptions opts;
  opts.num_clusters = 50;
  KMeansResult result = RunKMeans(points, opts, &rng);
  EXPECT_LE(result.num_clusters(), 5);
}

TEST(KMeansTest, SingletonClustersWhenKEqualsN) {
  Rng rng(6);
  Tensor points = Tensor::RandNormal({12, 4}, &rng);
  KMeansOptions opts;
  opts.num_clusters = 12;
  opts.max_iters = 2;
  KMeansResult result = RunKMeans(points, opts, &rng);
  EXPECT_EQ(result.num_clusters(), 12);
  for (int64_t c : result.counts) EXPECT_EQ(c, 1);
  // Each centroid equals its member point.
  for (int64_t i = 0; i < 12; ++i) {
    const int64_t c = result.assignment[i];
    for (int64_t d = 0; d < 4; ++d) {
      EXPECT_NEAR(result.centroids.At({c, d}), points.At({i, d}), 1e-5f);
    }
  }
}

TEST(KMeansTest, MoreIterationsDoNotIncreaseInertia) {
  Rng rng_data(7);
  Tensor points = Tensor::RandNormal({100, 8}, &rng_data);
  double prev = std::numeric_limits<double>::max();
  for (int iters : {1, 3, 8}) {
    Rng rng(42);  // same init
    KMeansOptions opts;
    opts.num_clusters = 10;
    opts.max_iters = iters;
    KMeansResult result = RunKMeans(points, opts, &rng);
    EXPECT_LE(result.inertia, prev + 1e-3);
    prev = result.inertia;
  }
}

TEST(KMeansTest, DeterministicUnderSeed) {
  Rng rng_data(8);
  Tensor points = Tensor::RandNormal({40, 5}, &rng_data);
  KMeansOptions opts;
  opts.num_clusters = 6;
  Rng r1(77), r2(77);
  KMeansResult a = RunKMeans(points, opts, &r1);
  KMeansResult b = RunKMeans(points, opts, &r2);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_TRUE(a.centroids.AllClose(b.centroids));
}

// The update step shards its reduction blocks only above the row grain; at
// 64 blocks of 512 x 32 it runs 4 shards on a width-4 pool, and the result
// must equal the inline (parallel = false) run bit for bit, as it must at a
// grouping shape (626 x 32, 2 blocks) that stays on the calling thread.
TEST(KMeansTest, ShardedUpdateStepMatchesInlineRun) {
  ThreadPool pool(4);
  ExecutionContext context(&pool);
  for (int64_t n : {626, 32768}) {
    Rng rng_data(11);
    const Tensor points = Tensor::RandNormal({n, 32}, &rng_data);
    KMeansOptions opts;
    opts.num_clusters = 16;
    opts.max_iters = 2;
    KMeansOptions inline_opts = opts;
    inline_opts.parallel = false;
    Rng r1(78), r2(78);
    const KMeansResult sharded = RunKMeans(points, opts, &r1, &context);
    const KMeansResult serial = RunKMeans(points, inline_opts, &r2, &context);
    EXPECT_EQ(sharded.assignment, serial.assignment) << n;
    EXPECT_EQ(sharded.counts, serial.counts) << n;
    EXPECT_EQ(0, std::memcmp(sharded.centroids.data(), serial.centroids.data(),
                             sizeof(float) * serial.centroids.numel()))
        << n;
    EXPECT_EQ(sharded.inertia, serial.inertia) << n;
  }
}

TEST(ClusterRadiiTest, RadiiBoundMemberDistances) {
  Rng rng(10);
  Tensor points = Tensor::RandNormal({50, 3}, &rng);
  KMeansOptions opts;
  opts.num_clusters = 4;
  KMeansResult result = RunKMeans(points, opts, &rng);
  const auto radii = ClusterRadii(points, result);
  ASSERT_EQ(static_cast<int64_t>(radii.size()), result.num_clusters());
  for (int64_t i = 0; i < 50; ++i) {
    const int64_t c = result.assignment[i];
    float d2 = 0.0f;
    for (int64_t k = 0; k < 3; ++k) {
      const float diff = points.At({i, k}) - result.centroids.At({c, k});
      d2 += diff * diff;
    }
    EXPECT_LE(std::sqrt(d2), radii[c] + 1e-5f);
  }
}

TEST(BallRadiusTest, MaxNorm) {
  Tensor points = Tensor::FromVector({3, 2}, {3, 4, 0, 1, -6, 8});
  EXPECT_NEAR(PointBallRadius(points), 10.0f, 1e-5f);  // |(-6, 8)| = 10
}

}  // namespace
}  // namespace cluster
}  // namespace rita
