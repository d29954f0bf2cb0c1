#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/kernels/kernels.h"
#include "tensor/tensor_ops.h"

namespace rita {
namespace cluster {

Tensor PairwiseSqDistNaive(const Tensor& a, const Tensor& b) {
  RITA_CHECK_EQ(a.size(1), b.size(1));
  const int64_t n = a.size(0), m = b.size(0), d = a.size(1);
  Tensor dist({n, m});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pd = dist.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      float s = 0.0f;
      for (int64_t k = 0; k < d; ++k) {
        const float diff = pa[i * d + k] - pb[j * d + k];
        s += diff * diff;
      }
      pd[i * m + j] = s;
    }
  }
  return dist;
}

namespace {

Tensor InitCentroids(const Tensor& points, int64_t k, bool plus_plus, Rng* rng) {
  const int64_t n = points.size(0), d = points.size(1);
  if (!plus_plus) {
    const auto rows = rng->SampleWithoutReplacement(n, k);
    return ops::GatherRows(points, rows);
  }
  // k-means++: iteratively sample proportional to squared distance.
  std::vector<int64_t> chosen;
  chosen.push_back(rng->UniformInt(n));
  std::vector<float> min_d2(n, std::numeric_limits<float>::max());
  const float* pp = points.data();
  std::vector<float> d2(n);
  while (static_cast<int64_t>(chosen.size()) < k) {
    const float* c = pp + chosen.back() * d;
    kernels::SqDistToPoint(pp, c, d2.data(), n, d);
    double total = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      min_d2[i] = std::min(min_d2[i], d2[i]);
      total += min_d2[i];
    }
    if (total <= 0.0) {
      // All remaining points coincide with chosen centroids; fall back.
      chosen.push_back(rng->UniformInt(n));
      continue;
    }
    double target = rng->Uniform() * total;
    int64_t pick = n - 1;
    for (int64_t i = 0; i < n; ++i) {
      target -= min_d2[i];
      if (target <= 0.0) {
        pick = i;
        break;
      }
    }
    chosen.push_back(pick);
  }
  return ops::GatherRows(points, chosen);
}

}  // namespace

namespace {

// Point-block width for the parallel reductions below. Derived from n alone
// (never from the pool width) so partial sums merge in the same order no
// matter how many threads run: bit-identical results for 1 vs N workers.
// The block count is capped so the per-block accumulators stay
// O(kMaxReductionBlocks * k * d) however large n grows.
constexpr int64_t kReductionBlock = 512;
constexpr int64_t kMaxReductionBlocks = 64;

int64_t ReductionBlockSize(int64_t n) {
  return std::max(kReductionBlock,
                  (n + kMaxReductionBlocks - 1) / kMaxReductionBlocks);
}

}  // namespace

KMeansResult RunKMeans(const Tensor& points, const KMeansOptions& options, Rng* rng,
                       ExecutionContext* context) {
  RITA_CHECK_EQ(points.dim(), 2);
  const int64_t n = points.size(0), d = points.size(1);
  const int64_t k = std::min<int64_t>(options.num_clusters, n);
  RITA_CHECK_GT(k, 0);
  if (context == nullptr) context = ExecutionContext::Default();
  // Shards inner loops across the pool, or runs them inline when the caller
  // owns a coarser parallel grain. Either way the loop bodies and reduction
  // block structure are identical, so the floats are too.
  auto shard = [&](int64_t lo, int64_t hi,
                   const std::function<void(int64_t, int64_t)>& body,
                   int64_t min_shard) {
    if (options.parallel) {
      context->ParallelFor(lo, hi, body, min_shard);
    } else {
      body(lo, hi);
    }
  };

  Tensor centroids = InitCentroids(points, k, options.kmeanspp_init, rng);
  std::vector<int64_t> assignment(n, 0);
  std::vector<float> best_d2(n, 0.0f);

  // Fused assignment step (Sec. 4.4's |x|^2 + |c|^2 - 2 x.c, reduced to a
  // running argmin inside the kernel): per-point slots, so sharding is free;
  // the inertia reduction runs serially over best_d2 afterwards to keep the
  // summation order independent of the pool width.
  auto assign = [&](const Tensor& cents) -> double {
    const int64_t m = cents.size(0);
    const float* pp = points.data();
    const float* pc = cents.data();
    shard(
        0, n,
        [&](int64_t i0, int64_t i1) {
          kernels::KMeansAssign(pp + i0 * d, pc, i1 - i0, m, d,
                                assignment.data() + i0, best_d2.data() + i0);
        },
        /*min_shard=*/kReductionBlock);
    double inertia = 0.0;
    for (int64_t i = 0; i < n; ++i) inertia += best_d2[i];
    return inertia;
  };

  const int64_t reduction_block = ReductionBlockSize(n);
  const int64_t num_blocks = (n + reduction_block - 1) / reduction_block;
  // A block's update scatters reduction_block rows of d adds. Blocks shard
  // so each shard carries at least a quarter of ops::kRowParallelGrain adds,
  // as ParallelRows prices its shards: at n = 626, d = 32 the 2 blocks
  // (~10 us) stay on the calling thread instead of paying a pool dispatch.
  const int64_t update_min_shard =
      std::max<int64_t>(1, ops::kRowParallelGrain / 4 / (reduction_block * d));
  // Update-step accumulators, hoisted out of the Lloyd loop (this runs inside
  // the per-slice hot path; re-zeroing is cheaper than re-allocating).
  const int64_t kc = centroids.size(0);
  Tensor sums(centroids.shape());
  std::vector<int64_t> counts(kc, 0);
  std::vector<float> block_sums;
  std::vector<int64_t> block_counts;
  if (options.max_iters > 0 && num_blocks > 1) {
    block_sums.resize(num_blocks * kc * d);
    block_counts.resize(num_blocks * kc);
  }

  double inertia = assign(centroids);
  for (int iter = 0; iter < options.max_iters; ++iter) {
    // Update step: centroid = mean of members; empty clusters keep position.
    // Members scatter into per-block partial sums (parallel), merged in block
    // order (serial, deterministic).
    const float* pp = points.data();
    float* ps = sums.data();
    std::fill(ps, ps + kc * d, 0.0f);
    std::fill(counts.begin(), counts.end(), 0);
    // The block path is taken whenever there is more than one block — even on
    // a single-thread pool — so the merge order (and thus the floats) never
    // depends on how many workers happen to exist.
    if (num_blocks > 1) {
      std::fill(block_sums.begin(), block_sums.end(), 0.0f);
      std::fill(block_counts.begin(), block_counts.end(), 0);
      shard(
          0, num_blocks,
          [&](int64_t b0, int64_t b1) {
            for (int64_t b = b0; b < b1; ++b) {
              float* bsum = block_sums.data() + b * kc * d;
              int64_t* bcount = block_counts.data() + b * kc;
              const int64_t lo = b * reduction_block;
              const int64_t hi = std::min(n, lo + reduction_block);
              for (int64_t i = lo; i < hi; ++i) {
                const int64_t c = assignment[i];
                ++bcount[c];
                kernels::Add(bsum + c * d, pp + i * d, d);
              }
            }
          },
          update_min_shard);
      for (int64_t b = 0; b < num_blocks; ++b) {
        const float* bsum = block_sums.data() + b * kc * d;
        const int64_t* bcount = block_counts.data() + b * kc;
        for (int64_t c = 0; c < kc; ++c) counts[c] += bcount[c];
        kernels::Add(ps, bsum, kc * d);
      }
    } else {
      for (int64_t i = 0; i < n; ++i) {
        const int64_t c = assignment[i];
        ++counts[c];
        kernels::Add(ps + c * d, pp + i * d, d);
      }
    }
    float* pc = centroids.data();
    for (int64_t c = 0; c < kc; ++c) {
      if (counts[c] == 0) continue;
      const float inv = 1.0f / static_cast<float>(counts[c]);
      for (int64_t j = 0; j < d; ++j) pc[c * d + j] = ps[c * d + j] * inv;
    }
    inertia = assign(centroids);
  }

  // Compact empty clusters so downstream invariants hold (counts > 0).
  std::fill(counts.begin(), counts.end(), 0);
  for (int64_t i = 0; i < n; ++i) ++counts[assignment[i]];
  std::vector<int64_t> remap(centroids.size(0), -1);
  std::vector<int64_t> kept;
  for (int64_t c = 0; c < centroids.size(0); ++c) {
    if (counts[c] > 0) {
      remap[c] = static_cast<int64_t>(kept.size());
      kept.push_back(c);
    }
  }
  KMeansResult result;
  result.centroids = ops::GatherRows(centroids, kept);
  result.assignment.resize(n);
  for (int64_t i = 0; i < n; ++i) result.assignment[i] = remap[assignment[i]];
  result.counts.resize(kept.size());
  for (size_t c = 0; c < kept.size(); ++c) result.counts[c] = counts[kept[c]];
  result.inertia = inertia;
  return result;
}

std::vector<float> ClusterRadii(const Tensor& points, const KMeansResult& result) {
  const int64_t n = points.size(0), d = points.size(1);
  std::vector<float> radii(result.num_clusters(), 0.0f);
  const float* pp = points.data();
  const float* pc = result.centroids.data();
  for (int64_t i = 0; i < n; ++i) {
    const int64_t c = result.assignment[i];
    float s = 0.0f;
    for (int64_t j = 0; j < d; ++j) {
      const float diff = pp[i * d + j] - pc[c * d + j];
      s += diff * diff;
    }
    radii[c] = std::max(radii[c], std::sqrt(s));
  }
  return radii;
}

float PointBallRadius(const Tensor& points) {
  const int64_t n = points.size(0), d = points.size(1);
  const float* pp = points.data();
  float best = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    float s = 0.0f;
    const float* row = pp + i * d;
    for (int64_t j = 0; j < d; ++j) s += row[j] * row[j];
    best = std::max(best, s);
  }
  return std::sqrt(best);
}

}  // namespace cluster
}  // namespace rita
