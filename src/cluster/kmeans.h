// GPU-friendly k-means (Sec. 4.4 of the paper). The distance computation is
// reformulated as |v|^2 + |c|^2 - 2 v.c so the bottleneck becomes a matrix
// product; on this CPU substrate the same reformulation runs as one fused
// kernel-table entry (kernels::KMeansAssign): a register-tiled dot-product
// block with the argmin folded in, so no n x N distance matrix is ever built
// or scanned. A handful of Lloyd iterations suffice for grouping quality
// (the paper's observation), so max_iters defaults low.
#ifndef RITA_CLUSTER_KMEANS_H_
#define RITA_CLUSTER_KMEANS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "util/execution_context.h"
#include "util/rng.h"

namespace rita {
namespace cluster {

struct KMeansOptions {
  /// Requested number of clusters; the result may have fewer (empty clusters
  /// are compacted away).
  int64_t num_clusters = 8;
  /// Lloyd iterations. The paper observes a few iterations give a good
  /// grouping because group attention is robust to imperfect clustering.
  int max_iters = 3;
  /// k-means++ seeding (better quality, costs an extra pass per cluster);
  /// plain random distinct points otherwise.
  bool kmeanspp_init = false;
  /// Shard the inner loops (fused assignment, centroid update) across the
  /// execution context's pool. Callers that already parallelize at a
  /// coarser grain — group attention's per-(batch*head) slice loop — set
  /// this false so each slice's k-means stays on its own thread instead of
  /// fanning out again. Results are bit-identical either way.
  bool parallel = true;
};

struct KMeansResult {
  Tensor centroids;                 // [N, d], N = final (compacted) cluster count
  std::vector<int64_t> assignment;  // [n] cluster id per point
  std::vector<int64_t> counts;      // [N], all > 0
  double inertia = 0.0;             // sum of squared point-to-centroid distances

  int64_t num_clusters() const { return centroids.size(0); }
};

/// Reference implementation via explicit pairwise differences.
Tensor PairwiseSqDistNaive(const Tensor& a, const Tensor& b);

/// Lloyd's k-means over the rows of `points` [n, d]. The assignment and
/// centroid-update loops shard across `context`'s pool (null = default
/// context); reductions accumulate over point blocks whose size depends only
/// on n (never the pool width), merged in block order, so the result is
/// bit-identical for any pool width — including when the call itself runs
/// inside a parallel (batch*head) slice loop.
KMeansResult RunKMeans(const Tensor& points, const KMeansOptions& options, Rng* rng,
                       ExecutionContext* context = nullptr);

/// Per-cluster radius: max_{x in cluster_k} |x - c_k|. Needed by the adaptive
/// scheduler's merge test (Lemma 2).
std::vector<float> ClusterRadii(const Tensor& points, const KMeansResult& result);

/// Radius of the ball containing all rows: max_i |points_i| (the R of Lemma 1).
float PointBallRadius(const Tensor& points);

}  // namespace cluster
}  // namespace rita

#endif  // RITA_CLUSTER_KMEANS_H_
