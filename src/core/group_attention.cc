#include "core/group_attention.h"

#include <algorithm>
#include <cmath>

#include "autograd/function.h"
#include "linalg/kernels/kernels.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"

namespace rita {
namespace core {

namespace {

// Per-(batch*head) saved state for the fused backward.
struct SliceState {
  std::vector<int64_t> assignment;  // [n] group id per window
  std::vector<int64_t> counts;      // [N]
  Tensor centroids;                 // R: [N, d_head] (group key representatives)
  Tensor a_tilde;                   // group attention matrix A~: [n, N]
  Tensor v_tilde;                   // aggregated values V~: [N, d_head]
};

// Fused implementation of Alg. 1 with the analytic backward derived from the
// group softmax (Eq. 3):
//   A~_ij = W_ij / s_i,  W = exp(P~),  s_i = sum_j counts_j W_ij
//   dP~_ik = A~_ik (dA~_ik - counts_k * t_i),  t_i = sum_j A~_ij dA~_ij
// which reduces to the classical softmax Jacobian when all counts are 1.
// Gradients flow to K through the centroids (mean of member keys):
//   dK_x = dR_{g(x)} / counts_{g(x)}.
class GroupAttentionFunction : public ag::Function {
 public:
  GroupAttentionFunction(std::vector<SliceState> states, Tensor q, float scale,
                         std::shared_ptr<ExecutionContext*> context_cell)
      : states_(std::move(states)),
        q_(std::move(q)),
        scale_(scale),
        context_cell_(std::move(context_cell)) {}

  std::string name() const override { return "GroupAttention"; }

  std::vector<Tensor> Backward(const Tensor& g) override {
    // Re-read the shared cell at backward time: a context swapped out or
    // destroyed between forward and backward — or a destroyed mechanism —
    // resolves to the default context instead of a dangling pointer.
    ExecutionContext* context =
        attn::AttentionMechanism::ResolveExecutionContext(context_cell_);
    const int64_t bh = q_.size(0), n = q_.size(1), d = q_.size(2);
    Tensor dq(q_.shape());
    Tensor dk(q_.shape());
    Tensor dv(q_.shape());
    const float* pg = g.data();
    const float* pq = q_.data();
    float* pdq = dq.data();
    float* pdk = dk.data();
    float* pdv = dv.data();

    // Slices write disjoint [n, d] blocks of dQ/dK/dV, so the slice loop
    // shards freely across the pool; each shard leases scratch from the arena
    // so the per-slice temporaries are recycled instead of reallocated.
    context->ParallelFor(0, bh, [&](int64_t s0, int64_t s1) {
      ScratchArena::Lease scratch = context->arena()->Acquire();
      for (int64_t s = s0; s < s1; ++s) {
        scratch.Reset();
        const SliceState& st = states_[s];
        const int64_t ng = st.centroids.size(0);
        const float* g_s = pg + s * n * d;     // dO [n, d]
        const float* q_s = pq + s * n * d;     // Q  [n, d]
        const float* at = st.a_tilde.data();   // A~ [n, ng]
        const float* vt = st.v_tilde.data();   // V~ [ng, d]
        const float* r = st.centroids.data();  // R  [ng, d]

        // dV~ = A~^T dO : [ng, d]
        float* dvt = scratch.Floats(ng * d);
        ops::Gemm2D(at, g_s, dvt, ng, d, n, /*trans_a=*/true, /*trans_b=*/false,
                    /*parallel=*/false);
        // Scatter: dV_x = dV~_{g(x)}.
        float* dv_s = pdv + s * n * d;
        for (int64_t i = 0; i < n; ++i) {
          const float* src = dvt + st.assignment[i] * d;
          std::copy(src, src + d, dv_s + i * d);
        }

        // dA~ = dO V~^T : [n, ng]
        float* dat = scratch.Floats(n * ng);
        ops::Gemm2D(g_s, vt, dat, n, ng, d, /*trans_a=*/false, /*trans_b=*/true,
                    /*parallel=*/false);

        // dP~_ik = A~_ik (dA~_ik - counts_k * t_i), t_i = sum_j A~_ij dA~_ij.
        float* dpt = scratch.Floats(n * ng);
        for (int64_t i = 0; i < n; ++i) {
          const float* arow = at + i * ng;
          const float* darow = dat + i * ng;
          float* out = dpt + i * ng;
          float t = 0.0f;
          for (int64_t j = 0; j < ng; ++j) t += arow[j] * darow[j];
          for (int64_t j = 0; j < ng; ++j) {
            out[j] = arow[j] * (darow[j] - static_cast<float>(st.counts[j]) * t);
          }
        }

        // dQ = scale * dP~ R : [n, d]
        float* dq_s = pdq + s * n * d;
        ops::Gemm2D(dpt, r, dq_s, n, d, ng, false, false, /*parallel=*/false);
        kernels::Scale(dq_s, n * d, scale_);

        // dR = scale * dP~^T Q : [ng, d]; then dK_x = dR_{g(x)} / counts.
        float* dr = scratch.Floats(ng * d);
        ops::Gemm2D(dpt, q_s, dr, ng, d, n, /*trans_a=*/true, false,
                    /*parallel=*/false);
        float* dk_s = pdk + s * n * d;
        for (int64_t i = 0; i < n; ++i) {
          const int64_t c = st.assignment[i];
          const float inv = scale_ / static_cast<float>(st.counts[c]);
          const float* src = dr + c * d;
          float* dst = dk_s + i * d;
          for (int64_t j = 0; j < d; ++j) dst[j] = src[j] * inv;
        }
      }
    });
    return {dq, dk, dv};
  }

 private:
  std::vector<SliceState> states_;
  Tensor q_;
  float scale_;
  std::shared_ptr<ExecutionContext*> context_cell_;
};

// Row-tile count for one slice's fused attention. Tiling pays only when the
// slices alone cannot fill the pool and the slice's attend work (scores plus
// weighted sum, 2 * rows * ng * d multiply-adds) clears kRowParallelGrain;
// each tile then keeps at least a quarter grain. Measured serial vs 2-4
// tiles at B*H=2, d=32 on a 4-vCPU AVX2 host: 41x16 groups 10.9 vs 20.5 us,
// 128x32 41 vs 36-65 us, 251x32 51 vs 43-69 us, 400x64 122 vs 88-104 us,
// 626x64 193-202 vs 114-138 us. Purely a scheduling choice — the fused
// kernel is row-exact, so any tiling gives the same bits.
int64_t TilesPerSlice(int64_t slices, int64_t rows, int64_t macs_per_row,
                      int threads) {
  const int64_t work = rows * macs_per_row;
  if (slices >= threads || work < ops::kRowParallelGrain) return 1;
  const int64_t want = (2 * threads + slices - 1) / slices;
  const int64_t cap = work / (ops::kRowParallelGrain / 4);
  return std::max<int64_t>(1, std::min(want, cap));
}

}  // namespace

InferenceGrouping GroupSliceForInference(const Tensor& keys, const float* v_slice,
                                         const cluster::KMeansOptions& km, Rng* rng,
                                         ExecutionContext* context) {
  obs::Span span("kmeans_grouping", "kernel");
  RITA_CHECK_EQ(keys.dim(), 2);
  const int64_t n = keys.size(0), d = keys.size(1);
  InferenceGrouping out;
  out.grouping = cluster::RunKMeans(keys, km, rng, context);
  const int64_t ng = out.grouping.num_clusters();

  // Group sizes as the softmax denominator weights (Eq. 3).
  out.weights.resize(ng);
  for (int64_t j = 0; j < ng; ++j) {
    out.weights[j] = static_cast<float>(out.grouping.counts[j]);
  }

  // Embedding aggregation: V~_j = sum_{g(x) = j} V_x : [ng, d]
  out.v_tilde = Tensor::Zeros({ng, d});
  float* pvt = out.v_tilde.data();
  for (int64_t i = 0; i < n; ++i) {
    kernels::Add(pvt + out.grouping.assignment[i] * d, v_slice + i * d, d);
  }
  return out;
}

void GroupAttendRows(const float* q_rows, const InferenceGrouping& grouping,
                     float* out_rows, int64_t rows, int64_t d, float scale,
                     ScratchArena::Lease* scratch) {
  obs::Span span("fused_group_attention", "kernel");
  kernels::FusedScoreSoftmaxWeightedSum(
      q_rows, grouping.grouping.centroids.data(), grouping.v_tilde.data(), out_rows,
      rows, grouping.num_groups(), d, scale, grouping.weights.data(), scratch);
}

cluster::KMeansOptions GroupAttentionMechanism::InferenceKMeans(int64_t n) const {
  cluster::KMeansOptions km;
  km.num_clusters = std::min<int64_t>(num_groups_, n);
  km.max_iters = options_.kmeans_iters;
  km.kmeanspp_init = options_.kmeanspp_init;
  // The per-slice loop is the parallel grain; each slice's k-means and GEMMs
  // run inline on that slice's thread.
  km.parallel = false;
  return km;
}

GroupAttentionMechanism::GroupAttentionMechanism(int64_t head_dim,
                                                 const GroupAttentionOptions& options,
                                                 Rng* rng)
    : head_dim_(head_dim),
      options_(options),
      num_groups_(options.num_groups),
      seed_(rng->NextU64()) {
  RITA_CHECK_GT(num_groups_, 0);
}

void GroupAttentionMechanism::set_num_groups(int64_t n) {
  num_groups_ = std::max<int64_t>(1, n);
}

ag::Variable GroupAttentionMechanism::Forward(const ag::Variable& q,
                                              const ag::Variable& k,
                                              const ag::Variable& v,
                                              attn::ForwardState* state) {
  RITA_CHECK_EQ(q.dim(), 3);
  RITA_CHECK_EQ(q.size(2), head_dim_);
  const int64_t bh = q.size(0), n = q.size(1), d = q.size(2);
  RITA_CHECK(k.shape() == q.shape());
  RITA_CHECK(v.shape() == q.shape());
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  ExecutionContext* context = ResolveContext(*state);

  Tensor out({bh, n, d});
  std::vector<SliceState> states(bh);
  std::vector<GroupingSnapshot>* snapshots = state->snapshots;
  if (snapshots != nullptr) snapshots->assign(bh, GroupingSnapshot());
  const uint64_t stream = state->DrawStream();

  const float* pq = q.data().data();
  const float* pk = k.data().data();
  const float* pv = v.data().data();
  float* po = out.data();

  // Inference (no grad recording) runs the fused score→softmax→weighted-sum
  // tile kernel and never materialises A~ or per-slice backward state; the
  // training path keeps the unfused pipeline because backward needs A~/V~.
  // On the scalar backend both paths are bit-identical (the fused driver tiles
  // over rows of per-row-independent kernels).
  const bool need_grad =
      ag::GradModeEnabled() &&
      (q.requires_grad() || q.grad_fn() != nullptr || k.requires_grad() ||
       k.grad_fn() != nullptr || v.requires_grad() || v.grad_fn() != nullptr);

  // Narrow inference (fewer slices than pool threads, e.g. one long series)
  // cannot fill the pool from the slice loop alone, so a slice whose attend
  // work is large enough splits its attention rows into tiles (bitwise
  // neutral: the fused kernel is row-exact). k-means stays on the slice's
  // thread: one fused assignment pass is too short to pay for a fan-out.
  const int threads = context->num_threads();
  const bool tileable = !need_grad && snapshots == nullptr;
  const cluster::KMeansOptions km = InferenceKMeans(n);

  // One independent unit of Alg. 1 per (batch*head) slice: group the keys,
  // score against the N representatives, group-softmax, aggregate values.
  // Slices share nothing mutable — each has its own SliceState, snapshot slot
  // and counter-derived RNG — so the loop shards freely across the pool.
  context->ParallelFor(0, bh, [&](int64_t s0, int64_t s1) {
    ScratchArena::Lease scratch = context->arena()->Acquire();
    for (int64_t s = s0; s < s1; ++s) {
      scratch.Reset();
      Rng slice_rng = ExecutionContext::SliceRng(seed_, stream, state->SliceKey(s));

      // Keys of this slice (copied into a 2-D tensor for the grouping engine).
      Tensor keys({n, d});
      std::copy(pk + s * n * d, pk + (s + 1) * n * d, keys.data());

      InferenceGrouping ig =
          GroupSliceForInference(keys, pv + s * n * d, km, &slice_rng, context);
      const int64_t ng = ig.num_groups();
      const int64_t tiles =
          tileable ? TilesPerSlice(bh, n, 2 * ng * d, threads) : 1;

      Tensor a_tilde;
      if (need_grad) {
        // P~ = scale * Q R^T : [n, ng]
        float* p_tilde = scratch.Floats(n * ng);
        ops::Gemm2D(pq + s * n * d, ig.grouping.centroids.data(), p_tilde, n, ng, d,
                    /*trans_a=*/false, /*trans_b=*/true, /*parallel=*/false);

        // Group softmax (Eq. 3), stabilised by the row max (shift-invariant).
        a_tilde = Tensor({n, ng});
        kernels::FusedSoftmaxRows(p_tilde, a_tilde.data(), n, ng, scale,
                                  ig.weights.data());

        // O = A~ V~ : [n, d]
        ops::Gemm2D(a_tilde.data(), ig.v_tilde.data(), po + s * n * d, n, d, ng,
                    false, false, /*parallel=*/false);
      } else if (tiles == 1) {
        GroupAttendRows(pq + s * n * d, ig, po + s * n * d, n, d, scale, &scratch);
      } else {
        const int64_t rows_per_tile = (n + tiles - 1) / tiles;
        context->ParallelFor(0, tiles, [&](int64_t t0, int64_t t1) {
          ScratchArena::Lease tile_scratch = context->arena()->Acquire();
          for (int64_t t = t0; t < t1; ++t) {
            tile_scratch.Reset();
            const int64_t r0 = std::min(n, t * rows_per_tile);
            const int64_t rows = std::min(n, r0 + rows_per_tile) - r0;
            GroupAttendRows(pq + (s * n + r0) * d, ig, po + (s * n + r0) * d, rows,
                            d, scale, &tile_scratch);
          }
        });
      }

      if (snapshots != nullptr) {
        GroupingSnapshot& snap = (*snapshots)[s];
        snap.centroids = ig.grouping.centroids;
        snap.counts = ig.grouping.counts;
        snap.radii = cluster::ClusterRadii(keys, ig.grouping);
        snap.key_ball_radius = cluster::PointBallRadius(keys);
        Tensor queries({n, d});
        std::copy(pq + s * n * d, pq + (s + 1) * n * d, queries.data());
        snap.query_ball_radius = cluster::PointBallRadius(queries);
      }

      if (need_grad) {
        SliceState& st = states[s];
        st.assignment = std::move(ig.grouping.assignment);
        st.counts = std::move(ig.grouping.counts);
        st.centroids = std::move(ig.grouping.centroids);
        st.a_tilde = std::move(a_tilde);
        st.v_tilde = std::move(ig.v_tilde);
      }
    }
  });

  ag::Variable result(out);
  if (need_grad) {
    ag::Function::Connect(
        std::make_shared<GroupAttentionFunction>(std::move(states), q.data(), scale,
                                                 execution_context_cell()),
        {q, k, v}, &result);
  }
  return result;
}

}  // namespace core
}  // namespace rita
