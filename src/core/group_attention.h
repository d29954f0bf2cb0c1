// Group attention (Sec. 4 of the paper): keys are clustered per head with the
// GPU-friendly k-means; attention scores are computed once per *group*
// (an n x N matrix instead of n x n); the group softmax (Eq. 3) weights each
// group by its member count and the embedding-aggregation step sums V inside
// each group, so the produced embeddings are *identical* to restoring the full
// attention matrix first (Lemma 3 / Appendix A.4) while using O(nN) memory and
// O(nNd) time (Alg. 1).
#ifndef RITA_CORE_GROUP_ATTENTION_H_
#define RITA_CORE_GROUP_ATTENTION_H_

#include <memory>
#include <vector>

#include "attention/attention.h"
#include "cluster/kmeans.h"
#include "core/grouping_snapshot.h"

namespace rita {
namespace core {

/// One (batch*head) slice's grouping state for the inference fast path:
/// everything the fused score->softmax->weighted-sum kernel needs. Produced
/// by GroupSliceForInference, consumed by GroupAttendRows — the mechanism's
/// Forward is composed of exactly these two helpers, so a caller that stages
/// them itself reproduces it bit for bit.
struct InferenceGrouping {
  cluster::KMeansResult grouping;  // centroids R, assignment, counts
  Tensor v_tilde;                  // V~: [ng, d] per-group value sums
  std::vector<float> weights;      // [ng] group sizes (Eq. 3 denominators)

  int64_t num_groups() const { return grouping.num_clusters(); }
};

/// Groups one slice's keys and aggregates its values (Alg. 1 steps 1-2).
/// `keys` is the slice's [n, d] key matrix; `v_slice` points at its n*d
/// values. k-means runs with `km` as given (Forward passes InferenceKMeans,
/// so each slice groups on its own thread). Records a `kmeans_grouping`
/// kernel span when the calling thread carries a trace.
InferenceGrouping GroupSliceForInference(const Tensor& keys, const float* v_slice,
                                         const cluster::KMeansOptions& km, Rng* rng,
                                         ExecutionContext* context);

/// Scores `rows` query rows against the grouping and writes the attended
/// output rows (Alg. 1 steps 3-5 via the fused kernel). Row-tiling is exact:
/// every output row is produced by the same per-row kernel regardless of how
/// the [0, n) range is split, so Forward's per-tile calls match the one-shot
/// call bit for bit. Records a `fused_group_attention` kernel span when the
/// calling thread carries a trace.
void GroupAttendRows(const float* q_rows, const InferenceGrouping& grouping,
                     float* out_rows, int64_t rows, int64_t d, float scale,
                     ScratchArena::Lease* scratch);

struct GroupAttentionOptions {
  /// Initial number of groups N. The adaptive scheduler shrinks this during
  /// training; set_num_groups() applies the update.
  int64_t num_groups = 64;
  /// Lloyd iterations per forward (the paper: a few suffice).
  int kmeans_iters = 2;
  /// k-means++ seeding (slower, better grouping; off by default).
  bool kmeanspp_init = false;
  /// Collect centroid/radius snapshots for the adaptive scheduler. Costs one
  /// O(n d) pass per head; disable for pure inference.
  bool collect_snapshots = true;
};

/// Group attention mechanism (drop-in replacement for VanillaAttention).
/// Reentrant: a Forward with an explicit ForwardState mutates nothing on the
/// mechanism, so one frozen instance serves concurrent callers.
class GroupAttentionMechanism : public attn::AttentionMechanism {
 public:
  GroupAttentionMechanism(int64_t head_dim, const GroupAttentionOptions& options,
                          Rng* rng);

  using attn::AttentionMechanism::Forward;
  ag::Variable Forward(const ag::Variable& q, const ag::Variable& k,
                       const ag::Variable& v, attn::ForwardState* state) override;

  attn::AttentionKind kind() const override { return attn::AttentionKind::kGroup; }
  int64_t ScoreMatrixElements(int64_t n) const override { return n * num_groups_; }

  int64_t num_groups() const { return num_groups_; }
  /// Applies a scheduler decision (clamped to >= 1). Not safe against
  /// concurrent Forward calls (the scheduler runs between epochs).
  void set_num_groups(int64_t n);

  /// Snapshots from the most recent *legacy* Forward (one per batch*head
  /// slice). Reentrant calls deliver snapshots to their state's sink instead.
  const std::vector<GroupingSnapshot>& last_snapshots() const { return snapshots_; }

  const GroupAttentionOptions& options() const { return options_; }

  /// Root of the counter-based per-slice RNG streams: slice s of stream f
  /// draws from ExecutionContext::SliceRng(seed(), f, s). Exposed so a
  /// weight-copied replica (rita::serve FrozenModel) can reproduce this
  /// mechanism's grouping exactly.
  uint64_t seed() const { return seed_; }
  void set_seed(uint64_t seed) { seed_ = seed; }

  /// The k-means configuration Forward uses for an n-token slice, with
  /// km.parallel=false (the slice loop is the parallel grain). Staged
  /// callers reuse this to group exactly like Forward.
  cluster::KMeansOptions InferenceKMeans(int64_t n) const;

 protected:
  void InitDefaultState(attn::ForwardState* state) override {
    state->snapshots = options_.collect_snapshots ? &snapshots_ : nullptr;
  }

 private:
  int64_t head_dim_;
  GroupAttentionOptions options_;
  int64_t num_groups_;
  // Unlike a shared mutable Rng, counter-based streams keep concurrent slices
  // independent and make the grouping bit-identical no matter the pool width
  // or schedule.
  uint64_t seed_;
  std::vector<GroupingSnapshot> snapshots_;
};

}  // namespace core
}  // namespace rita

#endif  // RITA_CORE_GROUP_ATTENTION_H_
