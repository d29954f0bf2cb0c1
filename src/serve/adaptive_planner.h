// Telemetry-driven batch planner (the live-recalibration layer the paper's
// adaptive scheduler motivates, Sec. 5.2 / Table 8): plans micro-batch sizes
// from the latency and memory the executor actually measured instead of the
// analytic (training-calibrated) MemoryModel alone.
//
// Why the analytic plan is beatable at serving time: the MemoryModel charges
// every activation a backward multiplier (grads + optimiser state), which is
// correct for training but ~3x pessimistic for grad-free frozen forwards.
// The adaptive planner keeps the analytic prediction as its cold-start seed
// and raises the plan toward a hard safety ceiling — the SAME memory model
// re-probed with forward-only accounting — as measured telemetry confirms
// capacity, optionally bounded by a per-batch latency target and by a
// measured-RSS budget.
//
//   executor ----- BatchTelemetry (compute_ms, RSS) ----> Observe()
//      ^                                                    |
//      |                                      robust EWMA fits per
//      |                                      (model, task, length-bucket)
//      |                                                    |
//   Scheduler <---- PlanBatch() <---- published plan <-- recalibrate
//                                     (hysteresis dead-band + slew limit,
//                                      clamped to the safety ceiling)
//
// Noise containment, in layers: (1) outlier samples are clamped by the fits'
// robust envelope, (2) the published plan only moves when the recomputed
// candidate escapes a relative dead-band (hysteresis), and (3) each move is
// slew-limited to a bounded factor — so a single wild sample can never swing
// the plan, let alone above the ceiling (enforced unconditionally).
//
// Thread-safety: all public methods are safe to call concurrently (one
// internal mutex); Observe arrives from executor workers while the scheduler
// plans under the engine's queue lock.
#ifndef RITA_SERVE_ADAPTIVE_PLANNER_H_
#define RITA_SERVE_ADAPTIVE_PLANNER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>

#include "core/batch_planner.h"
#include "serve/telemetry.h"

namespace rita {
namespace serve {

struct AdaptivePlannerOptions {
  /// Absolute cap on any plan (mirrors the analytic planner's search bound).
  int64_t max_batch = 1 << 16;
  /// Per-batch latency target in ms; 0 disables the latency bound and the
  /// plan rises to the memory ceiling as telemetry confirms it.
  double target_batch_ms = 0.0;
  /// EWMA forgetting weight of each new telemetry sample (effective memory
  /// ~1/decay samples).
  double decay = 0.08;
  /// Residual clamp: samples beyond this many mean-absolute-deviations from
  /// the fit are clamped before entering the moments.
  double outlier_mad_factor = 4.0;
  /// Telemetry samples a bucket needs before its fit may override the seed.
  uint64_t min_samples = 8;
  /// Hysteresis dead-band: the published plan moves only when the recomputed
  /// candidate deviates from it by at least this relative fraction.
  double hysteresis_fraction = 0.25;
  /// Slew limit: one recalibration may grow the plan by at most this factor
  /// (and shrink by at most its inverse).
  double max_step_factor = 2.0;
  /// Memory accounting for the safety ceiling: the seed's MemoryModel with
  /// this backward multiplier (1.0 = forward-only, the serving truth).
  double serve_backward_multiplier = 1.0;
  /// Fraction of the (simulated) device the ceiling probe may fill.
  double memory_fraction = 0.9;
  /// Budget for the measured-RSS cap, in bytes of real process residency.
  /// 0 (default) DISABLES the cap: the probe still records into the memory
  /// fit (surfaced in snapshots), but real RSS is only comparable to a
  /// budget the operator states about the real host — deriving one from the
  /// seed's simulated device would compare apples to oranges (and a
  /// simulated device smaller than the process's static residency would
  /// collapse every plan to 1).
  int64_t rss_budget_bytes = 0;
};

class AdaptivePlanner : public core::PlannerInterface {
 public:
  /// Per-model planner state, surfaced through EngineStats.
  struct Snapshot {
    uint64_t samples = 0;       // telemetry samples ingested
    uint64_t outliers = 0;      // samples clamped by the robust fits
    uint64_t plan_updates = 0;  // times a published plan moved off its seed
    int64_t buckets = 0;        // distinct (task, length-bucket) states
    int64_t plan = 0;           // published plan of the busiest bucket
    int64_t ceiling = 0;        // that bucket's hard safety ceiling
    int64_t seed_plan = 0;      // that bucket's analytic cold-start plan
  };

  /// `seed` is the calibrated analytic planner (borrowed, must outlive this
  /// object): cold-start predictions fall through to it unchanged, and its
  /// MemoryModel — re-probed with forward-only accounting — defines the hard
  /// safety ceiling no amount of optimistic telemetry can push a plan past.
  AdaptivePlanner(const core::BatchPlanner* seed,
                  const AdaptivePlannerOptions& options = {});

  // -- core::PlannerInterface ----------------------------------------------
  int64_t PredictBatchSize(int64_t length, int64_t groups) const override;
  int64_t PlanBatch(int64_t model_id, int64_t task, int64_t length,
                    int64_t groups) const override;
  bool calibrated() const override;
  void Observe(const core::BatchTelemetry& sample) override;
  double EstimateComputeMs(int64_t model_id, int64_t task, int64_t length,
                           int64_t batch) const override;

  /// Hard memory ceiling at (length, groups): forward-only accounting over
  /// the seed's device. Every published plan satisfies plan <= ceiling. The
  /// ceiling is the same for every model: weight precision does not change
  /// the activations a forward keeps live, which is what the probe prices.
  int64_t SafetyCeiling(int64_t length, int64_t groups) const;

  /// Aggregated planner state for one model (model_id = -1: every model).
  Snapshot ModelSnapshot(int64_t model_id) const;

  const AdaptivePlannerOptions& options() const { return options_; }

 private:
  struct BucketState {
    OnlineLinearFit latency;  // compute_ms over batch size
    OnlineLinearFit memory;   // probed RSS bytes over batch size
    int64_t groups = 0;       // group count the ceiling was probed at
    int64_t ceiling = 0;      // hard cap (forward-only memory accounting)
    int64_t seed_plan = 0;    // analytic cold-start plan
    int64_t plan = 0;         // published plan (PlanBatch answer)
    uint64_t plan_updates = 0;
    uint64_t outliers = 0;

    BucketState(const AdaptivePlannerOptions& options)
        : latency(options.decay, options.outlier_mad_factor),
          memory(options.decay, options.outlier_mad_factor) {}
  };
  using Key = std::tuple<int64_t, int64_t, int64_t>;  // model, task, bucket

  /// Representative planning length of a bucket: its (conservative) upper
  /// bound, floored to the frontend window the memory model requires.
  int64_t BucketLength(int64_t bucket) const;
  /// Recomputes the candidate plan from the bucket's fits and publishes it
  /// through the hysteresis dead-band + slew limit. Caller holds mu_.
  void Recalibrate(BucketState& state);

  const core::BatchPlanner* seed_;
  AdaptivePlannerOptions options_;
  core::MemoryModel ceiling_model_;  // seed's shape, forward-only multiplier
  int64_t rss_budget_bytes_ = 0;

  mutable std::mutex mu_;
  // std::map: deterministic iteration for snapshots; the handful of buckets
  // a serving mix produces makes lookup cost irrelevant.
  std::map<Key, BucketState> buckets_;
};

}  // namespace serve
}  // namespace rita

#endif  // RITA_SERVE_ADAPTIVE_PLANNER_H_
