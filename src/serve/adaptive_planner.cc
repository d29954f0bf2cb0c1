#include "serve/adaptive_planner.h"

#include <algorithm>
#include <cmath>

namespace rita {
namespace serve {

namespace {

// The safety ceiling re-probes the seed's device with serving-time (default
// forward-only) accounting: same shape, same capacity, no backward charge.
core::MemoryModel CeilingModel(const core::BatchPlanner* seed,
                               const AdaptivePlannerOptions& options) {
  RITA_CHECK(seed != nullptr) << "AdaptivePlanner needs an analytic seed planner";
  core::MemoryModelOptions mm = seed->memory_model().options();
  mm.backward_multiplier = options.serve_backward_multiplier;
  return core::MemoryModel(seed->memory_model().shape(), mm);
}

}  // namespace

AdaptivePlanner::AdaptivePlanner(const core::BatchPlanner* seed,
                                 const AdaptivePlannerOptions& options)
    : seed_(seed), options_(options), ceiling_model_(CeilingModel(seed, options)) {
  RITA_CHECK_GT(options_.max_batch, 0);
  RITA_CHECK_GT(options_.decay, 0.0);
  RITA_CHECK_LE(options_.decay, 1.0);
  RITA_CHECK_GT(options_.max_step_factor, 1.0);
  RITA_CHECK_GE(options_.hysteresis_fraction, 0.0);
  RITA_CHECK_GT(options_.serve_backward_multiplier, 0.0);
  rss_budget_bytes_ = options_.rss_budget_bytes;  // 0 = measured cap disabled
}

int64_t AdaptivePlanner::BucketLength(int64_t bucket) const {
  return std::max(bucket, ceiling_model_.shape().window);
}

int64_t AdaptivePlanner::SafetyCeiling(int64_t length, int64_t groups) const {
  return core::MaxFeasibleBatch(
      ceiling_model_, std::max(length, ceiling_model_.shape().window),
      std::max<int64_t>(1, groups), options_.memory_fraction, options_.max_batch);
}

bool AdaptivePlanner::calibrated() const {
  return seed_->calibrated();
}

int64_t AdaptivePlanner::PredictBatchSize(int64_t length, int64_t groups) const {
  return PlanBatch(0, 0, length, groups);
}

int64_t AdaptivePlanner::PlanBatch(int64_t model_id, int64_t task, int64_t length,
                                   int64_t groups) const {
  const int64_t norm_groups = std::max<int64_t>(1, groups);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = buckets_.find(Key{model_id, task, LengthBucket(length)});
    // A bucket probed for a different group count has a stale ceiling; fall
    // through to the seed rather than trust it (groups are fixed per frozen
    // model, so this is a cold-path safeguard, not a steady-state branch).
    if (it != buckets_.end() && it->second.groups == norm_groups) {
      return std::max<int64_t>(1, std::min(it->second.plan, it->second.ceiling));
    }
  }
  return seed_->PredictBatchSize(length, norm_groups);
}

double AdaptivePlanner::EstimateComputeMs(int64_t model_id, int64_t task,
                                          int64_t length, int64_t batch) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = buckets_.find(Key{model_id, task, LengthBucket(length)});
  if (it == buckets_.end()) return 0.0;
  const BucketState& state = it->second;
  if (!state.latency.ready() || state.latency.samples() < options_.min_samples) {
    return 0.0;
  }
  return std::max(0.0, state.latency.Predict(static_cast<double>(batch)));
}

void AdaptivePlanner::Observe(const core::BatchTelemetry& sample) {
  if (sample.batch <= 0 || sample.length <= 0) return;
  const int64_t norm_groups = std::max<int64_t>(1, sample.groups);
  const int64_t bucket = LengthBucket(sample.length);

  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] =
      buckets_.try_emplace(Key{sample.model_id, sample.task, bucket}, options_);
  BucketState& state = it->second;
  if (inserted || state.groups != norm_groups) {
    // A different group count is a different cost regime: telemetry gathered
    // under the old count would poison the fits (and the latency estimate
    // the admission shedder consults), so they restart alongside the
    // ceiling/seed. The outlier/update counters stay cumulative — they are
    // stats, not model state.
    state.latency = OnlineLinearFit(options_.decay, options_.outlier_mad_factor);
    state.memory = OnlineLinearFit(options_.decay, options_.outlier_mad_factor);
    state.groups = norm_groups;
    state.ceiling = SafetyCeiling(bucket, norm_groups);
    // Cold start = the analytic plan at the bucket's conservative length
    // (clamped under the ceiling, which forward-only accounting guarantees
    // anyway whenever both use the same device).
    state.seed_plan =
        seed_->calibrated()
            ? std::min(seed_->PredictBatchSize(BucketLength(bucket), norm_groups),
                       state.ceiling)
            : 1;
    state.plan = std::max<int64_t>(1, state.seed_plan);
  }

  if (state.latency.Add(static_cast<double>(sample.batch), sample.compute_ms)) {
    ++state.outliers;
  }
  if (sample.peak_rss_bytes > 0) {
    state.memory.Add(static_cast<double>(sample.batch),
                     static_cast<double>(sample.peak_rss_bytes));
  }
  if (state.latency.samples() >= options_.min_samples) {
    Recalibrate(state);
  }
}

void AdaptivePlanner::Recalibrate(BucketState& state) {
  // A latency target without a usable latency fit (e.g. every batch so far
  // ran at one size, leaving the slope indeterminate) must NOT default to
  // the ceiling: hold the current plan until the fit can bound latency.
  if (options_.target_batch_ms > 0.0 && !state.latency.ready()) return;

  // Candidate: the most aggressive batch every constraint admits. With no
  // latency target and no RSS signal that is the ceiling itself — the whole
  // point: measured telemetry has confirmed the forward-only footprint, so
  // the plan may leave the training-accounted seed behind.
  int64_t candidate = state.ceiling;

  if (options_.target_batch_ms > 0.0 && state.latency.ready()) {
    const double a = std::max(0.0, state.latency.intercept());
    const double b = state.latency.slope();
    if (a >= options_.target_batch_ms) {
      candidate = 1;
    } else if (b > 1e-9) {
      candidate = std::min(
          candidate,
          static_cast<int64_t>(std::floor((options_.target_batch_ms - a) / b)));
    }
  }

  if (rss_budget_bytes_ > 0 && state.memory.ready() &&
      state.memory.slope() > 1.0) {
    // Measured footprint: intercept absorbs the static residency (weights,
    // pools), the slope is the per-row activation cost actually observed.
    const double cap =
        (static_cast<double>(rss_budget_bytes_) - state.memory.intercept()) /
        state.memory.slope();
    candidate = std::min(candidate, static_cast<int64_t>(std::floor(cap)));
  }

  candidate = std::max<int64_t>(
      1, std::min({candidate, state.ceiling, options_.max_batch}));

  // Hysteresis dead-band: ignore candidates within the tolerance of the
  // published plan, so fit jitter (and any residue an already-clamped
  // outlier left) cannot wiggle the batch size the scheduler sees.
  const int64_t current = std::max<int64_t>(1, state.plan);
  const double deviation = static_cast<double>(std::llabs(candidate - current));
  if (deviation < options_.hysteresis_fraction * static_cast<double>(current)) {
    return;
  }

  // Slew limit: converge over a few recalibrations instead of leaping —
  // bounds the damage of any systematic mis-fit while it is still fresh.
  const int64_t grow_cap = static_cast<int64_t>(
      std::floor(static_cast<double>(current) * options_.max_step_factor));
  const int64_t shrink_cap = static_cast<int64_t>(
      std::ceil(static_cast<double>(current) / options_.max_step_factor));
  int64_t stepped = std::clamp(candidate, std::max<int64_t>(1, shrink_cap),
                               std::max(current + 1, grow_cap));
  stepped = std::max<int64_t>(1, std::min(stepped, state.ceiling));
  if (stepped != current) {
    state.plan = stepped;
    ++state.plan_updates;
  }
}

AdaptivePlanner::Snapshot AdaptivePlanner::ModelSnapshot(int64_t model_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snapshot;
  uint64_t busiest_samples = 0;
  for (const auto& [key, state] : buckets_) {
    if (model_id >= 0 && std::get<0>(key) != model_id) continue;
    ++snapshot.buckets;
    snapshot.samples += state.latency.samples();
    snapshot.outliers += state.outliers;
    snapshot.plan_updates += state.plan_updates;
    if (state.latency.samples() >= busiest_samples) {
      busiest_samples = state.latency.samples();
      snapshot.plan = state.plan;
      snapshot.ceiling = state.ceiling;
      snapshot.seed_plan = state.seed_plan;
    }
  }
  return snapshot;
}

}  // namespace serve
}  // namespace rita
