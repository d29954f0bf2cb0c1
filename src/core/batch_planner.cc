#include "core/batch_planner.h"

#include <algorithm>
#include <cmath>

namespace rita {
namespace core {

namespace {

// Alg. 2: classic lo/hi binary search for the largest batch that fits under
// `fraction` of `model`'s capacity at (length, groups), capped at `max_batch`.
int64_t MaxFeasibleBatch(const MemoryModel& model, int64_t length, int64_t groups,
                         double fraction, int64_t max_batch) {
  int64_t lo = 1, hi = max_batch, best = 1;
  while (lo <= hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (model.Fits(mid, length, groups, fraction)) {
      best = mid;
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return best;
}

}  // namespace

BatchPlanner::BatchPlanner(const MemoryModel& model, const BatchPlannerOptions& options)
    : model_(model), options_(options) {
  RITA_CHECK_GE(options_.max_length, model_.shape().window);
  RITA_CHECK_GT(options_.num_samples, 0);
}

int64_t BatchPlanner::ProbeBatchSize(int64_t length, int64_t groups) const {
  RITA_CHECK(model_.Fits(1, length, groups, options_.memory_fraction))
      << "even batch size 1 exceeds the memory budget at length " << length;
  return MaxFeasibleBatch(model_, length, groups, options_.memory_fraction,
                          options_.max_batch);
}

void BatchPlanner::Calibrate(Rng* rng) {
  samples_.clear();
  samples_.reserve(options_.num_samples);
  const int64_t min_l = model_.shape().window;
  for (int64_t i = 0; i < options_.num_samples; ++i) {
    // Integral points from the plane {min_l <= L <= Lmax, 1 <= N <= tokens(L)}.
    const int64_t length = min_l + rng->UniformInt(options_.max_length - min_l + 1);
    const int64_t tokens = model_.shape().Tokens(length);
    const int64_t groups = 1 + rng->UniformInt(std::max<int64_t>(1, tokens));
    BatchSample s;
    s.length = static_cast<double>(length);
    s.groups = static_cast<double>(groups);
    s.batch = static_cast<double>(ProbeBatchSize(length, groups));
    samples_.push_back(s);
  }
  division_ = DividePlane(samples_, options_.plane);
  calibrated_ = true;
}

int64_t BatchPlanner::PredictBatchSize(int64_t length, int64_t groups) const {
  RITA_CHECK(calibrated_) << "Calibrate() before PredictBatchSize()";
  const double raw = division_.Predict(static_cast<double>(length),
                                       static_cast<double>(groups));
  int64_t predicted = std::max<int64_t>(1, static_cast<int64_t>(std::floor(raw)));
  predicted = std::min(predicted, options_.max_batch);
  // OOM guard: a fit overshoot is clipped to the exact feasible maximum below
  // the prediction (cheap: the oracle is the analytic memory model).
  if (!model_.Fits(predicted, length, groups, options_.memory_fraction)) {
    predicted = MaxFeasibleBatch(model_, length, groups, options_.memory_fraction,
                                 predicted);
  }
  return std::max<int64_t>(1, predicted);
}

}  // namespace core
}  // namespace rita
