// Batch-size planner (Sec. 5.2, Appendix A.3): binary-searches the maximal
// batch size that stays under 90% of device memory for sampled (L, N) pairs
// (Alg. 2), then learns B = f(L, N) with per-sub-plane curve fits chosen by
// the DP plane division (Alg. 3) so training can pick a batch size instantly
// whenever the adaptive scheduler changes N.
#ifndef RITA_CORE_BATCH_PLANNER_H_
#define RITA_CORE_BATCH_PLANNER_H_

#include <vector>

#include "core/memory_model.h"
#include "core/plane_division.h"
#include "util/rng.h"

namespace rita {
namespace core {

struct BatchPlannerOptions {
  /// User-defined maximal raw timeseries length L_max.
  int64_t max_length = 10000;
  /// Number of (L_i, N_i) calibration samples from {1<=L<=Lmax, 1<=N<=L}.
  int64_t num_samples = 48;
  /// Alg. 2's memory threshold (0.9 = stay under 90% of capacity).
  double memory_fraction = 0.9;
  /// Upper bound of the binary search.
  int64_t max_batch = 1 << 16;
  PlaneDivisionOptions plane;
};

/// Learns and serves the analytic batch-size prediction function. Training
/// consults it whenever the adaptive scheduler changes N; the serving
/// scheduler caps every micro-batch with it.
class BatchPlanner {
 public:
  BatchPlanner(const MemoryModel& model, const BatchPlannerOptions& options);

  /// Alg. 2: binary search for the largest batch that fits under the memory
  /// fraction at (length, groups). Always >= 1 (a single sample is assumed to
  /// fit; asserted).
  int64_t ProbeBatchSize(int64_t length, int64_t groups) const;

  /// Samples (L_i, N_i) pairs, probes ground-truth batch sizes, and fits the
  /// plane division. Must be called before PredictBatchSize.
  void Calibrate(Rng* rng);

  /// Fast prediction from the fitted plane (clamped to >= 1). Conservative:
  /// the prediction is validated against the memory model and clipped to the
  /// largest feasible batch below it, so a fit overshoot can never OOM.
  int64_t PredictBatchSize(int64_t length, int64_t groups) const;

  bool calibrated() const { return calibrated_; }
  const MemoryModel& memory_model() const { return model_; }
  const BatchPlannerOptions& options() const { return options_; }
  const PlaneDivision& division() const { return division_; }
  const std::vector<BatchSample>& calibration_samples() const { return samples_; }

 private:
  MemoryModel model_;
  BatchPlannerOptions options_;
  bool calibrated_ = false;
  std::vector<BatchSample> samples_;
  PlaneDivision division_;
};

}  // namespace core
}  // namespace rita

#endif  // RITA_CORE_BATCH_PLANNER_H_
