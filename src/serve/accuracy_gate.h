// Accuracy-delta gate for reduced-precision serving variants. The fp32 path
// is guarded by bitwise CI gates; a bf16 variant cannot be (quantization
// changes the bits by design), so CI instead bounds its *behavioural* drift
// from the fp32 reference on a probe batch:
//
//   - classification agreement: fraction of rows whose argmax class matches
//     the fp32 model's (>= min_agreement, default 0.99);
//   - reconstruction-MSE ratio: the variant's masked-reconstruction MSE
//     against the input, divided by the fp32 model's (<= max_mse_ratio,
//     default 1.05 — the variant may be at most 5% worse at the pretraining
//     objective).
//
// CheckAccuracyDelta runs both models on the same batch and verdicts in one
// call; the metric helpers are exposed for tests and the bench tables.
#ifndef RITA_SERVE_ACCURACY_GATE_H_
#define RITA_SERVE_ACCURACY_GATE_H_

#include "serve/frozen_model.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace rita {
namespace serve {

struct AccuracyGateOptions {
  double min_agreement = 0.99;   // classification argmax agreement floor
  double max_mse_ratio = 1.05;   // reconstruction MSE ratio ceiling
};

/// Metrics computed by CheckAccuracyDelta (also filled when the gate fails,
/// so callers can report how far off the variant was).
struct AccuracyDeltaReport {
  double classification_agreement = 1.0;
  double reconstruction_mse_ratio = 1.0;
};

/// Fraction of rows (dim 0) where argmax(ref) == argmax(variant); both
/// [B, num_classes]. Ties break to the lowest index on both sides, so an
/// identical tensor always scores 1.0.
double ClassificationAgreement(const Tensor& ref_logits,
                               const Tensor& variant_logits);

/// MSE(variant_out, target) / MSE(ref_out, target), all tensors of identical
/// shape. A degenerate zero reference MSE yields 1.0 when the variant is also
/// exact and +inf otherwise.
double ReconstructionMseRatio(const Tensor& ref_out, const Tensor& variant_out,
                              const Tensor& target);

/// Runs ClassLogits and Reconstruct on both models over `batch` ([B, T, C],
/// the probe set) and checks the variant against `options`. Returns OK when
/// the variant passes both bounds, InvalidArgument naming the violated bound
/// otherwise. `report` (optional) receives the measured metrics either way.
Status CheckAccuracyDelta(const FrozenModel& reference, const FrozenModel& variant,
                          const Tensor& batch,
                          const AccuracyGateOptions& options = {},
                          AccuracyDeltaReport* report = nullptr);

}  // namespace serve
}  // namespace rita

#endif  // RITA_SERVE_ACCURACY_GATE_H_
