// Inference-time model snapshot: a private, weight-copied replica of a
// trained RitaModel with dropout off, snapshot collection off, eval mode on
// and every forward running grad-free with an explicit per-call ForwardState.
// The replica is immutable after construction, so any number of threads can
// forward through one FrozenModel simultaneously — the substrate of the
// rita::serve InferenceEngine.
//
// Determinism: every forward pins RNG stream 0 and batch-position-invariant
// per-slice streams, so (a) the same request always produces the same output
// and (b) a request's result does not depend on which micro-batch it rode in
// (bit-identical for group/vanilla/linformer attention; Performer is
// invariant only up to float rounding — see attention.h).
#ifndef RITA_SERVE_FROZEN_MODEL_H_
#define RITA_SERVE_FROZEN_MODEL_H_

#include <memory>
#include <vector>

#include "model/rita_model.h"
#include "tensor/quantized_tensor.h"

namespace rita {
namespace serve {

class FrozenModel {
 public:
  /// Deep-copies `source`'s parameters, buffers and group-attention runtime
  /// state (seeds, scheduler-adapted group counts) into the frozen replica.
  /// The source is left untouched and may keep training afterwards.
  ///
  /// `precision` selects the serving weight format: kFp32 is the untouched
  /// bitwise-gated path; kBf16 truncates the replica's Q/K/V/output
  /// projections and FFN matrices to bfloat16 at freeze time (see
  /// tensor/quantized_tensor.h) and routes every forward through the bf16
  /// GEMM kernel. Norms, biases, the frontend and the task heads stay fp32.
  /// Quantized variants trade bit-identity for an accuracy-delta gate
  /// (serve/accuracy_gate.h); freeze one source at several precisions and
  /// register them side by side for A/B serving.
  explicit FrozenModel(model::RitaModel& source,
                       Precision precision = Precision::kFp32);

  FrozenModel(const FrozenModel&) = delete;
  FrozenModel& operator=(const FrozenModel&) = delete;

  const model::RitaConfig& config() const { return config_; }

  /// Serving weight format selected at freeze time.
  Precision precision() const { return precision_; }

  /// Bytes of weight data the serving path actually reads: every parameter
  /// at fp32 except the quantized GEMM matrices, which are counted at their
  /// QuantizedTensor footprint.
  int64_t WeightBytes() const { return weight_bytes_; }

  /// Quantized-over-fp32 byte ratio of the GEMM-path matrices alone (the
  /// Q/K/V/output projections and FFN weights); 1.0 for the fp32 variant.
  /// This is the footprint metric the BENCH_quant CI gate bounds (0.5 for
  /// bf16) — unquantized smalls (norms, biases) are excluded so the ratio
  /// reflects the quantization itself, not the model mix. Weight precision
  /// does not shrink the per-sample working set (gemm_bf16 reads and writes
  /// fp32 activations), so the batch planner prices every variant alike.
  double QuantizedBytesRatio() const;

  /// Largest group count across the replica's group-attention layers (0 when
  /// the model uses another attention kind). The engine feeds this to the
  /// batch planner's memory-aware micro-batch cap.
  int64_t num_groups() const { return num_groups_; }

  /// Content fingerprint: an FNV-1a digest of the architecture config, every
  /// parameter/buffer byte and the group-attention runtime state (seeds,
  /// adapted group counts). Two replicas agree iff they compute the same
  /// function, so the serving result cache keys on it — entries from a
  /// retrained or different model can never alias.
  uint64_t Fingerprint() const { return fingerprint_; }

  // -- Thread-safe, deterministic, grad-free forwards ----------------------
  // `batch` is [B, T, C] with window <= T <= input_length; `exec` supplies
  // the execution resources (null = ExecutionContext::Default()).
  //
  // `context` is null or a [B, dim] summary embedding per row — typically
  // the previous window's [CLS] in windowed streaming, prepended by the
  // model as a position-free token so the window attends to carried
  // cross-window state. `cls` (optional out) receives this window's [CLS]
  // embeddings [B, dim] from the SAME encoder forward, which a streaming
  // session hands to the next window — no second encode ever runs. Context
  // is not supported on Linformer models: the extra token would exceed the
  // length projection's locked token count (the engine rejects it upstream).

  /// Contextual embeddings [B, 1 + n_win, dim]; row 0 is [CLS].
  Tensor Encode(const Tensor& batch, const Tensor* context = nullptr,
                ExecutionContext* exec = nullptr) const;
  /// Class logits [B, num_classes] (+ optional [CLS] out).
  Tensor ClassLogits(const Tensor& batch, const Tensor* context = nullptr,
                     Tensor* cls = nullptr, ExecutionContext* exec = nullptr) const;
  /// Whole-series [CLS] embeddings [B, dim] (similarity search / clustering).
  Tensor Embed(const Tensor& batch, const Tensor* context = nullptr,
               ExecutionContext* exec = nullptr) const;
  /// Reconstruction [B, T, C] (imputation / forecasting on masked input;
  /// + optional [CLS] out).
  Tensor Reconstruct(const Tensor& batch, const Tensor* context = nullptr,
                     Tensor* cls = nullptr, ExecutionContext* exec = nullptr) const;

 private:
  attn::ForwardState MakeState(ExecutionContext* context) const;

  uint64_t ComputeFingerprint() const;

  /// Freeze-time pass for kBf16: quantizes every encoder layer's
  /// Q/K/V/output projection and FFN matrices into owned QuantizedTensors and
  /// attaches them to the replica's Linear layers, accumulating the byte
  /// accounting that WeightBytes()/QuantizedBytesRatio() report.
  void QuantizeProjections();

  model::RitaConfig config_;
  Precision precision_ = Precision::kFp32;
  int64_t num_groups_ = 0;
  uint64_t fingerprint_ = 0;
  int64_t weight_bytes_ = 0;             // serving-path bytes, all params
  int64_t quantizable_fp32_bytes_ = 0;   // fp32 bytes of the GEMM matrices
  int64_t quantized_bytes_ = 0;          // their quantized footprint
  // Owned quantized weights; unique_ptr keeps addresses stable for the
  // borrowed pointers the replica's Linear layers hold.
  std::vector<std::unique_ptr<QuantizedTensor>> quantized_;
  // Logically immutable after construction; forwards with explicit state
  // mutate nothing (the reentrancy contract), so const methods are sound.
  mutable std::unique_ptr<model::RitaModel> model_;
};

}  // namespace serve
}  // namespace rita

#endif  // RITA_SERVE_FROZEN_MODEL_H_
