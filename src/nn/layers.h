// Core trainable layers: Linear, LayerNorm, BatchNorm1d, Dropout, Conv1d,
// ConvTranspose1d, learnable positional embedding, feed-forward block.
#ifndef RITA_NN_LAYERS_H_
#define RITA_NN_LAYERS_H_

#include <memory>

#include "autograd/ops.h"
#include "nn/module.h"
#include "tensor/quantized_tensor.h"
#include "util/rng.h"

namespace rita {
namespace nn {

/// Affine map y = x W + b over the last dim; accepts [*, in_features].
///
/// One forward for every grad mode and precision: the leading dims flatten
/// to rows, the rows shard through ops::ParallelRows, and each shard runs
/// ForwardRows straight into the output. No forward goes through ag::MatMul.
/// With grad mode on, one ag::ConnectLinear node records the backward.
class Linear : public Module {
 public:
  /// Elementwise map applied to each output row after the bias.
  enum class Epilogue {
    kNone,
    /// The kernel table's GELU. Grad-free forwards only: the backward would
    /// need the pre-activation, which the row loop overwrites.
    kGelu,
  };

  Linear(int64_t in_features, int64_t out_features, Rng* rng, bool bias = true);

  ag::Variable Forward(const ag::Variable& x, Epilogue epilogue = Epilogue::kNone);

  /// Rows [r0, r1) of y = x W + b and the epilogue, for x [rows, in] and
  /// y [rows, out] row-major: the fp32 weight runs the kernel table's
  /// linear_rows (bias and GELU fused into the GEMM row loop), an attached
  /// bf16 weight (grad mode off) runs gemm_bf16 then the bias and epilogue
  /// row by row. Rows are independent, so any row split gives the same bits.
  void ForwardRows(const float* x, int64_t rows, float* y, int64_t r0, int64_t r1,
                   Epilogue epilogue = Epilogue::kNone) const;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }
  ag::Variable weight() { return weight_; }
  /// Undefined when constructed with bias = false.
  ag::Variable bias() { return bias_; }

  /// Frozen-serving override: while attached (borrowed; null detaches),
  /// grad-free forwards run the reduced-precision row-range GEMM kernel
  /// against `qweight` instead of the fp32 one. Training forwards (grad mode
  /// on) always use the fp32 weight, and the bias stays fp32 in every mode.
  /// FrozenModel attaches these at freeze time.
  void SetQuantizedWeight(const QuantizedTensor* qweight);
  const QuantizedTensor* quantized_weight() const { return qweight_; }

 private:
  int64_t in_features_, out_features_;
  bool has_bias_;
  ag::Variable weight_;  // [in, out]
  ag::Variable bias_;    // [out]
  const QuantizedTensor* qweight_ = nullptr;
};

/// LayerNorm over the last dim with learnable gamma/beta.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t dim, float eps = 1e-5f);
  ag::Variable Forward(const ag::Variable& x);
  /// LayerNorm(x + residual) through ag::AddLayerNorm.
  ag::Variable Forward(const ag::Variable& x, const ag::Variable& residual);

 private:
  float eps_;
  ag::Variable gamma_, beta_;
};

/// BatchNorm over all dims but the last (TST-style: stats pooled across batch
/// and time). Tracks running statistics for eval mode.
class BatchNorm1d : public Module {
 public:
  explicit BatchNorm1d(int64_t features, float momentum = 0.1f, float eps = 1e-5f);
  ag::Variable Forward(const ag::Variable& x);

 private:
  float momentum_, eps_;
  ag::Variable gamma_, beta_;
  Tensor running_mean_, running_var_;
};

/// Inverted dropout driven by the module's training flag.
class Dropout : public Module {
 public:
  Dropout(float p, Rng* rng) : p_(p), rng_(rng) {}
  ag::Variable Forward(const ag::Variable& x) {
    return ag::Dropout(x, p_, training(), rng_);
  }

 private:
  float p_;
  Rng* rng_;
};

/// 1-D convolution over [B, T, C] -> [B, n_win, out_channels] implemented as
/// unfold + linear; kernel covers `window` timestamps of all C channels
/// (the paper's "time-aware convolution": one embedding per window, cross-
/// channel correlations learned by the kernel).
class Conv1d : public Module {
 public:
  Conv1d(int64_t in_channels, int64_t out_channels, int64_t window, int64_t stride,
         Rng* rng);

  ag::Variable Forward(const ag::Variable& x);

  /// Number of output windows for an input of length `t`.
  int64_t OutputLength(int64_t t) const { return (t - window_) / stride_ + 1; }
  int64_t window() const { return window_; }
  int64_t stride() const { return stride_; }

 private:
  int64_t window_, stride_;
  Linear proj_;
};

/// Transpose of Conv1d: [B, n_win, in_channels] -> [B, T, out_channels] with
/// T = (n_win - 1) * stride + window by default; overlapping contributions are
/// summed (standard transposed-convolution semantics). An explicit `out_len`
/// >= that value zero-fills the uncovered tail (used when the raw length is
/// not a multiple of the stride).
class ConvTranspose1d : public Module {
 public:
  ConvTranspose1d(int64_t in_channels, int64_t out_channels, int64_t window,
                  int64_t stride, Rng* rng);

  ag::Variable Forward(const ag::Variable& x, int64_t out_len = -1);

  int64_t OutputLength(int64_t n_win) const { return (n_win - 1) * stride_ + window_; }

 private:
  int64_t out_channels_, window_, stride_;
  Linear proj_;
};

/// Learnable positional embedding table [max_len, dim]; Forward(n) returns the
/// first n rows, broadcast-addable to [B, n, dim].
class PositionalEmbedding : public Module {
 public:
  PositionalEmbedding(int64_t max_len, int64_t dim, Rng* rng);
  ag::Variable Forward(int64_t n);
  int64_t max_len() const { return max_len_; }

 private:
  int64_t max_len_;
  ag::Variable table_;
};

/// Transformer position-wise feed-forward: Linear -> GELU -> Dropout -> Linear.
class FeedForward : public Module {
 public:
  FeedForward(int64_t dim, int64_t hidden_dim, float dropout, Rng* rng);
  ag::Variable Forward(const ag::Variable& x);

  /// Projection access for freeze-time weight quantization.
  Linear* fc1() { return &fc1_; }
  Linear* fc2() { return &fc2_; }

 private:
  Linear fc1_, fc2_;
  Dropout drop_;
};

}  // namespace nn
}  // namespace rita

#endif  // RITA_NN_LAYERS_H_
