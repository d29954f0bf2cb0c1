// Differentiable operations over Variables. Every function records a backward
// node when grad mode is enabled; raw kernels live in tensor/tensor_ops.h.
#ifndef RITA_AUTOGRAD_OPS_H_
#define RITA_AUTOGRAD_OPS_H_

#include <cstdint>
#include <vector>

#include "autograd/variable.h"
#include "util/rng.h"

namespace rita {
namespace ag {

// -- Arithmetic (numpy broadcasting, grads reduced back to input shapes) ----
Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
Variable Div(const Variable& a, const Variable& b);
Variable Neg(const Variable& a);
Variable AddScalar(const Variable& a, float s);
Variable MulScalar(const Variable& a, float s);

// -- Unary ------------------------------------------------------------------
Variable Exp(const Variable& a);
Variable Log(const Variable& a);
Variable Sqrt(const Variable& a);
Variable Square(const Variable& a);
Variable Tanh(const Variable& a);
Variable Sigmoid(const Variable& a);
Variable Relu(const Variable& a);
Variable Gelu(const Variable& a);

// -- Linear algebra ----------------------------------------------------------
/// 2-D matmul with optional transposes.
Variable MatMul(const Variable& a, const Variable& b, bool trans_a = false,
                bool trans_b = false);
/// Records the backward node of y = x W (+ b) over x's last dim for an output
/// the caller already computed (nn::Linear's row loop): dx and dW through the
/// ops::MatMul pair, db through ops::ReduceToShape. `bias` may be undefined.
/// No-op with grad mode off or when nothing upstream needs a gradient.
void ConnectLinear(const Variable& x, const Variable& weight, const Variable& bias,
                   Variable* out);
/// Batched 3-D matmul; `b` may be a shared 2-D matrix.
Variable Bmm(const Variable& a, const Variable& b, bool trans_a = false,
             bool trans_b = false);

// -- Reductions ----------------------------------------------------------------
Variable SumAll(const Variable& a);
Variable MeanAll(const Variable& a);
Variable Sum(const Variable& a, int64_t axis, bool keepdim);
Variable Mean(const Variable& a, int64_t axis, bool keepdim);

// -- Shape ---------------------------------------------------------------------
Variable Reshape(const Variable& a, Shape shape);
Variable TransposeLast2(const Variable& a);
/// General dimension permutation, e.g. {0,2,1,3} for head splitting.
Variable Permute(const Variable& a, std::vector<int64_t> perm);
Variable Concat(const std::vector<Variable>& parts, int64_t axis);
Variable Slice(const Variable& a, int64_t axis, int64_t start, int64_t len);

// -- Softmax family ---------------------------------------------------------
Variable SoftmaxLastDim(const Variable& a);
/// softmax(scale * a) fused into one streaming pass per row — equivalent to
/// SoftmaxLastDim(MulScalar(a, scale)) without materializing the scaled
/// scores (the attention score path).
Variable SoftmaxLastDimScaled(const Variable& a, float scale);
Variable LogSoftmaxLastDim(const Variable& a);

// -- Regularisation / normalisation -------------------------------------------
/// Inverted dropout; identity when !training or p == 0.
Variable Dropout(const Variable& a, float p, bool training, Rng* rng);
/// Applies a caller-built inverted-dropout mask (same shape as `a`) with the
/// single-input dropout backward (g * mask). For callers that generate the
/// mask themselves — e.g. attention's per-slice counter-based parallel masks.
Variable DropoutWithMask(const Variable& a, Tensor mask);
/// Fused layer norm over the last dim. gamma/beta shape = {last_dim}.
Variable LayerNorm(const Variable& x, const Variable& gamma, const Variable& beta,
                   float eps = 1e-5f);
/// LayerNorm(x + residual) for same-shape x and residual. Grad mode composes
/// Add and LayerNorm; a grad-free forward adds the residual inside the row
/// kernel, bitwise the same as the composition, with no sum tensor.
Variable AddLayerNorm(const Variable& x, const Variable& residual, const Variable& gamma,
                      const Variable& beta, float eps = 1e-5f);
/// Fused batch norm over every dim except the last (feature) dim. In training
/// mode updates running stats in place and normalises with batch stats.
Variable BatchNorm(const Variable& x, const Variable& gamma, const Variable& beta,
                   Tensor* running_mean, Tensor* running_var, bool training,
                   float momentum = 0.1f, float eps = 1e-5f);

// -- Sequence unfold/fold (conv building blocks) ------------------------------
/// Extracts sliding patches: [B, T, C] -> [B, n_win, w*C] where
/// n_win = (T - w) / stride + 1.
Variable Unfold1d(const Variable& x, int64_t window, int64_t stride);
/// Adjoint of Unfold1d: sums patches back into [B, T, C].
Variable Fold1d(const Variable& x, int64_t out_len, int64_t channels, int64_t window,
                int64_t stride);

// -- Losses --------------------------------------------------------------------
/// Mean cross entropy over the batch from raw logits [B, C].
Variable CrossEntropy(const Variable& logits, const std::vector<int64_t>& labels);
/// Masked MSE: sum(mask * (pred - target)^2) / max(1, sum(mask)).
/// `mask` and `target` are constants (no grad).
Variable MaskedMse(const Variable& pred, const Tensor& target, const Tensor& mask);

}  // namespace ag
}  // namespace rita

#endif  // RITA_AUTOGRAD_OPS_H_
