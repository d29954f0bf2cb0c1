// Raw (non-differentiable) tensor kernels: elementwise arithmetic with numpy
// broadcasting, blocked parallel GEMM, reductions, softmax, shape surgery.
// The autograd layer wraps these with backward rules.
#ifndef RITA_TENSOR_TENSOR_OPS_H_
#define RITA_TENSOR_TENSOR_OPS_H_

#include <functional>
#include <vector>

#include "tensor/tensor.h"

namespace rita {
namespace ops {

// ---------------------------------------------------------------------------
// Broadcasting
// ---------------------------------------------------------------------------

/// Numpy-style broadcast result shape; aborts on incompatible shapes.
Shape BroadcastShape(const Shape& a, const Shape& b);

/// Materialises `a` broadcast to `target` (target must be broadcast-reachable).
Tensor BroadcastTo(const Tensor& a, const Shape& target);

/// Sums `a` over its broadcast dimensions so the result has shape `target`.
/// Inverse of BroadcastTo; used for gradients of broadcast binary ops.
Tensor ReduceToShape(const Tensor& a, const Shape& target);

// ---------------------------------------------------------------------------
// Elementwise binary (broadcasting) and unary
// ---------------------------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);
Tensor PowScalar(const Tensor& a, float exponent);

Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);
/// tanh-approximation GELU (the Transformer default).
Tensor Gelu(const Tensor& a);
Tensor Square(const Tensor& a);

/// y += alpha * x (same shape).
void AxpyInPlace(Tensor* y, const Tensor& x, float alpha);
/// y *= alpha.
void ScaleInPlace(Tensor* y, float alpha);
/// y += x (same shape).
void AddInPlace(Tensor* y, const Tensor& x);

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

/// Work, in multiply-adds, below which a row loop runs on the calling thread.
/// Above it the rows shard across the pool, each shard carrying at least a
/// quarter of it (2^18). Measured with the GEMM row-range kernel on a 4-vCPU
/// AVX2 host (us, serial / 4 shards, median of 3 runs):
///
///   rows  simd 64->64  64->256     256->64     scalar 64->64 64->256      256->64
///   41    6.6 / 22.2   27.5 / 35.4 28.0 / 30.1 24.3 / 33.0   86 / 70      162 / 60
///   251   39.3 / 29.5  192 / 70    167 / 71    195 / 94      540 / 234    645 / 306
///   626   96 / 48      429 / 155   414 / 158   357 / 194     1369 / 713   1587 / 777
///   4016  613 / 180    2895 / 933  2879 / 810  2368 / 1136   9600 / 4071  11574 / 4869
///   8032  1244 / 352   5897 / 1862 6013 / 1824 4829 / 2499   19022 / 8486 32147 / 10442
///
/// On the SIMD backend, which serves, sharding loses up to 672K
/// multiply-adds (41 rows) and wins from 2.56M (626 x 64 x 64); 1.03M
/// (251 x 64 x 64) is the crossover. Re-measured with the 6x16 linear_rows
/// kernel (serial and sharded calls interleaved): 251 x 64 x 64 runs 23.7 us
/// serial vs 32.8 sharded and 626 x 64 x 64 61.5 vs 39.2 in a run where the
/// pool scaled, so the crossover stays between them; most runs on that host
/// showed no pool scaling at all (sharded = serial + 1-20 us at every shape).
constexpr int64_t kRowParallelGrain = int64_t{1} << 20;

/// Runs body(r0, r1) over [0, rows) in disjoint row ranges: on the calling
/// thread when rows * macs_per_row < kRowParallelGrain, otherwise sharded
/// through ExecutionContext::Default()->ParallelFor (so the caller's grad
/// mode and trace id reach every shard). A body whose rows are independent
/// gives the same bits at any pool width.
void ParallelRows(int64_t rows, int64_t macs_per_row,
                  const std::function<void(int64_t, int64_t)>& body);

/// C = op(A) * op(B) for row-major 2-D buffers; op is optional transpose.
/// Overwrites C. m/n are the dims of C; k the contraction length.
void Gemm2D(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
            bool trans_a, bool trans_b, bool parallel = true);

/// 2-D matrix multiply with optional transposes.
Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a = false, bool trans_b = false);

/// Batched matmul: a is [B, m, k] (or [B, k, m] if trans_a); b is matching 3-D
/// or a shared 2-D matrix. Batch dims must match exactly.
Tensor Bmm(const Tensor& a, const Tensor& b, bool trans_a = false, bool trans_b = false);

// ---------------------------------------------------------------------------
// Reductions / softmax
// ---------------------------------------------------------------------------

/// Sum of all elements, returned as shape {1}.
Tensor SumAll(const Tensor& a);
/// Sum along `axis` (negative allowed) with optional kept dim.
Tensor Sum(const Tensor& a, int64_t axis, bool keepdim);
Tensor Mean(const Tensor& a, int64_t axis, bool keepdim);
/// Row-wise max over the last dim, shape [..., 1].
Tensor MaxLastDim(const Tensor& a);
/// Index of the max along the last dim, as a float tensor of shape [...].
Tensor ArgMaxLastDim(const Tensor& a);
/// Numerically stable softmax over the last dim.
Tensor SoftmaxLastDim(const Tensor& a);

// ---------------------------------------------------------------------------
// Shape surgery
// ---------------------------------------------------------------------------

/// Swaps the last two dims (copy). Works for dim >= 2 with leading batch dims.
Tensor TransposeLast2(const Tensor& a);
/// General dimension permutation (copy): out[idx] = a[idx o perm], e.g.
/// perm {0,2,1,3} maps [B, n, H, d] -> [B, H, n, d].
Tensor Permute(const Tensor& a, const std::vector<int64_t>& perm);
/// Concatenates along `axis`; all other dims must match.
Tensor Concat(const std::vector<Tensor>& parts, int64_t axis);
/// Contiguous slice [start, start+len) along `axis`.
Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t len);

/// out[i, :] = a[rows[i], :] for a 2-D `a`.
Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& rows);
/// acc[rows[i], :] += a[i, :] for 2-D tensors (acc modified in place).
void ScatterAddRows(const Tensor& a, const std::vector<int64_t>& rows, Tensor* acc);

}  // namespace ops
}  // namespace rita

#endif  // RITA_TENSOR_TENSOR_OPS_H_
