// Runtime-dispatched CPU kernel layer: every hot inner loop of the tensor /
// attention / grouping stack funnels through one of the primitives below, and
// the implementation is picked once at startup from
//   - kScalar: straight-line reference loops, bit-identical to the historical
//     tensor_ops/group_attention code paths (the correctness anchor every
//     bit-identity CI gate is pinned to), and
//   - kSimd: AVX2+FMA vectorized implementations (x86-64 only; elsewhere the
//     table aliases the scalar one and dispatch reports kScalar).
//
// Selection: RITA_KERNEL_BACKEND=scalar|simd overrides; otherwise the SIMD
// backend is used whenever the CPU supports it. Within one backend every
// primitive is deterministic (no internal threading, fixed reduction order),
// so pool-width invariance and replay bit-identity hold per backend; across
// backends fused/vectorized reductions reorder floats, which is why the CI
// gates compare the SIMD backend under a relative tolerance instead
// (layernorm_rows excepted: it is bitwise equal across backends).
#ifndef RITA_LINALG_KERNELS_KERNELS_H_
#define RITA_LINALG_KERNELS_KERNELS_H_

#include <cstdint>

#include "util/execution_context.h"

namespace rita {
namespace kernels {

enum class Backend { kScalar = 0, kSimd = 1 };

const char* BackendName(Backend backend);

/// Function-pointer table one backend exports. All pointers are non-null.
struct KernelTable {
  /// Fused row softmax: out_r = softmax(scale * in_r) in one streaming
  /// max/exp/sum/normalize pass per row. `weights` (nullable, length `len`)
  /// weights the denominator per column — the group-softmax of RITA Eq. 3,
  /// where weights[j] = |group j|; nullptr is plain softmax. in == out is
  /// allowed (in-place).
  void (*softmax_rows)(const float* in, float* out, int64_t rows, int64_t len,
                       float scale, const float* weights);
  /// Fused softmax backward: dx_r = scale * y_r * (g_r - sum_j y_rj g_rj),
  /// with the row dot accumulated in double (matching ops::Sum).
  void (*softmax_backward_rows)(const float* y, const float* g, float* dx,
                                int64_t rows, int64_t len, float scale);
  /// Fused log-softmax backward: dx_r = g_r - exp(log_y_r) * sum_j g_rj.
  void (*logsoftmax_backward_rows)(const float* log_y, const float* g, float* dx,
                                   int64_t rows, int64_t len);
  /// Rows [r0, r1) of C = op(A) op(B), row-major; m/n are the dims of C and k
  /// the contraction length. Each row of C depends only on its own inputs, so
  /// callers shard over disjoint row ranges freely.
  void (*gemm)(const float* a, const float* b, float* c, int64_t m, int64_t n,
               int64_t k, bool trans_a, bool trans_b, int64_t r0, int64_t r1);
  /// Rows [r0, r1) of C = A W for a frozen bf16 weight [k, n] (widened back
  /// to fp32 in-register). Vector FMA reorders the reduction, so the backends
  /// are tolerance-gated like the fp32 GEMM.
  void (*gemm_bf16)(const float* a, const uint16_t* w, float* c, int64_t m,
                    int64_t n, int64_t k, int64_t r0, int64_t r1);
  /// Rows [r0, r1) of the fp32 Linear C = A W + bias, then GELU when `gelu`:
  /// A [m, k], W [k, n], `bias` [n] or null. Bitwise this backend's gemm
  /// followed by add(row, bias) and gelu_array(row) per row, so callers
  /// shard over disjoint row ranges freely; the SIMD backend applies the
  /// epilogue to each 6-row block right after its GEMM, while it is in L1.
  void (*linear_rows)(const float* a, const float* w, const float* bias, bool gelu,
                      float* c, int64_t m, int64_t n, int64_t k, int64_t r0,
                      int64_t r1);
  // Contiguous transcendental maps (y may alias x).
  void (*exp_array)(const float* x, float* y, int64_t n);
  void (*tanh_array)(const float* x, float* y, int64_t n);
  void (*sigmoid_array)(const float* x, float* y, int64_t n);
  void (*gelu_array)(const float* x, float* y, int64_t n);
  /// y += alpha * x
  void (*axpy)(float* y, const float* x, int64_t n, float alpha);
  /// y *= alpha
  void (*scale)(float* y, int64_t n, float alpha);
  /// y += x (kept separate from axpy so the scalar path stays a bare add)
  void (*add)(float* y, const float* x, int64_t n);
  /// dst += (double)src — the stream overlap-average stitch accumulator.
  void (*accumulate_f64)(double* dst, const float* src, int64_t n);
  /// out[r] = |a_r|^2 for `rows` rows of length d.
  void (*row_sqnorms)(const float* a, float* out, int64_t rows, int64_t d);
  /// d2[i] = |points_i - center|^2.
  void (*sqdist_to_point)(const float* points, const float* center, float* d2,
                          int64_t n, int64_t d);
  /// k-means assignment step, fused: for each of the `n` rows x_i of `points`
  /// [n, d], the nearest of the `m >= 1` rows c_j of `centroids` [m, d] under
  /// max(|x_i|^2 + |c_j|^2 - 2 x_i.c_j, 0) — NaN clamps to 0 — with the
  /// lowest index winning ties. Writes assignment[i] and best_d2[i]; no n x m
  /// distance matrix is built. Rows are independent, so callers shard over
  /// disjoint point ranges freely.
  void (*kmeans_assign)(const float* points, const float* centroids, int64_t n,
                        int64_t m, int64_t d, int64_t* assignment, float* best_d2);
  /// LayerNorm over `rows` rows of length d: v = x + residual (residual
  /// nullable), then y = (v - mean) * inv_std * gamma + beta with
  /// inv_std = 1 / sqrt(var + eps). Mean and variance are sequential
  /// left-to-right float sums per row, and no step is fused, so both backends
  /// give the same bits (the SIMD one runs 8 rows per vector, one row per
  /// lane). `xhat` [rows, d] and `inv_std` [rows] are nullable outputs for a
  /// backward. y may alias x.
  void (*layernorm_rows)(const float* x, const float* residual, const float* gamma,
                         const float* beta, float* y, float* xhat, float* inv_std,
                         int64_t rows, int64_t d, float eps);
};

/// True when the CPU (and build) can run the SIMD backend.
bool SimdAvailable();

/// Backend the active table was dispatched to.
Backend ActiveBackend();

/// The dispatched table. First call resolves RITA_KERNEL_BACKEND / CPUID.
const KernelTable& Active();

/// A specific backend's table (kSimd falls back to scalar when unavailable).
/// For tests and benches that compare backends inside one process.
const KernelTable& Table(Backend backend);

/// Force the active backend (tests / benches only — not thread-safe against
/// in-flight kernel calls). RITA_CHECKs if kSimd is requested but unavailable.
void SetBackendForTesting(Backend backend);

// ---------------------------------------------------------------------------
// Convenience wrappers over Active()
// ---------------------------------------------------------------------------

inline void FusedSoftmaxRows(const float* in, float* out, int64_t rows, int64_t len,
                             float scale = 1.0f, const float* weights = nullptr) {
  Active().softmax_rows(in, out, rows, len, scale, weights);
}
inline void SoftmaxBackwardRows(const float* y, const float* g, float* dx,
                                int64_t rows, int64_t len, float scale = 1.0f) {
  Active().softmax_backward_rows(y, g, dx, rows, len, scale);
}
inline void LogSoftmaxBackwardRows(const float* log_y, const float* g, float* dx,
                                   int64_t rows, int64_t len) {
  Active().logsoftmax_backward_rows(log_y, g, dx, rows, len);
}
inline void GemmRowRange(const float* a, const float* b, float* c, int64_t m,
                         int64_t n, int64_t k, bool trans_a, bool trans_b,
                         int64_t r0, int64_t r1) {
  Active().gemm(a, b, c, m, n, k, trans_a, trans_b, r0, r1);
}

/// The full attention tile chain O = softmax_rows(scale * Q K^T, weights) V,
/// tiled over query rows so the [tile, ng] score block lives in the leased
/// scratch arena instead of a materialized [n, ng] tensor. K and V are
/// [ng, d] row-major (K is used transposed). Row-tiling is exact: every score
/// row is produced by the same per-row kernels as the unfused pipeline, so
/// the scalar backend reproduces the unfused scalar path bit for bit.
void FusedScoreSoftmaxWeightedSum(const float* q, const float* keys,
                                  const float* values, float* out, int64_t n,
                                  int64_t ng, int64_t d, float scale,
                                  const float* weights,
                                  ScratchArena::Lease* scratch);

inline void ExpArray(const float* x, float* y, int64_t n) {
  Active().exp_array(x, y, n);
}
inline void TanhArray(const float* x, float* y, int64_t n) {
  Active().tanh_array(x, y, n);
}
inline void SigmoidArray(const float* x, float* y, int64_t n) {
  Active().sigmoid_array(x, y, n);
}
inline void GeluArray(const float* x, float* y, int64_t n) {
  Active().gelu_array(x, y, n);
}
inline void Axpy(float* y, const float* x, int64_t n, float alpha) {
  Active().axpy(y, x, n, alpha);
}
inline void Scale(float* y, int64_t n, float alpha) { Active().scale(y, n, alpha); }
inline void Add(float* y, const float* x, int64_t n) { Active().add(y, x, n); }
inline void AccumulateF64(double* dst, const float* src, int64_t n) {
  Active().accumulate_f64(dst, src, n);
}
inline void RowSqNorms(const float* a, float* out, int64_t rows, int64_t d) {
  Active().row_sqnorms(a, out, rows, d);
}
inline void SqDistToPoint(const float* points, const float* center, float* d2,
                          int64_t n, int64_t d) {
  Active().sqdist_to_point(points, center, d2, n, d);
}
inline void KMeansAssign(const float* points, const float* centroids, int64_t n,
                         int64_t m, int64_t d, int64_t* assignment, float* best_d2) {
  Active().kmeans_assign(points, centroids, n, m, d, assignment, best_d2);
}

namespace internal {

/// bf16 -> fp32 widening (exact bit shift) shared by both backends' tails.
inline float Bf16Widen(uint16_t v) {
  union {
    uint32_t i;
    float f;
  } u;
  u.i = static_cast<uint32_t>(v) << 16;
  return u.f;
}

/// Backend factories (dispatch.cc wires them into Active()).
const KernelTable* ScalarTable();
/// Null when the build target cannot emit AVX2 (non-x86) — callers must fall
/// back to ScalarTable(); runtime CPU support is checked separately.
const KernelTable* SimdTable();
/// Compile-time + runtime CPU feature probe for the SIMD table.
bool CpuSupportsSimd();
}  // namespace internal

}  // namespace kernels
}  // namespace rita

#endif  // RITA_LINALG_KERNELS_KERNELS_H_
