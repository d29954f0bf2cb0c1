// AVX2+FMA backend. This TU is the only one compiled with -mavx2 -mfma (see
// CMakeLists); everything else in the library stays at the baseline ISA so
// the scalar backend can never silently pick up FMA contraction. On non-x86
// builds the table factory returns null and dispatch stays on scalar.
//
// Numerics: vectorized reductions (horizontal sums, 4-way dot accumulators)
// reorder float additions, and exp/tanh/sigmoid/gelu use polynomial
// approximations (Cephes-derived, a few ULP from libm). This backend is
// therefore gated by relative-tolerance checks, not bit-identity; within the
// backend every kernel is a pure deterministic function of its inputs. The
// exception is layernorm_rows, which keeps the scalar loop's sequential sums
// (one row per lane) and so equals the scalar backend bit for bit.
#include "linalg/kernels/kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace rita {
namespace kernels {
namespace {

// ---------------------------------------------------------------------------
// Vector math: fast exp / tanh and friends
// ---------------------------------------------------------------------------

// exp(x) via Cody-Waite range reduction + degree-6 polynomial (Cephes
// coefficients): ~2 ULP over the finite range, exact at 0, flushes true
// underflow (x < -87.34, including -inf) to 0 instead of returning denormals.
// NaN stays NaN: max_ps/min_ps return their second operand when either is
// NaN, so the clamp puts x second.
inline __m256 Exp8(__m256 x) {
  const __m256 kLog2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 kLn2Hi = _mm256_set1_ps(0.693359375f);
  const __m256 kLn2Lo = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 kMaxX = _mm256_set1_ps(88.3762626647950f);
  const __m256 kMinX = _mm256_set1_ps(-87.3365478515625f);

  const __m256 clamped = _mm256_min_ps(kMaxX, _mm256_max_ps(kMinX, x));
  const __m256 m = _mm256_round_ps(_mm256_mul_ps(clamped, kLog2e),
                                   _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(m, kLn2Hi, clamped);
  r = _mm256_fnmadd_ps(m, kLn2Lo, r);

  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1f));
  const __m256 r2 = _mm256_mul_ps(r, r);
  p = _mm256_fmadd_ps(p, r2, _mm256_add_ps(r, _mm256_set1_ps(1.0f)));

  const __m256i mi = _mm256_cvtps_epi32(m);
  const __m256i pow2 =
      _mm256_slli_epi32(_mm256_add_epi32(mi, _mm256_set1_epi32(127)), 23);
  __m256 result = _mm256_mul_ps(p, _mm256_castsi256_ps(pow2));
  // True underflow (and -inf) -> exactly 0.
  const __m256 under = _mm256_cmp_ps(x, kMinX, _CMP_LT_OQ);
  return _mm256_andnot_ps(under, result);
}

// Scalar replica of Exp8 (same constants, fmaf mirrors the vector FMAs) for
// loop tails, so a value gets the same result whether it lands in a vector
// lane or the remainder. NaN returns early, as NaN, like a vector lane, so
// the int conversion below never sees it.
inline float Exp1(float x) {
  if (std::isnan(x)) return x;
  const float lo = x > -87.3365478515625f ? x : -87.3365478515625f;
  const float clamped = lo < 88.3762626647950f ? lo : 88.3762626647950f;
  const float m = std::nearbyintf(clamped * 1.44269504088896341f);
  float r = std::fmaf(m, -0.693359375f, clamped);
  r = std::fmaf(m, 2.12194440e-4f, r);
  float p = 1.9875691500e-4f;
  p = std::fmaf(p, r, 1.3981999507e-3f);
  p = std::fmaf(p, r, 8.3334519073e-3f);
  p = std::fmaf(p, r, 4.1665795894e-2f);
  p = std::fmaf(p, r, 1.6666665459e-1f);
  p = std::fmaf(p, r, 5.0000001201e-1f);
  p = std::fmaf(p, r * r, r + 1.0f);
  union {
    int32_t i;
    float f;
  } pow2;
  pow2.i = (static_cast<int32_t>(m) + 127) << 23;
  const float result = p * pow2.f;
  return x < -87.3365478515625f ? 0.0f : result;
}

// tanh via Cephes: odd polynomial for |x| < 0.625, exp-based tail otherwise.
inline __m256 Tanh8(__m256 x) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  const __m256 sign = _mm256_and_ps(x, sign_mask);
  const __m256 z = _mm256_andnot_ps(sign_mask, x);

  // Small branch: tanh(x) = x + x^3 P(x^2).
  const __m256 s = _mm256_mul_ps(x, x);
  __m256 p = _mm256_set1_ps(-5.70498872745e-3f);
  p = _mm256_fmadd_ps(p, s, _mm256_set1_ps(2.06390887954e-2f));
  p = _mm256_fmadd_ps(p, s, _mm256_set1_ps(-5.37397155531e-2f));
  p = _mm256_fmadd_ps(p, s, _mm256_set1_ps(1.33314422036e-1f));
  p = _mm256_fmadd_ps(p, s, _mm256_set1_ps(-3.33332819422e-1f));
  const __m256 small = _mm256_fmadd_ps(_mm256_mul_ps(x, s), p, x);

  // Large branch: 1 - 2/(exp(2|x|)+1), sign restored.
  const __m256 e2z = Exp8(_mm256_add_ps(z, z));
  const __m256 big = _mm256_sub_ps(
      _mm256_set1_ps(1.0f),
      _mm256_div_ps(_mm256_set1_ps(2.0f),
                    _mm256_add_ps(e2z, _mm256_set1_ps(1.0f))));
  const __m256 big_signed = _mm256_or_ps(big, sign);

  const __m256 use_small = _mm256_cmp_ps(z, _mm256_set1_ps(0.625f), _CMP_LT_OQ);
  return _mm256_blendv_ps(big_signed, small, use_small);
}

inline float Tanh1(float x) {
  const float z = std::fabs(x);
  if (z < 0.625f) {
    const float s = x * x;
    float p = -5.70498872745e-3f;
    p = std::fmaf(p, s, 2.06390887954e-2f);
    p = std::fmaf(p, s, -5.37397155531e-2f);
    p = std::fmaf(p, s, 1.33314422036e-1f);
    p = std::fmaf(p, s, -3.33332819422e-1f);
    return std::fmaf(x * s, p, x);
  }
  const float big = 1.0f - 2.0f / (Exp1(z + z) + 1.0f);
  return x < 0.0f ? -big : big;
}

inline __m256 Sigmoid8(__m256 x) {
  const __m256 e = Exp8(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(_mm256_set1_ps(1.0f),
                       _mm256_add_ps(_mm256_set1_ps(1.0f), e));
}
inline float Sigmoid1(float x) { return 1.0f / (1.0f + Exp1(-x)); }

inline __m256 Gelu8(__m256 x) {
  const __m256 kC = _mm256_set1_ps(0.7978845608f);  // sqrt(2/pi)
  const __m256 kA = _mm256_set1_ps(0.044715f);
  const __m256 x2 = _mm256_mul_ps(x, x);
  const __m256 inner =
      _mm256_mul_ps(kC, _mm256_fmadd_ps(_mm256_mul_ps(kA, x2), x, x));
  const __m256 t = Tanh8(inner);
  return _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5f), x),
                       _mm256_add_ps(_mm256_set1_ps(1.0f), t));
}
// Term for term Gelu8: kA * (x * x), not (kA * x) * x, so a value gets the
// same result in a vector lane and in the loop tail.
inline float Gelu1(float x) {
  constexpr float kC = 0.7978845608f;
  constexpr float kA = 0.044715f;
  const float x2 = x * x;
  const float inner = kC * std::fmaf(kA * x2, x, x);
  return (0.5f * x) * (1.0f + Tanh1(inner));
}

inline float HorizontalSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

inline float HorizontalMax(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_max_ps(lo, hi);
  s = _mm_max_ps(s, _mm_movehl_ps(s, s));
  s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

// ---------------------------------------------------------------------------
// Fused softmax
// ---------------------------------------------------------------------------

void SoftmaxRowsAvx2(const float* in, float* out, int64_t rows, int64_t len,
                     float scale, const float* weights) {
  const __m256 vscale = _mm256_set1_ps(scale);
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = in + r * len;
    float* orow = out + r * len;

    // Streaming max of scale * x.
    float mx;
    int64_t j = 0;
    if (len >= 8) {
      __m256 vmax = _mm256_mul_ps(_mm256_loadu_ps(row), vscale);
      for (j = 8; j + 8 <= len; j += 8) {
        vmax = _mm256_max_ps(vmax, _mm256_mul_ps(_mm256_loadu_ps(row + j), vscale));
      }
      mx = HorizontalMax(vmax);
    } else {
      mx = row[0] * scale;
      j = 1;
    }
    for (; j < len; ++j) mx = std::max(mx, row[j] * scale);

    // exp(scale * x - mx), storing the weights-weighted denominator on the fly.
    const __m256 vmx = _mm256_set1_ps(mx);
    __m256 vsum = _mm256_setzero_ps();
    float tail_sum = 0.0f;
    for (j = 0; j + 8 <= len; j += 8) {
      const __m256 e = Exp8(_mm256_fmsub_ps(_mm256_loadu_ps(row + j), vscale, vmx));
      _mm256_storeu_ps(orow + j, e);
      if (weights != nullptr) {
        vsum = _mm256_fmadd_ps(_mm256_loadu_ps(weights + j), e, vsum);
      } else {
        vsum = _mm256_add_ps(vsum, e);
      }
    }
    for (; j < len; ++j) {
      const float e = Exp1(std::fmaf(row[j], scale, -mx));
      orow[j] = e;
      tail_sum += weights != nullptr ? weights[j] * e : e;
    }
    const float denom = HorizontalSum(vsum) + tail_sum;

    const float inv = 1.0f / denom;
    const __m256 vinv = _mm256_set1_ps(inv);
    for (j = 0; j + 8 <= len; j += 8) {
      _mm256_storeu_ps(orow + j, _mm256_mul_ps(_mm256_loadu_ps(orow + j), vinv));
    }
    for (; j < len; ++j) orow[j] *= inv;
  }
}

void SoftmaxBackwardRowsAvx2(const float* y, const float* g, float* dx,
                             int64_t rows, int64_t len, float scale) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* yrow = y + r * len;
    const float* grow = g + r * len;
    float* drow = dx + r * len;
    // Row dot in 4 double lanes (deterministic fixed order).
    __m256d acc = _mm256_setzero_pd();
    int64_t j = 0;
    for (; j + 4 <= len; j += 4) {
      const __m128 yv = _mm_loadu_ps(yrow + j);
      const __m128 gv = _mm_loadu_ps(grow + j);
      acc = _mm256_add_pd(acc, _mm256_cvtps_pd(_mm_mul_ps(gv, yv)));
    }
    double tail = 0.0;
    for (; j < len; ++j) tail += static_cast<double>(grow[j] * yrow[j]);
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    const float t =
        static_cast<float>(((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail);

    const __m256 vt = _mm256_set1_ps(t);
    const __m256 vscale = _mm256_set1_ps(scale);
    for (j = 0; j + 8 <= len; j += 8) {
      const __m256 d = _mm256_mul_ps(_mm256_loadu_ps(yrow + j),
                                     _mm256_sub_ps(_mm256_loadu_ps(grow + j), vt));
      _mm256_storeu_ps(drow + j, _mm256_mul_ps(d, vscale));
    }
    for (; j < len; ++j) drow[j] = yrow[j] * (grow[j] - t) * scale;
  }
}

void LogSoftmaxBackwardRowsAvx2(const float* log_y, const float* g, float* dx,
                                int64_t rows, int64_t len) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* lrow = log_y + r * len;
    const float* grow = g + r * len;
    float* drow = dx + r * len;
    __m256d acc = _mm256_setzero_pd();
    int64_t j = 0;
    for (; j + 4 <= len; j += 4) {
      acc = _mm256_add_pd(acc, _mm256_cvtps_pd(_mm_loadu_ps(grow + j)));
    }
    double tail = 0.0;
    for (; j < len; ++j) tail += static_cast<double>(grow[j]);
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    const float t =
        static_cast<float>(((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail);

    const __m256 vt = _mm256_set1_ps(t);
    for (j = 0; j + 8 <= len; j += 8) {
      const __m256 probs = Exp8(_mm256_loadu_ps(lrow + j));
      _mm256_storeu_ps(drow + j,
                       _mm256_fnmadd_ps(probs, vt, _mm256_loadu_ps(grow + j)));
    }
    for (; j < len; ++j) drow[j] = grow[j] - Exp1(lrow[j]) * t;
  }
}

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

// B loads for the micro-kernels: fp32 as is; bf16 (u16) widened to fp32
// in-register, which is exact, so only the FMA reduction order separates
// this backend from the scalar bf16 kernel.
inline __m256 LoadB8(const float* p) { return _mm256_loadu_ps(p); }
inline __m256 LoadB8(const uint16_t* p) {
  const __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  return _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_cvtepu16_epi32(raw), 16));
}

// kRows x 16 register tile of C = op(A) B (kRows <= 6), shared by the NN,
// TN, packed-NT and bf16 cases (they differ only in how A is strided and B
// is loaded): B is streamed row by row, so the B panel [k, 16] is the only
// cache-resident working set, and each B load feeds kRows FMAs. Every C
// element is one kk-ascending FMA chain whatever kRows is, so tile shapes
// never change bits. The accumulators are named locals rather than an array
// indexed in a loop: GCC keeps an array in registers only once -O3 fully
// unrolls that loop, and at -O2 it stores all of them to the stack on every
// k step. 6 rows use 12 accumulators + 2 B vectors + 1 broadcast = 15 ymm.
template <int kRows, typename BT>
inline void MicroKernelNx16(const float* a, int64_t a_row_stride,
                            int64_t a_k_stride, const BT* b, int64_t ldb, float* c,
                            int64_t ldc, int64_t k) {
  static_assert(kRows >= 1 && kRows <= 6, "tile rows");
  __m256 c00 = _mm256_setzero_ps(), c01 = c00, c10 = c00, c11 = c00, c20 = c00,
         c21 = c00, c30 = c00, c31 = c00, c40 = c00, c41 = c00, c50 = c00, c51 = c00;
  for (int64_t kk = 0; kk < k; ++kk) {
    const BT* brow = b + kk * ldb;
    const __m256 b0 = LoadB8(brow);
    const __m256 b1 = LoadB8(brow + 8);
    const float* ak = a + kk * a_k_stride;
    __m256 av = _mm256_set1_ps(ak[0]);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    if constexpr (kRows > 1) {
      av = _mm256_set1_ps(ak[a_row_stride]);
      c10 = _mm256_fmadd_ps(av, b0, c10);
      c11 = _mm256_fmadd_ps(av, b1, c11);
    }
    if constexpr (kRows > 2) {
      av = _mm256_set1_ps(ak[2 * a_row_stride]);
      c20 = _mm256_fmadd_ps(av, b0, c20);
      c21 = _mm256_fmadd_ps(av, b1, c21);
    }
    if constexpr (kRows > 3) {
      av = _mm256_set1_ps(ak[3 * a_row_stride]);
      c30 = _mm256_fmadd_ps(av, b0, c30);
      c31 = _mm256_fmadd_ps(av, b1, c31);
    }
    if constexpr (kRows > 4) {
      av = _mm256_set1_ps(ak[4 * a_row_stride]);
      c40 = _mm256_fmadd_ps(av, b0, c40);
      c41 = _mm256_fmadd_ps(av, b1, c41);
    }
    if constexpr (kRows > 5) {
      av = _mm256_set1_ps(ak[5 * a_row_stride]);
      c50 = _mm256_fmadd_ps(av, b0, c50);
      c51 = _mm256_fmadd_ps(av, b1, c51);
    }
  }
  _mm256_storeu_ps(c, c00);
  _mm256_storeu_ps(c + 8, c01);
  if constexpr (kRows > 1) {
    _mm256_storeu_ps(c + ldc, c10);
    _mm256_storeu_ps(c + ldc + 8, c11);
  }
  if constexpr (kRows > 2) {
    _mm256_storeu_ps(c + 2 * ldc, c20);
    _mm256_storeu_ps(c + 2 * ldc + 8, c21);
  }
  if constexpr (kRows > 3) {
    _mm256_storeu_ps(c + 3 * ldc, c30);
    _mm256_storeu_ps(c + 3 * ldc + 8, c31);
  }
  if constexpr (kRows > 4) {
    _mm256_storeu_ps(c + 4 * ldc, c40);
    _mm256_storeu_ps(c + 4 * ldc + 8, c41);
  }
  if constexpr (kRows > 5) {
    _mm256_storeu_ps(c + 5 * ldc, c50);
    _mm256_storeu_ps(c + 5 * ldc + 8, c51);
  }
}

// The 8-column sibling of MicroKernelNx16 (kRows <= 6), for n's 8-wide tail.
template <int kRows>
inline void MicroKernelNx8(const float* a, int64_t a_row_stride, int64_t a_k_stride,
                           const float* b, int64_t ldb, float* c, int64_t ldc,
                           int64_t k) {
  static_assert(kRows >= 1 && kRows <= 6, "tile rows");
  __m256 c0 = _mm256_setzero_ps(), c1 = c0, c2 = c0, c3 = c0, c4 = c0, c5 = c0;
  for (int64_t kk = 0; kk < k; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(b + kk * ldb);
    const float* ak = a + kk * a_k_stride;
    c0 = _mm256_fmadd_ps(_mm256_set1_ps(ak[0]), b0, c0);
    if constexpr (kRows > 1) c1 = _mm256_fmadd_ps(_mm256_set1_ps(ak[a_row_stride]), b0, c1);
    if constexpr (kRows > 2) {
      c2 = _mm256_fmadd_ps(_mm256_set1_ps(ak[2 * a_row_stride]), b0, c2);
    }
    if constexpr (kRows > 3) {
      c3 = _mm256_fmadd_ps(_mm256_set1_ps(ak[3 * a_row_stride]), b0, c3);
    }
    if constexpr (kRows > 4) {
      c4 = _mm256_fmadd_ps(_mm256_set1_ps(ak[4 * a_row_stride]), b0, c4);
    }
    if constexpr (kRows > 5) {
      c5 = _mm256_fmadd_ps(_mm256_set1_ps(ak[5 * a_row_stride]), b0, c5);
    }
  }
  _mm256_storeu_ps(c, c0);
  if constexpr (kRows > 1) _mm256_storeu_ps(c + ldc, c1);
  if constexpr (kRows > 2) _mm256_storeu_ps(c + 2 * ldc, c2);
  if constexpr (kRows > 3) _mm256_storeu_ps(c + 3 * ldc, c3);
  if constexpr (kRows > 4) _mm256_storeu_ps(c + 4 * ldc, c4);
  if constexpr (kRows > 5) _mm256_storeu_ps(c + 5 * ldc, c5);
}

// kRows rows of C for the B-not-transposed cases: 16-wide tiles, then an
// 8-wide one, then per-element kk-ascending fmaf chains for n % 8 (the lane
// arithmetic of the tiles).
template <int kRows>
inline void RowBlockBNotTransposed(const float* arow, int64_t a_row_stride,
                                   int64_t a_k_stride, const float* b, float* crow,
                                   int64_t n, int64_t k) {
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    MicroKernelNx16<kRows>(arow, a_row_stride, a_k_stride, b + j, n, crow + j, n, k);
  }
  for (; j + 8 <= n; j += 8) {
    MicroKernelNx8<kRows>(arow, a_row_stride, a_k_stride, b + j, n, crow + j, n, k);
  }
  for (; j < n; ++j) {
    for (int ii = 0; ii < kRows; ++ii) {
      const float* ai = arow + ii * a_row_stride;
      float s = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) s = std::fmaf(ai[kk * a_k_stride], b[kk * n + j], s);
      crow[ii * n + j] = s;
    }
  }
}

// C rows [r0, r1) for the B-not-transposed cases (NN and TN) in 6-row
// blocks; a remainder of 4 or more rows takes one 4-row block, the rest go
// one row at a time. a_row_stride / a_k_stride express op(A): NN is (k, 1),
// TN is (1, m).
void GemmBNotTransposed(const float* a, int64_t a_row_stride, int64_t a_k_stride,
                        const float* b, float* c, int64_t n, int64_t k, int64_t r0,
                        int64_t r1) {
  int64_t i = r0;
  for (; i + 6 <= r1; i += 6) {
    RowBlockBNotTransposed<6>(a + i * a_row_stride, a_row_stride, a_k_stride, b,
                              c + i * n, n, k);
  }
  if (i + 4 <= r1) {
    RowBlockBNotTransposed<4>(a + i * a_row_stride, a_row_stride, a_k_stride, b,
                              c + i * n, n, k);
    i += 4;
  }
  for (; i < r1; ++i) {
    RowBlockBNotTransposed<1>(a + i * a_row_stride, a_row_stride, a_k_stride, b,
                              c + i * n, n, k);
  }
}

// Packs B [n, k] (row-major, used transposed) into ceil(n/16) panels of
// [k][16] — panel p holds columns 16p..16p+15 of op(B), zero-padded past n —
// so the NN micro-kernel can stream B^T row by row. The buffer is reused
// per thread; callers never nest two packs.
const float* PackTransposedPanels(const float* b, int64_t n, int64_t k,
                                  std::vector<float>* buf) {
  const int64_t panels = (n + 15) / 16;
  buf->resize(panels * k * 16);
  float* out = buf->data();
  for (int64_t p = 0; p < panels; ++p) {
    float* panel = out + p * k * 16;
    const int64_t cols = std::min<int64_t>(16, n - p * 16);
    for (int64_t jj = 0; jj < cols; ++jj) {
      const float* brow = b + (p * 16 + jj) * k;
      for (int64_t kk = 0; kk < k; ++kk) panel[kk * 16 + jj] = brow[kk];
    }
    for (int64_t jj = cols; jj < 16; ++jj) {
      for (int64_t kk = 0; kk < k; ++kk) panel[kk * 16 + jj] = 0.0f;
    }
  }
  return out;
}

// kRows rows of C = A B^T from packed panels. The last, padded panel goes
// through a stack tile so the stores stay inside C's n columns.
template <int kRows>
inline void PackedRowsNT(const float* arow, const float* packed, float* crow,
                         int64_t n, int64_t k) {
  int64_t p = 0;
  for (; (p + 1) * 16 <= n; ++p) {
    MicroKernelNx16<kRows>(arow, k, 1, packed + p * k * 16, 16, crow + p * 16, n, k);
  }
  const int64_t cols = n - p * 16;
  if (cols == 0) return;
  float tile[kRows * 16];
  MicroKernelNx16<kRows>(arow, k, 1, packed + p * k * 16, 16, tile, 16, k);
  for (int i = 0; i < kRows; ++i) {
    std::copy(tile + i * 16, tile + i * 16 + cols, crow + i * n + p * 16);
  }
}

// NT case: C[i,j] = dot(A_i, B_j). B is packed into 16-column panels of B^T
// once per call, then 4x16 register tiles run the same kk-ascending FMA chain
// as the NN kernel — no horizontal sum per output element. Every element's
// arithmetic is independent of the row range and of its column position, so
// row-sharded and row-tiled callers get the same bits.
void GemmNT(const float* a, const float* b, float* c, int64_t n, int64_t k,
            int64_t r0, int64_t r1) {
  thread_local std::vector<float> buf;
  const float* packed = PackTransposedPanels(b, n, k, &buf);
  int64_t i = r0;
  for (; i + 4 <= r1; i += 4) PackedRowsNT<4>(a + i * k, packed, c + i * n, n, k);
  switch (r1 - i) {
    case 3:
      PackedRowsNT<3>(a + i * k, packed, c + i * n, n, k);
      break;
    case 2:
      PackedRowsNT<2>(a + i * k, packed, c + i * n, n, k);
      break;
    case 1:
      PackedRowsNT<1>(a + i * k, packed, c + i * n, n, k);
      break;
    default:
      break;
  }
}

void GemmAvx2(const float* a, const float* b, float* c, int64_t m, int64_t n,
              int64_t k, bool trans_a, bool trans_b, int64_t r0, int64_t r1) {
  if (!trans_b) {
    if (!trans_a) {
      GemmBNotTransposed(a, /*a_row_stride=*/k, /*a_k_stride=*/1, b, c, n, k, r0, r1);
    } else {
      GemmBNotTransposed(a, /*a_row_stride=*/1, /*a_k_stride=*/m, b, c, n, k, r0, r1);
    }
    return;
  }
  if (!trans_a) {
    GemmNT(a, b, c, n, k, r0, r1);
    return;
  }
  // TT is rare (tests only): defer to the scalar reference.
  internal::ScalarTable()->gemm(a, b, c, m, n, k, trans_a, trans_b, r0, r1);
}

// ---------------------------------------------------------------------------
// bf16 GEMM
// ---------------------------------------------------------------------------

// The bf16 weight runs the fp32 micro-kernel with in-register widening.
void GemmBf16Avx2(const float* a, const uint16_t* w, float* c, int64_t m,
                  int64_t n, int64_t k, int64_t r0, int64_t r1) {
  (void)m;
  int64_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
      MicroKernelNx16<4>(arow, k, 1, w + j, n, crow + j, n, k);
    }
    for (; j < n; ++j) {
      for (int ii = 0; ii < 4; ++ii) {
        const float* ai = arow + ii * k;
        float s = 0.0f;
        for (int64_t kk = 0; kk < k; ++kk) {
          s = std::fmaf(ai[kk], internal::Bf16Widen(w[kk * n + j]), s);
        }
        crow[ii * n + j] = s;
      }
    }
  }
  for (; i < r1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
      MicroKernelNx16<1>(arow, k, 1, w + j, n, crow + j, n, k);
    }
    for (; j < n; ++j) {
      float s = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        s = std::fmaf(arow[kk], internal::Bf16Widen(w[kk * n + j]), s);
      }
      crow[j] = s;
    }
  }
}

// ---------------------------------------------------------------------------
// Elementwise
// ---------------------------------------------------------------------------

template <__m256 (*VecF)(__m256), float (*ScalarF)(float)>
void MapArray(const float* x, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(y + i, VecF(_mm256_loadu_ps(x + i)));
  for (; i < n; ++i) y[i] = ScalarF(x[i]);
}

void ExpArrayAvx2(const float* x, float* y, int64_t n) { MapArray<Exp8, Exp1>(x, y, n); }
void TanhArrayAvx2(const float* x, float* y, int64_t n) {
  MapArray<Tanh8, Tanh1>(x, y, n);
}
void SigmoidArrayAvx2(const float* x, float* y, int64_t n) {
  MapArray<Sigmoid8, Sigmoid1>(x, y, n);
}
void GeluArrayAvx2(const float* x, float* y, int64_t n) {
  MapArray<Gelu8, Gelu1>(x, y, n);
}

void AxpyAvx2(float* y, const float* x, int64_t n, float alpha) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i,
                     _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fmaf(alpha, x[i], y[i]);
}

void ScaleAvx2(float* y, int64_t n, float alpha) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(va, _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] *= alpha;
}

void AddAvx2(float* y, const float* x, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void AccumulateF64Avx2(double* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d s = _mm256_cvtps_pd(_mm_loadu_ps(src + i));
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i), s));
  }
  for (; i < n; ++i) dst[i] += static_cast<double>(src[i]);
}

// The Linear epilogue runs per 6-row block (one GEMM tile's height) right
// after that block's GEMM, while its rows are still in L1. It is the
// backend's own add and gelu_array, so the result is the gemm -> add ->
// gelu composition bit for bit, without a second pass over C.
void LinearRowsAvx2(const float* a, const float* w, const float* bias, bool gelu,
                    float* c, int64_t m, int64_t n, int64_t k, int64_t r0, int64_t r1) {
  (void)m;
  for (int64_t i = r0; i < r1; i += 6) {
    const int64_t i1 = std::min(r1, i + 6);
    GemmBNotTransposed(a, /*a_row_stride=*/k, /*a_k_stride=*/1, w, c, n, k, i, i1);
    for (int64_t r = i; r < i1; ++r) {
      float* row = c + r * n;
      if (bias != nullptr) AddAvx2(row, bias, n);
      if (gelu) GeluArrayAvx2(row, row, n);
    }
  }
}

void RowSqNormsAvx2(const float* a, float* out, int64_t rows, int64_t d) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = a + r * d;
    __m256 acc = _mm256_setzero_ps();
    int64_t j = 0;
    for (; j + 8 <= d; j += 8) {
      const __m256 v = _mm256_loadu_ps(row + j);
      acc = _mm256_fmadd_ps(v, v, acc);
    }
    float s = HorizontalSum(acc);
    for (; j < d; ++j) s = std::fmaf(row[j], row[j], s);
    out[r] = s;
  }
}

void SqDistToPointAvx2(const float* points, const float* center, float* d2,
                       int64_t n, int64_t d) {
  for (int64_t i = 0; i < n; ++i) {
    const float* row = points + i * d;
    __m256 acc = _mm256_setzero_ps();
    int64_t j = 0;
    for (; j + 8 <= d; j += 8) {
      const __m256 diff =
          _mm256_sub_ps(_mm256_loadu_ps(row + j), _mm256_loadu_ps(center + j));
      acc = _mm256_fmadd_ps(diff, diff, acc);
    }
    float s = HorizontalSum(acc);
    for (; j < d; ++j) {
      const float diff = row[j] - center[j];
      s = std::fmaf(diff, diff, s);
    }
    d2[i] = s;
  }
}

// One point's running argmin step against a 16-centroid panel: clamped
// distances max(a2 + c2 - 2 dot, 0) — max_ps returns its second operand on
// NaN, so NaN -> 0 as in the scalar backend — with padding columns forced to
// +inf, then lane l keeps the first strict minimum of columns l, l+8, ...
inline void AssignStep(__m256 va2, const float* dots, __m256 c2_lo, __m256 c2_hi,
                       __m256 idx_lo, __m256 idx_hi, bool padded, __m256 valid_lo,
                       __m256 valid_hi, __m256& best_val, __m256& best_idx) {
  const __m256 inf = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  const __m256 zero = _mm256_setzero_ps();
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 dot_lo = _mm256_load_ps(dots);
  const __m256 dot_hi = _mm256_load_ps(dots + 8);
  __m256 d_lo =
      _mm256_max_ps(_mm256_fnmadd_ps(two, dot_lo, _mm256_add_ps(va2, c2_lo)), zero);
  __m256 d_hi =
      _mm256_max_ps(_mm256_fnmadd_ps(two, dot_hi, _mm256_add_ps(va2, c2_hi)), zero);
  if (padded) {
    d_lo = _mm256_blendv_ps(inf, d_lo, valid_lo);
    d_hi = _mm256_blendv_ps(inf, d_hi, valid_hi);
  }
  __m256 lt = _mm256_cmp_ps(d_lo, best_val, _CMP_LT_OQ);
  best_val = _mm256_blendv_ps(best_val, d_lo, lt);
  best_idx = _mm256_blendv_ps(best_idx, idx_lo, lt);
  lt = _mm256_cmp_ps(d_hi, best_val, _CMP_LT_OQ);
  best_val = _mm256_blendv_ps(best_val, d_hi, lt);
  best_idx = _mm256_blendv_ps(best_idx, idx_hi, lt);
}

// Reduces a point's 8 lane minima; value ties go to the lower column, so
// the winner is the lowest-index minimum overall.
inline void AssignFinish(__m256 best_val, __m256 best_idx, int64_t* assignment,
                         float* best_d2) {
  alignas(32) float vals[8], idxs[8];
  _mm256_store_ps(vals, best_val);
  _mm256_store_ps(idxs, best_idx);
  int best = 0;
  for (int l = 1; l < 8; ++l) {
    if (vals[l] < vals[best] || (vals[l] == vals[best] && idxs[l] < idxs[best])) {
      best = l;
    }
  }
  *assignment = static_cast<int64_t>(idxs[best]);
  *best_d2 = vals[best];
}

// Running argmin of kRows (1 or 4) points against every centroid panel: per
// panel the GEMM's own micro-kernel yields 2 x 8 dot products per row, and
// AssignStep folds them into each row's lane minima. The per-row state is
// named locals, like the micro-kernel's accumulators, so it stays in
// registers at -O2 too.
template <int kRows>
inline void AssignRows(const float* x, int64_t d, const float* packed,
                       const float* c2, int64_t m, int64_t* assignment,
                       float* best_d2) {
  static_assert(kRows == 1 || kRows == 4, "assign rows");
  float a2[kRows];
  RowSqNormsAvx2(x, a2, kRows, d);
  const __m256 iota = _mm256_setr_ps(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256 vm = _mm256_set1_ps(static_cast<float>(m));
  __m256 v0 = _mm256_set1_ps(std::numeric_limits<float>::infinity()), v1 = v0, v2 = v0,
         v3 = v0;
  __m256 i0 = iota, i1 = iota, i2 = iota, i3 = iota;
  const int64_t panels = (m + 15) / 16;
  for (int64_t p = 0; p < panels; ++p) {
    alignas(32) float dots[kRows * 16];
    MicroKernelNx16<kRows>(x, d, 1, packed + p * d * 16, 16, dots, 16, d);
    const __m256 c2_lo = _mm256_loadu_ps(c2 + p * 16);
    const __m256 c2_hi = _mm256_loadu_ps(c2 + p * 16 + 8);
    const __m256 idx_lo = _mm256_add_ps(_mm256_set1_ps(static_cast<float>(p * 16)), iota);
    const __m256 idx_hi = _mm256_add_ps(idx_lo, _mm256_set1_ps(8.0f));
    // Padding columns of the last panel never win.
    const bool padded = (p + 1) * 16 > m;
    const __m256 valid_lo = _mm256_cmp_ps(idx_lo, vm, _CMP_LT_OQ);
    const __m256 valid_hi = _mm256_cmp_ps(idx_hi, vm, _CMP_LT_OQ);
    AssignStep(_mm256_set1_ps(a2[0]), dots, c2_lo, c2_hi, idx_lo, idx_hi, padded, valid_lo,
               valid_hi, v0, i0);
    if constexpr (kRows == 4) {
      AssignStep(_mm256_set1_ps(a2[1]), dots + 16, c2_lo, c2_hi, idx_lo, idx_hi, padded,
                 valid_lo, valid_hi, v1, i1);
      AssignStep(_mm256_set1_ps(a2[2]), dots + 32, c2_lo, c2_hi, idx_lo, idx_hi, padded,
                 valid_lo, valid_hi, v2, i2);
      AssignStep(_mm256_set1_ps(a2[3]), dots + 48, c2_lo, c2_hi, idx_lo, idx_hi, padded,
                 valid_lo, valid_hi, v3, i3);
    }
  }
  AssignFinish(v0, i0, assignment, best_d2);
  if constexpr (kRows == 4) {
    AssignFinish(v1, i1, assignment + 1, best_d2 + 1);
    AssignFinish(v2, i2, assignment + 2, best_d2 + 2);
    AssignFinish(v3, i3, assignment + 3, best_d2 + 3);
  }
}

// Centroids (and their norms) are packed once per call into the 16-column
// panels the GEMM uses — m x d floats, L1-resident at the grouping shapes
// (64 x 32 = 8 KB) — and every point is scored against them in 4-row tiles.
void KMeansAssignAvx2(const float* points, const float* centroids, int64_t n,
                      int64_t m, int64_t d, int64_t* assignment, float* best_d2) {
  thread_local std::vector<float> buf;
  thread_local std::vector<float> c2;
  const float* packed = PackTransposedPanels(centroids, m, d, &buf);
  const int64_t padded = (m + 15) / 16 * 16;
  c2.assign(padded, 0.0f);
  RowSqNormsAvx2(centroids, c2.data(), m, d);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    AssignRows<4>(points + i * d, d, packed, c2.data(), m, assignment + i, best_d2 + i);
  }
  for (; i < n; ++i) {
    AssignRows<1>(points + i * d, d, packed, c2.data(), m, assignment + i, best_d2 + i);
  }
}

// ---------------------------------------------------------------------------
// LayerNorm
// ---------------------------------------------------------------------------

// This section must equal LayerNormRowsScalar bit for bit, and that TU has no
// FMA, so GCC may not contract a mul feeding an add here (its gnu++ default
// is -ffp-contract=fast).
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")

// In-register 8x8 transpose: on return r<j> holds column j of the 8 input
// rows, lane i from row i.
inline void Transpose8x8(__m256& r0, __m256& r1, __m256& r2, __m256& r3, __m256& r4,
                         __m256& r5, __m256& r6, __m256& r7) {
  const __m256 t0 = _mm256_unpacklo_ps(r0, r1), t1 = _mm256_unpackhi_ps(r0, r1);
  const __m256 t2 = _mm256_unpacklo_ps(r2, r3), t3 = _mm256_unpackhi_ps(r2, r3);
  const __m256 t4 = _mm256_unpacklo_ps(r4, r5), t5 = _mm256_unpackhi_ps(r4, r5);
  const __m256 t6 = _mm256_unpacklo_ps(r6, r7), t7 = _mm256_unpackhi_ps(r6, r7);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44), u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44), u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44), u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44), u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
  r0 = _mm256_permute2f128_ps(u0, u4, 0x20);
  r1 = _mm256_permute2f128_ps(u1, u5, 0x20);
  r2 = _mm256_permute2f128_ps(u2, u6, 0x20);
  r3 = _mm256_permute2f128_ps(u3, u7, 0x20);
  r4 = _mm256_permute2f128_ps(u0, u4, 0x31);
  r5 = _mm256_permute2f128_ps(u1, u5, 0x31);
  r6 = _mm256_permute2f128_ps(u2, u6, 0x31);
  r7 = _mm256_permute2f128_ps(u3, u7, 0x31);
}

// Calls fn(column) for columns 0..d-1 of the 8 rows at `src` (row stride d),
// in order; lane i of each column vector is row i's element.
template <typename Fn>
inline void ForEachColumn8(const float* src, int64_t d, Fn&& fn) {
  int64_t j = 0;
  for (; j + 8 <= d; j += 8) {
    __m256 c0 = _mm256_loadu_ps(src + j), c1 = _mm256_loadu_ps(src + d + j),
           c2 = _mm256_loadu_ps(src + 2 * d + j), c3 = _mm256_loadu_ps(src + 3 * d + j),
           c4 = _mm256_loadu_ps(src + 4 * d + j), c5 = _mm256_loadu_ps(src + 5 * d + j),
           c6 = _mm256_loadu_ps(src + 6 * d + j), c7 = _mm256_loadu_ps(src + 7 * d + j);
    Transpose8x8(c0, c1, c2, c3, c4, c5, c6, c7);
    fn(c0);
    fn(c1);
    fn(c2);
    fn(c3);
    fn(c4);
    fn(c5);
    fn(c6);
    fn(c7);
  }
  for (; j < d; ++j) {
    fn(_mm256_setr_ps(src[j], src[d + j], src[2 * d + j], src[3 * d + j], src[4 * d + j],
                      src[5 * d + j], src[6 * d + j], src[7 * d + j]));
  }
}

// 8 rows per step, one row per lane: each lane sums its own row's columns
// in order, exactly the scalar loop's sequential sums, so the statistics
// need no horizontal reduction. The normalise pass then runs row by row
// across columns. A remainder of < 8 rows runs the scalar kernel.
void LayerNormRowsAvx2(const float* x, const float* residual, const float* gamma,
                       const float* beta, float* y, float* xhat, float* inv_std,
                       int64_t rows, int64_t d, float eps) {
  const __m256 vd = _mm256_set1_ps(static_cast<float>(d));
  int64_t r = 0;
  for (; r + 8 <= rows; r += 8) {
    const float* src = x + r * d;
    float* yb = y + r * d;
    if (residual != nullptr) {
      const float* rb = residual + r * d;
      int64_t i = 0;
      for (; i + 8 <= 8 * d; i += 8) {
        _mm256_storeu_ps(yb + i, _mm256_add_ps(_mm256_loadu_ps(src + i),
                                               _mm256_loadu_ps(rb + i)));
      }
      for (; i < 8 * d; ++i) yb[i] = src[i] + rb[i];
      src = yb;
    }
    __m256 mu = _mm256_setzero_ps();
    ForEachColumn8(src, d, [&](__m256 col) { mu = _mm256_add_ps(mu, col); });
    mu = _mm256_div_ps(mu, vd);
    __m256 var = _mm256_setzero_ps();
    ForEachColumn8(src, d, [&](__m256 col) {
      const __m256 c = _mm256_sub_ps(col, mu);
      var = _mm256_add_ps(var, _mm256_mul_ps(c, c));
    });
    var = _mm256_div_ps(var, vd);
    const __m256 is = _mm256_div_ps(
        _mm256_set1_ps(1.0f), _mm256_sqrt_ps(_mm256_add_ps(var, _mm256_set1_ps(eps))));
    alignas(32) float mus[8], iss[8];
    _mm256_store_ps(mus, mu);
    _mm256_store_ps(iss, is);
    if (inv_std != nullptr) _mm256_storeu_ps(inv_std + r, is);
    for (int l = 0; l < 8; ++l) {
      const float* row = src + l * d;
      float* yr = yb + l * d;
      float* xhr = xhat != nullptr ? xhat + (r + l) * d : nullptr;
      const __m256 vmu = _mm256_set1_ps(mus[l]);
      const __m256 vis = _mm256_set1_ps(iss[l]);
      int64_t i = 0;
      for (; i + 8 <= d; i += 8) {
        const __m256 xh = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(row + i), vmu), vis);
        if (xhr != nullptr) _mm256_storeu_ps(xhr + i, xh);
        _mm256_storeu_ps(yr + i, _mm256_add_ps(_mm256_mul_ps(xh, _mm256_loadu_ps(gamma + i)),
                                               _mm256_loadu_ps(beta + i)));
      }
      for (; i < d; ++i) {
        const float xh = (row[i] - mus[l]) * iss[l];
        if (xhr != nullptr) xhr[i] = xh;
        yr[i] = xh * gamma[i] + beta[i];
      }
    }
  }
  if (r < rows) {
    internal::ScalarTable()->layernorm_rows(
        x + r * d, residual != nullptr ? residual + r * d : nullptr, gamma, beta, y + r * d,
        xhat != nullptr ? xhat + r * d : nullptr, inv_std != nullptr ? inv_std + r : nullptr,
        rows - r, d, eps);
  }
}

#pragma GCC pop_options

}  // namespace

namespace internal {

const KernelTable* SimdTable() {
  static const KernelTable table = {
      SoftmaxRowsAvx2,   SoftmaxBackwardRowsAvx2, LogSoftmaxBackwardRowsAvx2,
      GemmAvx2,          GemmBf16Avx2,            LinearRowsAvx2,
      ExpArrayAvx2,      TanhArrayAvx2,           SigmoidArrayAvx2,
      GeluArrayAvx2,     AxpyAvx2,                ScaleAvx2,
      AddAvx2,           AccumulateF64Avx2,       RowSqNormsAvx2,
      SqDistToPointAvx2, KMeansAssignAvx2,        LayerNormRowsAvx2,
  };
  return &table;
}

bool CpuSupportsSimd() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace internal
}  // namespace kernels
}  // namespace rita

#else  // !(__AVX2__ && __FMA__)

namespace rita {
namespace kernels {
namespace internal {

const KernelTable* SimdTable() { return nullptr; }
bool CpuSupportsSimd() { return false; }

}  // namespace internal
}  // namespace kernels
}  // namespace rita

#endif
