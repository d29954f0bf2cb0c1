// Scalar reference backend. These loops are the historical tensor_ops /
// group_attention inner loops moved behind the kernel table, preserved
// operation-for-operation: the serve cache-replay and stream chunk-invariance
// CI gates pin this backend to bitwise identity with the pre-kernel-layer
// code, so nothing here may reassociate, fuse, or reorder float arithmetic.
// (This TU is compiled without -mfma, so the compiler cannot contract a
// multiply+add into an FMA behind our back either.)
#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/kernels/kernels.h"

namespace rita {
namespace kernels {
namespace {

void SoftmaxRowsScalar(const float* in, float* out, int64_t rows, int64_t len,
                       float scale, const float* weights) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = in + r * len;
    float* orow = out + r * len;
    float mx = row[0] * scale;
    for (int64_t j = 1; j < len; ++j) mx = std::max(mx, row[j] * scale);
    float denom = 0.0f;
    if (weights == nullptr) {
      for (int64_t j = 0; j < len; ++j) {
        const float e = std::exp(row[j] * scale - mx);
        orow[j] = e;
        denom += e;
      }
    } else {
      for (int64_t j = 0; j < len; ++j) {
        const float e = std::exp(row[j] * scale - mx);
        orow[j] = e;
        denom += weights[j] * e;
      }
    }
    const float inv = 1.0f / denom;
    for (int64_t j = 0; j < len; ++j) orow[j] *= inv;
  }
}

void SoftmaxBackwardRowsScalar(const float* y, const float* g, float* dx,
                               int64_t rows, int64_t len, float scale) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* yrow = y + r * len;
    const float* grow = g + r * len;
    float* drow = dx + r * len;
    // Double accumulation of the rounded float products, matching the
    // historical ops::Mul -> ops::Sum composition.
    double acc = 0.0;
    for (int64_t j = 0; j < len; ++j) {
      const float p = grow[j] * yrow[j];
      acc += p;
    }
    const float t = static_cast<float>(acc);
    if (scale == 1.0f) {
      for (int64_t j = 0; j < len; ++j) drow[j] = yrow[j] * (grow[j] - t);
    } else {
      for (int64_t j = 0; j < len; ++j) {
        const float d = yrow[j] * (grow[j] - t);
        drow[j] = d * scale;
      }
    }
  }
}

void LogSoftmaxBackwardRowsScalar(const float* log_y, const float* g, float* dx,
                                  int64_t rows, int64_t len) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* lrow = log_y + r * len;
    const float* grow = g + r * len;
    float* drow = dx + r * len;
    double acc = 0.0;
    for (int64_t j = 0; j < len; ++j) acc += grow[j];
    const float t = static_cast<float>(acc);
    for (int64_t j = 0; j < len; ++j) {
      const float p = std::exp(lrow[j]) * t;
      drow[j] = grow[j] - p;
    }
  }
}

// Row range [r0, r1) of C = op(A) op(B). Row-major everywhere. Verbatim the
// historical ops::Gemm2D inner loops.
void GemmScalar(const float* a, const float* b, float* c, int64_t m, int64_t n,
                int64_t k, bool trans_a, bool trans_b, int64_t r0, int64_t r1) {
  if (!trans_a && !trans_b) {
    // C[i,j] = sum_k A[i,k] B[k,j]; ikj loop, axpy inner (vectorises).
    for (int64_t i = r0; i < r1; ++i) {
      float* crow = c + i * n;
      std::fill(crow, crow + n, 0.0f);
      const float* arow = a + i * k;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        if (av == 0.0f) continue;
        const float* brow = b + kk * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else if (!trans_a && trans_b) {
    // C[i,j] = sum_k A[i,k] B[j,k]; both rows contiguous -> unrolled dot.
    for (int64_t i = r0; i < r1; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
        int64_t kk = 0;
        for (; kk + 4 <= k; kk += 4) {
          s0 += arow[kk] * brow[kk];
          s1 += arow[kk + 1] * brow[kk + 1];
          s2 += arow[kk + 2] * brow[kk + 2];
          s3 += arow[kk + 3] * brow[kk + 3];
        }
        float s = (s0 + s1) + (s2 + s3);
        for (; kk < k; ++kk) s += arow[kk] * brow[kk];
        crow[j] = s;
      }
    }
  } else if (trans_a && !trans_b) {
    // C[i,j] = sum_k A[k,i] B[k,j]; A column access is strided, amortised over
    // the contiguous B row axpy.
    for (int64_t i = r0; i < r1; ++i) {
      float* crow = c + i * n;
      std::fill(crow, crow + n, 0.0f);
      for (int64_t kk = 0; kk < k; ++kk) {
        const float av = a[kk * m + i];
        if (av == 0.0f) continue;
        const float* brow = b + kk * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else {
    // C[i,j] = sum_k A[k,i] B[j,k]; rare (only in tests).
    for (int64_t i = r0; i < r1; ++i) {
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float s = 0.0f;
        for (int64_t kk = 0; kk < k; ++kk) s += a[kk * m + i] * brow[kk];
        crow[j] = s;
      }
    }
  }
}

// Rows [r0, r1) of C = A W for a bf16 weight; widening is exact, the loop
// mirrors the fp32 NN case (ikj, axpy inner), so this is the bit-identity
// anchor the AVX2 bf16 kernel is tolerance-gated against.
void GemmBf16Scalar(const float* a, const uint16_t* w, float* c, int64_t m,
                    int64_t n, int64_t k, int64_t r0, int64_t r1) {
  (void)m;
  for (int64_t i = r0; i < r1; ++i) {
    float* crow = c + i * n;
    std::fill(crow, crow + n, 0.0f);
    const float* arow = a + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const uint16_t* wrow = w + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * internal::Bf16Widen(wrow[j]);
    }
  }
}

void ExpArrayScalar(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::exp(x[i]);
}
void TanhArrayScalar(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}
void SigmoidArrayScalar(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = 1.0f / (1.0f + std::exp(-x[i]));
}
void GeluArrayScalar(const float* x, float* y, int64_t n) {
  constexpr float kC = 0.7978845608f;  // sqrt(2/pi)
  for (int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float inner = kC * (v + 0.044715f * v * v * v);
    y[i] = 0.5f * v * (1.0f + std::tanh(inner));
  }
}

void AxpyScalar(float* y, const float* x, int64_t n, float alpha) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}
void ScaleScalar(float* y, int64_t n, float alpha) {
  for (int64_t i = 0; i < n; ++i) y[i] *= alpha;
}
void AddScalar(float* y, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += x[i];
}
void AccumulateF64Scalar(double* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += static_cast<double>(src[i]);
}

void RowSqNormsScalar(const float* a, float* out, int64_t rows, int64_t d) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = a + r * d;
    float s = 0.0f;
    for (int64_t k = 0; k < d; ++k) s += row[k] * row[k];
    out[r] = s;
  }
}

void SqDistToPointScalar(const float* points, const float* center, float* d2,
                         int64_t n, int64_t d) {
  for (int64_t i = 0; i < n; ++i) {
    const float* row = points + i * d;
    float s = 0.0f;
    for (int64_t j = 0; j < d; ++j) {
      const float diff = row[j] - center[j];
      s += diff * diff;
    }
    d2[i] = s;
  }
}

// The fp32 Linear's row loop as it ran before this entry existed: the GEMM
// row range, then bias add and GELU row by row.
void LinearRowsScalar(const float* a, const float* w, const float* bias, bool gelu,
                      float* c, int64_t m, int64_t n, int64_t k, int64_t r0,
                      int64_t r1) {
  GemmScalar(a, w, c, m, n, k, /*trans_a=*/false, /*trans_b=*/false, r0, r1);
  for (int64_t r = r0; r < r1; ++r) {
    float* row = c + r * n;
    if (bias != nullptr) AddScalar(row, bias, n);
    if (gelu) GeluArrayScalar(row, row, n);
  }
}

// ag::LayerNorm's historical row loop, verbatim; a residual is first added
// into y (ops::Add's x + r) and normalised in place.
void LayerNormRowsScalar(const float* x, const float* residual, const float* gamma,
                         const float* beta, float* y, float* xhat, float* inv_std,
                         int64_t rows, int64_t d, float eps) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * d;
    float* yr = y + r * d;
    if (residual != nullptr) {
      const float* rr = residual + r * d;
      for (int64_t i = 0; i < d; ++i) yr[i] = row[i] + rr[i];
      row = yr;
    }
    float mu = 0.0f;
    for (int64_t i = 0; i < d; ++i) mu += row[i];
    mu /= static_cast<float>(d);
    float var = 0.0f;
    for (int64_t i = 0; i < d; ++i) {
      const float c = row[i] - mu;
      var += c * c;
    }
    var /= static_cast<float>(d);
    const float is = 1.0f / std::sqrt(var + eps);
    float* xhr = xhat != nullptr ? xhat + r * d : nullptr;
    if (inv_std != nullptr) inv_std[r] = is;
    for (int64_t i = 0; i < d; ++i) {
      const float xh = (row[i] - mu) * is;
      if (xhr != nullptr) xhr[i] = xh;
      yr[i] = xh * gamma[i] + beta[i];
    }
  }
}

// Per point: one NT GEMM row of dot products (GemmScalar's unrolled dot),
// the rank-1 correction a2 + c2[j] - 2 dot clamped at 0 (std::max returns
// its first operand for NaN, so NaN -> 0), then a strict-< argmin. The
// expression order is the one the scalar bit-identity gates pin
// (KernelScalarPinTest.KMeansAssignMatchesHistoricalPath); only one row of
// distances is live at a time.
void KMeansAssignScalar(const float* points, const float* centroids, int64_t n,
                        int64_t m, int64_t d, int64_t* assignment, float* best_d2) {
  std::vector<float> c2(m), row(m);
  RowSqNormsScalar(centroids, c2.data(), m, d);
  for (int64_t i = 0; i < n; ++i) {
    const float* x = points + i * d;
    GemmScalar(x, centroids, row.data(), 1, m, d, /*trans_a=*/false,
               /*trans_b=*/true, 0, 1);
    float a2;
    RowSqNormsScalar(x, &a2, 1, d);
    int64_t best = 0;
    float best_v = 0.0f;
    for (int64_t j = 0; j < m; ++j) {
      // Clamp: floating-point cancellation can produce tiny negatives.
      const float v = std::max(0.0f, a2 + c2[j] - 2.0f * row[j]);
      if (j == 0 || v < best_v) {
        best = j;
        best_v = v;
      }
    }
    assignment[i] = best;
    best_d2[i] = best_v;
  }
}

}  // namespace

namespace internal {

const KernelTable* ScalarTable() {
  static const KernelTable table = {
      SoftmaxRowsScalar,     SoftmaxBackwardRowsScalar, LogSoftmaxBackwardRowsScalar,
      GemmScalar,            GemmBf16Scalar,            LinearRowsScalar,
      ExpArrayScalar,        TanhArrayScalar,           SigmoidArrayScalar,
      GeluArrayScalar,       AxpyScalar,                ScaleScalar,
      AddScalar,             AccumulateF64Scalar,       RowSqNormsScalar,
      SqDistToPointScalar,   KMeansAssignScalar,        LayerNormRowsScalar,
  };
  return &table;
}

}  // namespace internal
}  // namespace kernels
}  // namespace rita
