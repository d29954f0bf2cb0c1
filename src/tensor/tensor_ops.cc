#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "linalg/kernels/kernels.h"
#include "util/execution_context.h"

namespace rita {
namespace ops {

namespace {

// Minimum elements per shard before a batch or softmax loop is worth
// parallelising. Row loops use kRowParallelGrain instead.
constexpr int64_t kParallelGrain = 1 << 14;

template <typename F>
Tensor UnaryOp(const Tensor& a, F f) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = f(pa[i]);
  return out;
}

// Applies f(a, b) -> out where the shapes have already been validated as
// identical.
template <typename F>
void SameShapeBinary(const Tensor& a, const Tensor& b, Tensor* out, F f) {
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = f(pa[i], pb[i]);
}

// General broadcast binary via odometer iteration (slow path).
template <typename F>
Tensor BroadcastBinary(const Tensor& a, const Tensor& b, F f) {
  const Shape out_shape = BroadcastShape(a.shape(), b.shape());
  Tensor out(out_shape);

  // Fast path: identical shapes.
  if (a.shape() == b.shape()) {
    SameShapeBinary(a, b, &out, f);
    return out;
  }
  // Fast path: b scalar.
  if (b.numel() == 1) {
    const float s = b.data()[0];
    const float* pa = a.data();
    float* po = out.data();
    for (int64_t i = 0; i < a.numel(); ++i) po[i] = f(pa[i], s);
    return out;
  }
  // Fast path: a scalar.
  if (a.numel() == 1) {
    const float s = a.data()[0];
    const float* pb = b.data();
    float* po = out.data();
    for (int64_t i = 0; i < b.numel(); ++i) po[i] = f(s, pb[i]);
    return out;
  }
  // Fast path: b's shape is a suffix of a's shape (classic bias add).
  if (a.shape() == out_shape && b.dim() <= a.dim()) {
    bool suffix = true;
    for (int64_t i = 0; i < b.dim(); ++i) {
      if (b.size(b.dim() - 1 - i) != a.size(a.dim() - 1 - i)) {
        suffix = false;
        break;
      }
    }
    if (suffix) {
      const int64_t inner = b.numel();
      const int64_t outer = a.numel() / inner;
      const float* pa = a.data();
      const float* pb = b.data();
      float* po = out.data();
      for (int64_t o = 0; o < outer; ++o) {
        const float* row = pa + o * inner;
        float* orow = po + o * inner;
        for (int64_t i = 0; i < inner; ++i) orow[i] = f(row[i], pb[i]);
      }
      return out;
    }
  }

  // General odometer path.
  const int64_t out_dim = static_cast<int64_t>(out_shape.size());
  std::vector<int64_t> astrides(out_dim, 0), bstrides(out_dim, 0), coords(out_dim, 0);
  {
    int64_t stride = 1;
    for (int64_t d = a.dim() - 1; d >= 0; --d) {
      const int64_t od = out_dim - (a.dim() - d);
      astrides[od] = (a.size(d) == 1) ? 0 : stride;
      stride *= a.size(d);
    }
    stride = 1;
    for (int64_t d = b.dim() - 1; d >= 0; --d) {
      const int64_t od = out_dim - (b.dim() - d);
      bstrides[od] = (b.size(d) == 1) ? 0 : stride;
      stride *= b.size(d);
    }
  }
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  int64_t ai = 0, bi = 0;
  const int64_t total = out.numel();
  for (int64_t i = 0; i < total; ++i) {
    po[i] = f(pa[ai], pb[bi]);
    // Increment odometer.
    for (int64_t d = out_dim - 1; d >= 0; --d) {
      ++coords[d];
      ai += astrides[d];
      bi += bstrides[d];
      if (coords[d] < out_shape[d]) break;
      coords[d] = 0;
      ai -= astrides[d] * out_shape[d];
      bi -= bstrides[d] * out_shape[d];
    }
  }
  return out;
}

}  // namespace

Shape BroadcastShape(const Shape& a, const Shape& b) {
  const int64_t out_dim = std::max(a.size(), b.size());
  Shape out(out_dim, 1);
  for (int64_t i = 0; i < out_dim; ++i) {
    const int64_t ad =
        (i < static_cast<int64_t>(a.size())) ? a[a.size() - 1 - i] : 1;
    const int64_t bd =
        (i < static_cast<int64_t>(b.size())) ? b[b.size() - 1 - i] : 1;
    RITA_CHECK(ad == bd || ad == 1 || bd == 1)
        << "incompatible broadcast " << ShapeToString(a) << " vs " << ShapeToString(b);
    out[out_dim - 1 - i] = std::max(ad, bd);
  }
  return out;
}

Tensor BroadcastTo(const Tensor& a, const Shape& target) {
  RITA_CHECK(BroadcastShape(a.shape(), target) == target)
      << ShapeToString(a.shape()) << " not broadcastable to " << ShapeToString(target);
  return BroadcastBinary(a, Tensor::Zeros(target), [](float x, float) { return x; });
}

Tensor ReduceToShape(const Tensor& a, const Shape& target) {
  if (a.shape() == target) return a;
  const int64_t a_dim = a.dim();
  const int64_t t_dim = static_cast<int64_t>(target.size());
  RITA_CHECK_GE(a_dim, t_dim);
  // Reduce leading extra dims, then dims where target is 1.
  Tensor cur = a;
  while (cur.dim() > t_dim) cur = Sum(cur, 0, /*keepdim=*/false);
  for (int64_t d = 0; d < t_dim; ++d) {
    if (cur.size(d) != target[d]) {
      RITA_CHECK_EQ(target[d], 1) << "cannot reduce " << ShapeToString(a.shape()) << " to "
                                  << ShapeToString(target);
      cur = Sum(cur, d, /*keepdim=*/true);
    }
  }
  return cur;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x + y; });
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x - y; });
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x * y; });
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x / y; });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(a, [s](float x) { return x + s; });
}
Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp(a, [s](float x) { return x * s; });
}
Tensor PowScalar(const Tensor& a, float exponent) {
  return UnaryOp(a, [exponent](float x) { return std::pow(x, exponent); });
}

Tensor Neg(const Tensor& a) {
  return UnaryOp(a, [](float x) { return -x; });
}
// Exp/Tanh/Sigmoid/Gelu run over the flat contiguous buffer through the
// kernel layer: the scalar backend is the same per-element libm loop as
// before, the SIMD backend a vectorized polynomial approximation.
Tensor Exp(const Tensor& a) {
  Tensor out(a.shape());
  kernels::ExpArray(a.data(), out.data(), a.numel());
  return out;
}
Tensor Log(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::log(x); });
}
Tensor Sqrt(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::sqrt(x); });
}
Tensor Abs(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::fabs(x); });
}
Tensor Tanh(const Tensor& a) {
  Tensor out(a.shape());
  kernels::TanhArray(a.data(), out.data(), a.numel());
  return out;
}
Tensor Sigmoid(const Tensor& a) {
  Tensor out(a.shape());
  kernels::SigmoidArray(a.data(), out.data(), a.numel());
  return out;
}
Tensor Relu(const Tensor& a) {
  return UnaryOp(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}
Tensor Gelu(const Tensor& a) {
  Tensor out(a.shape());
  kernels::GeluArray(a.data(), out.data(), a.numel());
  return out;
}
Tensor Square(const Tensor& a) {
  return UnaryOp(a, [](float x) { return x * x; });
}

void AxpyInPlace(Tensor* y, const Tensor& x, float alpha) {
  RITA_CHECK_EQ(y->numel(), x.numel());
  kernels::Axpy(y->data(), x.data(), y->numel(), alpha);
}

void ScaleInPlace(Tensor* y, float alpha) {
  kernels::Scale(y->data(), y->numel(), alpha);
}

void AddInPlace(Tensor* y, const Tensor& x) {
  RITA_CHECK_EQ(y->numel(), x.numel());
  kernels::Add(y->data(), x.data(), y->numel());
}

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

void ParallelRows(int64_t rows, int64_t macs_per_row,
                  const std::function<void(int64_t, int64_t)>& body) {
  if (rows <= 0) return;
  const int64_t per_row = std::max<int64_t>(1, macs_per_row);
  if (rows * per_row < kRowParallelGrain) {
    body(0, rows);
    return;
  }
  const int64_t min_shard = std::max<int64_t>(1, kRowParallelGrain / 4 / per_row);
  ExecutionContext::Default()->ParallelFor(0, rows, body, min_shard);
}

// The per-row-range micro-kernels live in the dispatched kernel layer
// (src/linalg/kernels/): the scalar backend is the historical GemmRows code
// verbatim, the SIMD backend a register-tiled AVX2 kernel. This layer only
// keeps the sharding policy.
void Gemm2D(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
            bool trans_a, bool trans_b, bool parallel) {
  auto body = [&](int64_t r0, int64_t r1) {
    kernels::GemmRowRange(a, b, c, m, n, k, trans_a, trans_b, r0, r1);
  };
  if (!parallel) {
    body(0, m);
    return;
  }
  ParallelRows(m, n * k, body);
}

Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  RITA_CHECK_EQ(a.dim(), 2);
  RITA_CHECK_EQ(b.dim(), 2);
  const int64_t m = trans_a ? a.size(1) : a.size(0);
  const int64_t ka = trans_a ? a.size(0) : a.size(1);
  const int64_t kb = trans_b ? b.size(1) : b.size(0);
  const int64_t n = trans_b ? b.size(0) : b.size(1);
  RITA_CHECK_EQ(ka, kb) << "matmul inner dims " << ShapeToString(a.shape()) << " x "
                        << ShapeToString(b.shape());
  Tensor c({m, n});
  Gemm2D(a.data(), b.data(), c.data(), m, n, ka, trans_a, trans_b);
  return c;
}

Tensor Bmm(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  RITA_CHECK_EQ(a.dim(), 3);
  const int64_t batch = a.size(0);
  const bool shared_b = (b.dim() == 2);
  if (!shared_b) {
    RITA_CHECK_EQ(b.dim(), 3);
    RITA_CHECK_EQ(b.size(0), batch);
  }
  const int64_t m = trans_a ? a.size(2) : a.size(1);
  const int64_t ka = trans_a ? a.size(1) : a.size(2);
  const int64_t b_rows = shared_b ? b.size(0) : b.size(1);
  const int64_t b_cols = shared_b ? b.size(1) : b.size(2);
  const int64_t kb = trans_b ? b_cols : b_rows;
  const int64_t n = trans_b ? b_rows : b_cols;
  RITA_CHECK_EQ(ka, kb) << "bmm inner dims";

  Tensor c({batch, m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  const int64_t a_stride = a.size(1) * a.size(2);
  const int64_t b_stride = shared_b ? 0 : b.size(1) * b.size(2);
  const int64_t c_stride = m * n;

  const int64_t work_per_batch = m * n * ka;
  if (batch > 1 && work_per_batch >= kParallelGrain / 4) {
    ExecutionContext::Default()->ParallelFor(0, batch, [&](int64_t b0, int64_t b1) {
      for (int64_t bi = b0; bi < b1; ++bi) {
        kernels::GemmRowRange(pa + bi * a_stride, pb + bi * b_stride, pc + bi * c_stride,
                              m, n, ka, trans_a, trans_b, 0, m);
      }
    });
  } else {
    for (int64_t bi = 0; bi < batch; ++bi) {
      Gemm2D(pa + bi * a_stride, pb + bi * b_stride, pc + bi * c_stride, m, n, ka, trans_a,
             trans_b);
    }
  }
  return c;
}

// ---------------------------------------------------------------------------
// Reductions / softmax
// ---------------------------------------------------------------------------

Tensor SumAll(const Tensor& a) {
  const float* p = a.data();
  double acc = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) acc += p[i];
  return Tensor::Scalar(static_cast<float>(acc));
}

Tensor Sum(const Tensor& a, int64_t axis, bool keepdim) {
  if (axis < 0) axis += a.dim();
  RITA_CHECK_GE(axis, 0);
  RITA_CHECK_LT(axis, a.dim());
  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= a.size(d);
  for (int64_t d = axis + 1; d < a.dim(); ++d) inner *= a.size(d);
  const int64_t mid = a.size(axis);

  Shape out_shape;
  for (int64_t d = 0; d < a.dim(); ++d) {
    if (d == axis) {
      if (keepdim) out_shape.push_back(1);
    } else {
      out_shape.push_back(a.size(d));
    }
  }
  if (out_shape.empty()) out_shape.push_back(1);
  Tensor out(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t i = 0; i < inner; ++i) {
      double acc = 0.0;
      const float* base = pa + (o * mid) * inner + i;
      for (int64_t m = 0; m < mid; ++m) acc += base[m * inner];
      po[o * inner + i] = static_cast<float>(acc);
    }
  }
  return out;
}

Tensor Mean(const Tensor& a, int64_t axis, bool keepdim) {
  int64_t ax = axis < 0 ? axis + a.dim() : axis;
  Tensor s = Sum(a, axis, keepdim);
  return MulScalar(s, 1.0f / static_cast<float>(a.size(ax)));
}

Tensor MaxLastDim(const Tensor& a) {
  RITA_CHECK_GE(a.dim(), 1);
  const int64_t last = a.size(-1);
  const int64_t rows = a.numel() / last;
  Shape out_shape = a.shape();
  out_shape.back() = 1;
  Tensor out(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = pa + r * last;
    float mx = row[0];
    for (int64_t i = 1; i < last; ++i) mx = std::max(mx, row[i]);
    po[r] = mx;
  }
  return out;
}

Tensor ArgMaxLastDim(const Tensor& a) {
  RITA_CHECK_GE(a.dim(), 1);
  const int64_t last = a.size(-1);
  const int64_t rows = a.numel() / last;
  Shape out_shape(a.shape().begin(), a.shape().end() - 1);
  if (out_shape.empty()) out_shape.push_back(1);
  Tensor out(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = pa + r * last;
    int64_t best = 0;
    for (int64_t i = 1; i < last; ++i) {
      if (row[i] > row[best]) best = i;
    }
    po[r] = static_cast<float>(best);
  }
  return out;
}

Tensor SoftmaxLastDim(const Tensor& a) {
  const int64_t last = a.size(-1);
  const int64_t rows = a.numel() / last;
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  auto body = [&](int64_t r0, int64_t r1) {
    kernels::FusedSoftmaxRows(pa + r0 * last, po + r0 * last, r1 - r0, last);
  };
  if (rows * last >= kParallelGrain) {
    ExecutionContext::Default()->ParallelFor(0, rows, body,
                                             std::max<int64_t>(1, kParallelGrain / last));
  } else {
    body(0, rows);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shape surgery
// ---------------------------------------------------------------------------

Tensor TransposeLast2(const Tensor& a) {
  RITA_CHECK_GE(a.dim(), 2);
  const int64_t m = a.size(-2);
  const int64_t n = a.size(-1);
  const int64_t batch = a.numel() / (m * n);
  Shape out_shape = a.shape();
  std::swap(out_shape[out_shape.size() - 1], out_shape[out_shape.size() - 2]);
  Tensor out(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t b = 0; b < batch; ++b) {
    const float* ab = pa + b * m * n;
    float* ob = po + b * m * n;
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) ob[j * m + i] = ab[i * n + j];
    }
  }
  return out;
}

Tensor Permute(const Tensor& a, const std::vector<int64_t>& perm) {
  const int64_t dim = a.dim();
  RITA_CHECK_EQ(static_cast<int64_t>(perm.size()), dim);
  std::vector<bool> seen(dim, false);
  Shape out_shape(dim);
  for (int64_t i = 0; i < dim; ++i) {
    RITA_CHECK_GE(perm[i], 0);
    RITA_CHECK_LT(perm[i], dim);
    RITA_CHECK(!seen[perm[i]]) << "duplicate axis in permutation";
    seen[perm[i]] = true;
    out_shape[i] = a.size(perm[i]);
  }
  Tensor out(out_shape);
  // Input strides seen through the permutation.
  std::vector<int64_t> in_strides(dim, 1);
  for (int64_t d = dim - 2; d >= 0; --d) in_strides[d] = in_strides[d + 1] * a.size(d + 1);
  std::vector<int64_t> strides(dim);
  for (int64_t i = 0; i < dim; ++i) strides[i] = in_strides[perm[i]];

  const float* pa = a.data();
  float* po = out.data();
  std::vector<int64_t> coords(dim, 0);
  int64_t src = 0;
  const int64_t total = out.numel();
  for (int64_t i = 0; i < total; ++i) {
    po[i] = pa[src];
    for (int64_t d = dim - 1; d >= 0; --d) {
      ++coords[d];
      src += strides[d];
      if (coords[d] < out_shape[d]) break;
      coords[d] = 0;
      src -= strides[d] * out_shape[d];
    }
  }
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t axis) {
  RITA_CHECK(!parts.empty()) << "Concat: empty part list";
  const Tensor& first = parts[0];
  if (axis < 0) axis += first.dim();
  RITA_CHECK_GE(axis, 0) << "Concat: axis out of range for "
                         << ShapeToString(first.shape());
  RITA_CHECK_LT(axis, first.dim())
      << "Concat: axis out of range for " << ShapeToString(first.shape());
  int64_t axis_total = 0;
  for (const Tensor& t : parts) {
    RITA_CHECK_EQ(t.dim(), first.dim())
        << "Concat: rank mismatch, " << ShapeToString(t.shape()) << " vs "
        << ShapeToString(first.shape());
    for (int64_t d = 0; d < t.dim(); ++d) {
      if (d != axis) {
        RITA_CHECK_EQ(t.size(d), first.size(d))
            << "Concat: non-axis dim " << d << " mismatch, "
            << ShapeToString(t.shape()) << " vs " << ShapeToString(first.shape());
      }
    }
    axis_total += t.size(axis);
  }
  Shape out_shape = first.shape();
  out_shape[axis] = axis_total;
  Tensor out(out_shape);

  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= first.size(d);
  for (int64_t d = axis + 1; d < first.dim(); ++d) inner *= first.size(d);

  float* po = out.data();
  const int64_t out_row = axis_total * inner;
  int64_t offset = 0;
  for (const Tensor& t : parts) {
    const int64_t part_row = t.size(axis) * inner;
    const float* pt = t.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::copy(pt + o * part_row, pt + (o + 1) * part_row, po + o * out_row + offset);
    }
    offset += part_row;
  }
  return out;
}

Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t len) {
  if (axis < 0) axis += a.dim();
  RITA_CHECK_GE(axis, 0) << "Slice: axis out of range for "
                         << ShapeToString(a.shape());
  RITA_CHECK_LT(axis, a.dim())
      << "Slice: axis out of range for " << ShapeToString(a.shape());
  RITA_CHECK_GE(len, 0) << "Slice: negative length " << len;
  RITA_CHECK_GE(start, 0) << "Slice: negative start " << start;
  RITA_CHECK_LE(start + len, a.size(axis))
      << "Slice: [" << start << ", " << start + len << ") exceeds axis " << axis
      << " of " << ShapeToString(a.shape());
  Shape out_shape = a.shape();
  out_shape[axis] = len;
  Tensor out(out_shape);

  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= a.size(d);
  for (int64_t d = axis + 1; d < a.dim(); ++d) inner *= a.size(d);

  const float* pa = a.data();
  float* po = out.data();
  const int64_t in_row = a.size(axis) * inner;
  const int64_t out_row = len * inner;
  for (int64_t o = 0; o < outer; ++o) {
    const float* src = pa + o * in_row + start * inner;
    std::copy(src, src + out_row, po + o * out_row);
  }
  return out;
}

Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& rows) {
  RITA_CHECK_EQ(a.dim(), 2);
  const int64_t cols = a.size(1);
  Tensor out({static_cast<int64_t>(rows.size()), cols});
  const float* pa = a.data();
  float* po = out.data();
  for (size_t i = 0; i < rows.size(); ++i) {
    RITA_CHECK_GE(rows[i], 0);
    RITA_CHECK_LT(rows[i], a.size(0));
    std::copy(pa + rows[i] * cols, pa + (rows[i] + 1) * cols, po + i * cols);
  }
  return out;
}

void ScatterAddRows(const Tensor& a, const std::vector<int64_t>& rows, Tensor* acc) {
  RITA_CHECK_EQ(a.dim(), 2);
  RITA_CHECK_EQ(acc->dim(), 2);
  RITA_CHECK_EQ(a.size(0), static_cast<int64_t>(rows.size()));
  RITA_CHECK_EQ(a.size(1), acc->size(1));
  const int64_t cols = a.size(1);
  const float* pa = a.data();
  float* pacc = acc->data();
  for (size_t i = 0; i < rows.size(); ++i) {
    RITA_CHECK_GE(rows[i], 0);
    RITA_CHECK_LT(rows[i], acc->size(0));
    float* dst = pacc + rows[i] * cols;
    const float* src = pa + i * cols;
    for (int64_t j = 0; j < cols; ++j) dst[j] += src[j];
  }
}

}  // namespace ops
}  // namespace rita
