// Fused LayerNorm / BatchNorm / Dropout.
#include <cmath>

#include "autograd/function.h"
#include "autograd/ops.h"
#include "linalg/kernels/kernels.h"
#include "tensor/tensor_ops.h"

namespace rita {
namespace ag {

namespace {

// Shared backward for normalisation over "rows" of a [rows, features] view.
// LayerNorm: rows = leading dims, normalised axis = features (per-row stats).
// BatchNorm: stats per feature across rows.

class LayerNormFunction : public Function {
 public:
  LayerNormFunction(Tensor xhat, Tensor inv_std, Tensor gamma)
      : xhat_(std::move(xhat)), inv_std_(std::move(inv_std)), gamma_(std::move(gamma)) {}
  std::string name() const override { return "LayerNorm"; }

  std::vector<Tensor> Backward(const Tensor& g) override {
    const int64_t d = xhat_.size(-1);
    const int64_t rows = xhat_.numel() / d;
    Tensor dx(xhat_.shape());
    Tensor dgamma({d});
    Tensor dbeta({d});
    const float* pxh = xhat_.data();
    const float* pg = g.data();
    const float* pgm = gamma_.data();
    const float* pis = inv_std_.data();
    float* pdx = dx.data();
    float* pdg = dgamma.data();
    float* pdb = dbeta.data();
    for (int64_t r = 0; r < rows; ++r) {
      const float* xh = pxh + r * d;
      const float* gr = pg + r * d;
      float* dxr = pdx + r * d;
      float m1 = 0.0f, m2 = 0.0f;
      for (int64_t i = 0; i < d; ++i) {
        const float dxhat = gr[i] * pgm[i];
        m1 += dxhat;
        m2 += dxhat * xh[i];
        pdg[i] += gr[i] * xh[i];
        pdb[i] += gr[i];
      }
      m1 /= static_cast<float>(d);
      m2 /= static_cast<float>(d);
      const float is = pis[r];
      for (int64_t i = 0; i < d; ++i) {
        const float dxhat = gr[i] * pgm[i];
        dxr[i] = is * (dxhat - m1 - xh[i] * m2);
      }
    }
    return {dx, dgamma, dbeta};
  }

 private:
  Tensor xhat_;     // normalised input, shape of x
  Tensor inv_std_;  // per row, shape {rows}
  Tensor gamma_;    // {d}
};

class BatchNormFunction : public Function {
 public:
  BatchNormFunction(Tensor xhat, Tensor inv_std, Tensor gamma, bool training)
      : xhat_(std::move(xhat)),
        inv_std_(std::move(inv_std)),
        gamma_(std::move(gamma)),
        training_(training) {}
  std::string name() const override { return "BatchNorm"; }

  std::vector<Tensor> Backward(const Tensor& g) override {
    const int64_t c = xhat_.size(-1);
    const int64_t rows = xhat_.numel() / c;
    Tensor dx(xhat_.shape());
    Tensor dgamma({c});
    Tensor dbeta({c});
    const float* pxh = xhat_.data();
    const float* pg = g.data();
    const float* pgm = gamma_.data();
    const float* pis = inv_std_.data();
    float* pdx = dx.data();
    float* pdg = dgamma.data();
    float* pdb = dbeta.data();

    // Per-feature sums of dxhat and dxhat * xhat.
    std::vector<double> s1(c, 0.0), s2(c, 0.0);
    for (int64_t r = 0; r < rows; ++r) {
      const float* xh = pxh + r * c;
      const float* gr = pg + r * c;
      for (int64_t i = 0; i < c; ++i) {
        const float dxhat = gr[i] * pgm[i];
        s1[i] += dxhat;
        s2[i] += dxhat * xh[i];
        pdg[i] += gr[i] * xh[i];
        pdb[i] += gr[i];
      }
    }
    if (!training_) {
      // Running stats are constants: dx = dxhat * inv_std.
      for (int64_t r = 0; r < rows; ++r) {
        const float* gr = pg + r * c;
        float* dxr = pdx + r * c;
        for (int64_t i = 0; i < c; ++i) dxr[i] = gr[i] * pgm[i] * pis[i];
      }
      return {dx, dgamma, dbeta};
    }
    const float inv_rows = 1.0f / static_cast<float>(rows);
    for (int64_t r = 0; r < rows; ++r) {
      const float* xh = pxh + r * c;
      const float* gr = pg + r * c;
      float* dxr = pdx + r * c;
      for (int64_t i = 0; i < c; ++i) {
        const float dxhat = gr[i] * pgm[i];
        dxr[i] = pis[i] * (dxhat - static_cast<float>(s1[i]) * inv_rows -
                           xh[i] * static_cast<float>(s2[i]) * inv_rows);
      }
    }
    return {dx, dgamma, dbeta};
  }

 private:
  Tensor xhat_;
  Tensor inv_std_;  // per feature {c}
  Tensor gamma_;
  bool training_;
};

class DropoutFunction : public Function {
 public:
  explicit DropoutFunction(Tensor mask) : mask_(std::move(mask)) {}
  std::string name() const override { return "Dropout"; }
  std::vector<Tensor> Backward(const Tensor& g) override { return {ops::Mul(g, mask_)}; }

 private:
  Tensor mask_;
};

}  // namespace

namespace {

// y = LayerNorm(x + residual) (residual nullable) through the kernel table's
// layernorm_rows, rows sharded; xhat / inv_std (nullable) are filled for a
// backward. An element of the row-lane SIMD kernel costs about as much as
// 20 SIMD GEMM multiply-adds (4-vCPU AVX2 host, serial: 627 x 64 in 19.8 us,
// 4032 x 64 in 140 us, against 58.6 us for a 626 x 64 -> 64 linear_rows).
// Rows are independent, so any sharding gives the same bits.
Tensor LayerNormRows(const Tensor& x, const float* residual, const Variable& gamma,
                     const Variable& beta, float eps, float* xhat, float* inv_std) {
  const int64_t d = x.size(-1);
  RITA_CHECK_EQ(gamma.numel(), d);
  RITA_CHECK_EQ(beta.numel(), d);
  const int64_t rows = x.numel() / d;
  Tensor y(x.shape());
  const float* px = x.data();
  const float* pgm = gamma.data().data();
  const float* pbt = beta.data().data();
  float* py = y.data();
  const kernels::KernelTable& kt = kernels::Active();
  ops::ParallelRows(rows, 20 * d, [&](int64_t r0, int64_t r1) {
    kt.layernorm_rows(px + r0 * d, residual != nullptr ? residual + r0 * d : nullptr, pgm,
                      pbt, py + r0 * d, xhat != nullptr ? xhat + r0 * d : nullptr,
                      inv_std != nullptr ? inv_std + r0 : nullptr, r1 - r0, d, eps);
  });
  return y;
}

}  // namespace

Variable LayerNorm(const Variable& x, const Variable& gamma, const Variable& beta,
                   float eps) {
  // Only a backward reads xhat / inv_std, so a grad-free forward skips them.
  if (!GradModeEnabled()) {
    return Variable(LayerNormRows(x.data(), nullptr, gamma, beta, eps, nullptr, nullptr));
  }
  Tensor xhat(x.shape());
  Tensor inv_std({x.numel() / x.size(-1)});
  Variable out(
      LayerNormRows(x.data(), nullptr, gamma, beta, eps, xhat.data(), inv_std.data()));
  Function::Connect(std::make_shared<LayerNormFunction>(xhat, inv_std, gamma.data()),
                    {x, gamma, beta}, &out);
  return out;
}

Variable AddLayerNorm(const Variable& x, const Variable& residual, const Variable& gamma,
                      const Variable& beta, float eps) {
  if (GradModeEnabled()) return LayerNorm(Add(x, residual), gamma, beta, eps);
  RITA_CHECK(x.shape() == residual.shape())
      << "AddLayerNorm: " << ShapeToString(x.shape()) << " vs "
      << ShapeToString(residual.shape());
  return Variable(
      LayerNormRows(x.data(), residual.data().data(), gamma, beta, eps, nullptr, nullptr));
}

Variable BatchNorm(const Variable& x, const Variable& gamma, const Variable& beta,
                   Tensor* running_mean, Tensor* running_var, bool training,
                   float momentum, float eps) {
  const int64_t c = x.size(-1);
  RITA_CHECK_EQ(gamma.numel(), c);
  RITA_CHECK_EQ(beta.numel(), c);
  RITA_CHECK_EQ(running_mean->numel(), c);
  RITA_CHECK_EQ(running_var->numel(), c);
  const int64_t rows = x.numel() / c;

  Tensor mean({c});
  Tensor var({c});
  if (training) {
    const float* px = x.data().data();
    std::vector<double> s(c, 0.0), s2(c, 0.0);
    for (int64_t r = 0; r < rows; ++r) {
      const float* row = px + r * c;
      for (int64_t i = 0; i < c; ++i) {
        s[i] += row[i];
        s2[i] += static_cast<double>(row[i]) * row[i];
      }
    }
    float* pm = mean.data();
    float* pv = var.data();
    float* prm = running_mean->data();
    float* prv = running_var->data();
    for (int64_t i = 0; i < c; ++i) {
      const double mu = s[i] / rows;
      const double v = s2[i] / rows - mu * mu;
      pm[i] = static_cast<float>(mu);
      pv[i] = static_cast<float>(v > 0.0 ? v : 0.0);
      prm[i] = (1.0f - momentum) * prm[i] + momentum * pm[i];
      prv[i] = (1.0f - momentum) * prv[i] + momentum * pv[i];
    }
  } else {
    mean.CopyFrom(*running_mean);
    var.CopyFrom(*running_var);
  }

  Tensor y(x.shape());
  Tensor xhat(x.shape());
  Tensor inv_std({c});
  {
    const float* px = x.data().data();
    const float* pm = mean.data();
    const float* pv = var.data();
    const float* pgm = gamma.data().data();
    const float* pbt = beta.data().data();
    float* pis = inv_std.data();
    for (int64_t i = 0; i < c; ++i) pis[i] = 1.0f / std::sqrt(pv[i] + eps);
    float* py = y.data();
    float* pxh = xhat.data();
    for (int64_t r = 0; r < rows; ++r) {
      const float* row = px + r * c;
      float* yr = py + r * c;
      float* xhr = pxh + r * c;
      for (int64_t i = 0; i < c; ++i) {
        const float xh = (row[i] - pm[i]) * pis[i];
        xhr[i] = xh;
        yr[i] = xh * pgm[i] + pbt[i];
      }
    }
  }
  Variable out(y);
  Function::Connect(
      std::make_shared<BatchNormFunction>(xhat, inv_std, gamma.data(), training),
      {x, gamma, beta}, &out);
  return out;
}

Variable Dropout(const Variable& a, float p, bool training, Rng* rng) {
  if (!training || p <= 0.0f) return a;
  RITA_CHECK_LT(p, 1.0f);
  RITA_CHECK(rng != nullptr);
  const float keep = 1.0f - p;
  const float scale = 1.0f / keep;
  Tensor mask(a.shape());
  float* pm = mask.data();
  for (int64_t i = 0; i < mask.numel(); ++i) {
    pm[i] = rng->Bernoulli(keep) ? scale : 0.0f;
  }
  Variable out(ops::Mul(a.data(), mask));
  Function::Connect(std::make_shared<DropoutFunction>(mask), {a}, &out);
  return out;
}

Variable DropoutWithMask(const Variable& a, Tensor mask) {
  RITA_CHECK(a.shape() == mask.shape());
  Variable out(ops::Mul(a.data(), mask));
  Function::Connect(std::make_shared<DropoutFunction>(std::move(mask)), {a}, &out);
  return out;
}

}  // namespace ag
}  // namespace rita
