#include "nn/layers.h"

#include <cmath>

#include "linalg/kernels/kernels.h"
#include "tensor/tensor_ops.h"

namespace rita {
namespace nn {

namespace {
// Xavier/Glorot uniform initialisation.
Tensor XavierUniform(int64_t fan_in, int64_t fan_out, Shape shape, Rng* rng) {
  const float limit = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Tensor::RandUniform(std::move(shape), rng, -limit, limit);
}
}  // namespace

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng, bool bias)
    : in_features_(in_features), out_features_(out_features), has_bias_(bias) {
  weight_ = RegisterParameter(
      "weight", XavierUniform(in_features, out_features, {in_features, out_features}, rng));
  if (has_bias_) {
    bias_ = RegisterParameter("bias", Tensor::Zeros({out_features}));
  }
}

void Linear::SetQuantizedWeight(const QuantizedTensor* qweight) {
  if (qweight != nullptr) {
    RITA_CHECK_EQ(qweight->rows(), in_features_);
    RITA_CHECK_EQ(qweight->cols(), out_features_);
  }
  qweight_ = qweight;
}

ag::Variable Linear::Forward(const ag::Variable& x, Epilogue epilogue) {
  RITA_CHECK_EQ(x.size(-1), in_features_);
  RITA_CHECK(!(ag::GradModeEnabled() && epilogue == Epilogue::kGelu))
      << "the GELU epilogue keeps no pre-activation for a backward";
  // The leading dims flatten to GEMM rows and the output reuses that
  // contiguous layout, so no reshape copies.
  Shape out_shape = x.shape();
  out_shape.back() = out_features_;
  Tensor y(std::move(out_shape));
  const int64_t rows = x.numel() / in_features_;
  const float* px = x.data().data();
  float* py = y.data();
  ops::ParallelRows(rows, out_features_ * in_features_, [&](int64_t r0, int64_t r1) {
    ForwardRows(px, rows, py, r0, r1, epilogue);
  });
  ag::Variable out(std::move(y));
  ag::ConnectLinear(x, weight_, bias_, &out);
  return out;
}

void Linear::ForwardRows(const float* x, int64_t rows, float* y, int64_t r0, int64_t r1,
                         Epilogue epilogue) const {
  const int64_t n = out_features_, k = in_features_;
  const float* pb = has_bias_ ? bias_.data().data() : nullptr;
  const bool gelu = epilogue == Epilogue::kGelu;
  const kernels::KernelTable& kt = kernels::Active();
  // Training forwards always use the fp32 weight.
  const QuantizedTensor* q = ag::GradModeEnabled() ? nullptr : qweight_;
  if (q == nullptr) {
    kt.linear_rows(x, weight_.data().data(), pb, gelu, y, rows, n, k, r0, r1);
    return;
  }
  kt.gemm_bf16(x, q->bf16_data(), y, rows, n, k, r0, r1);
  for (int64_t r = r0; r < r1; ++r) {
    float* row = y + r * n;
    if (pb != nullptr) kt.add(row, pb, n);
    if (gelu) kt.gelu_array(row, row, n);
  }
}

LayerNorm::LayerNorm(int64_t dim, float eps) : eps_(eps) {
  gamma_ = RegisterParameter("gamma", Tensor::Ones({dim}));
  beta_ = RegisterParameter("beta", Tensor::Zeros({dim}));
}

ag::Variable LayerNorm::Forward(const ag::Variable& x) {
  return ag::LayerNorm(x, gamma_, beta_, eps_);
}

ag::Variable LayerNorm::Forward(const ag::Variable& x, const ag::Variable& residual) {
  return ag::AddLayerNorm(x, residual, gamma_, beta_, eps_);
}

BatchNorm1d::BatchNorm1d(int64_t features, float momentum, float eps)
    : momentum_(momentum), eps_(eps) {
  gamma_ = RegisterParameter("gamma", Tensor::Ones({features}));
  beta_ = RegisterParameter("beta", Tensor::Zeros({features}));
  running_mean_ = Tensor::Zeros({features});
  running_var_ = Tensor::Ones({features});
  RegisterBuffer("running_mean", &running_mean_);
  RegisterBuffer("running_var", &running_var_);
}

ag::Variable BatchNorm1d::Forward(const ag::Variable& x) {
  return ag::BatchNorm(x, gamma_, beta_, &running_mean_, &running_var_, training(),
                       momentum_, eps_);
}

Conv1d::Conv1d(int64_t in_channels, int64_t out_channels, int64_t window, int64_t stride,
               Rng* rng)
    : window_(window), stride_(stride), proj_(window * in_channels, out_channels, rng) {
  RITA_CHECK_GT(window, 0);
  RITA_CHECK_GT(stride, 0);
  RegisterModule("proj", &proj_);
}

ag::Variable Conv1d::Forward(const ag::Variable& x) {
  RITA_CHECK_EQ(x.dim(), 3) << "Conv1d expects [B, T, C]";
  return proj_.Forward(ag::Unfold1d(x, window_, stride_));
}

ConvTranspose1d::ConvTranspose1d(int64_t in_channels, int64_t out_channels, int64_t window,
                                 int64_t stride, Rng* rng)
    : out_channels_(out_channels),
      window_(window),
      stride_(stride),
      proj_(in_channels, window * out_channels, rng) {
  RegisterModule("proj", &proj_);
}

ag::Variable ConvTranspose1d::Forward(const ag::Variable& x, int64_t out_len) {
  RITA_CHECK_EQ(x.dim(), 3) << "ConvTranspose1d expects [B, n_win, C]";
  if (out_len < 0) out_len = OutputLength(x.size(1));
  RITA_CHECK_GE(out_len, OutputLength(x.size(1)));
  ag::Variable patches = proj_.Forward(x);  // [B, n_win, w*out]
  return ag::Fold1d(patches, out_len, out_channels_, window_, stride_);
}

PositionalEmbedding::PositionalEmbedding(int64_t max_len, int64_t dim, Rng* rng)
    : max_len_(max_len) {
  table_ = RegisterParameter("table",
                             Tensor::RandNormal({max_len, dim}, rng, 0.0f, 0.02f));
}

ag::Variable PositionalEmbedding::Forward(int64_t n) {
  RITA_CHECK_LE(n, max_len_) << "sequence longer than positional table";
  return ag::Slice(table_, 0, 0, n);
}

FeedForward::FeedForward(int64_t dim, int64_t hidden_dim, float dropout, Rng* rng)
    : fc1_(dim, hidden_dim, rng), fc2_(hidden_dim, dim, rng), drop_(dropout, rng) {
  RegisterModule("fc1", &fc1_);
  RegisterModule("fc2", &fc2_);
  RegisterModule("drop", &drop_);
}

ag::Variable FeedForward::Forward(const ag::Variable& x) {
  // ag::Gelu's backward needs the pre-activation; a grad-free forward folds
  // GELU into fc1's row loop instead.
  ag::Variable hidden = ag::GradModeEnabled()
                            ? ag::Gelu(fc1_.Forward(x))
                            : fc1_.Forward(x, Linear::Epilogue::kGelu);
  return fc2_.Forward(drop_.Forward(hidden));
}

}  // namespace nn
}  // namespace rita
