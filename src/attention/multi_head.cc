#include "attention/multi_head.h"

#include <algorithm>

#include "autograd/function.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "util/execution_context.h"

namespace rita {
namespace attn {

namespace {

// Copies between the token-major [B, n, H * dh] layout and the head-major
// [B * H, n, dh] one, one d_head-contiguous block at a time. A copied float
// costs about as much as 8 SIMD GEMM multiply-adds (4-vCPU AVX2 host, 64-wide
// tokens: 2008 tokens 39 us serial vs 35 us sharded, 4016 tokens 82 vs 43 us).
Tensor CopyHeads(const Tensor& x, int64_t b, int64_t n, int64_t heads, int64_t dh,
                 bool split) {
  Tensor out(split ? Shape{b * heads, n, dh} : Shape{b, n, heads * dh});
  const float* src = x.data();
  float* dst = out.data();
  ops::ParallelRows(b * n, 8 * heads * dh, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t bi = t / n, i = t % n;
      for (int64_t h = 0; h < heads; ++h) {
        const int64_t token = (t * heads + h) * dh;
        const int64_t head = ((bi * heads + h) * n + i) * dh;
        if (split) {
          std::copy(src + token, src + token + dh, dst + head);
        } else {
          std::copy(src + head, src + head + dh, dst + token);
        }
      }
    }
  });
  return out;
}

// Head split (split = true) or merge; the backward is the inverse copy.
class HeadCopyFunction : public ag::Function {
 public:
  HeadCopyFunction(int64_t b, int64_t n, int64_t heads, int64_t dh, bool split)
      : b_(b), n_(n), heads_(heads), dh_(dh), split_(split) {}
  std::string name() const override { return split_ ? "SplitHeads" : "MergeHeads"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    return {CopyHeads(g, b_, n_, heads_, dh_, !split_)};
  }

 private:
  int64_t b_, n_, heads_, dh_;
  bool split_;
};

ag::Variable HeadCopy(const ag::Variable& x, int64_t b, int64_t n, int64_t heads,
                      int64_t dh, bool split) {
  ag::Variable out(CopyHeads(x.data(), b, n, heads, dh, split));
  ag::Function::Connect(std::make_shared<HeadCopyFunction>(b, n, heads, dh, split), {x},
                        &out);
  return out;
}

}  // namespace

MultiHeadAttention::MultiHeadAttention(int64_t dim, int64_t num_heads,
                                       std::unique_ptr<AttentionMechanism> mechanism,
                                       Rng* rng)
    : dim_(dim),
      num_heads_(num_heads),
      head_dim_(dim / num_heads),
      mechanism_(std::move(mechanism)),
      wq_(dim, dim, rng),
      wk_(dim, dim, rng),
      wv_(dim, dim, rng),
      wo_(dim, dim, rng) {
  RITA_CHECK_EQ(dim % num_heads, 0) << "dim must be divisible by num_heads";
  RITA_CHECK(mechanism_ != nullptr);
  RegisterModule("wq", &wq_);
  RegisterModule("wk", &wk_);
  RegisterModule("wv", &wv_);
  RegisterModule("wo", &wo_);
  RegisterModule("mech", mechanism_.get());
}

ag::Variable MultiHeadAttention::Forward(const ag::Variable& x) {
  return Forward(x, nullptr);
}

ag::Variable MultiHeadAttention::ProjectHeads(int which, const ag::Variable& x) {
  obs::Span span("qkv_projection_gemm", "kernel");
  RITA_CHECK_EQ(x.dim(), 3);
  RITA_CHECK_EQ(x.size(2), dim_);
  RITA_CHECK(which >= 0 && which <= 2) << "ProjectHeads: bad projection " << which;
  const int64_t b = x.size(0), n = x.size(1);
  nn::Linear* proj = projection(which);
  if (ag::GradModeEnabled()) {
    // [B, n, d] -> [B*H, n, d_head]; the split's backward is the merge copy.
    return HeadCopy(proj->Forward(x), b, n, num_heads_, head_dim_, /*split=*/true);
  }
  // Grad-free: each row shard projects kTokenTile tokens at a time into a
  // leased scratch tile and stores every head's d_head slice straight into
  // [B*H, n, d_head], so no [B, n, d] projection is built or split.
  constexpr int64_t kTokenTile = 96;
  Tensor out({b * num_heads_, n, head_dim_});
  const float* px = x.data().data();
  float* po = out.data();
  ScratchArena* arena = ExecutionContext::Default()->arena();
  ops::ParallelRows(b * n, dim_ * dim_, [&](int64_t t0, int64_t t1) {
    ScratchArena::Lease scratch = arena->Acquire();
    float* tile = scratch.Floats(std::min(kTokenTile, t1 - t0) * dim_);
    for (int64_t s0 = t0; s0 < t1; s0 += kTokenTile) {
      const int64_t rows = std::min(kTokenTile, t1 - s0);
      proj->ForwardRows(px + s0 * dim_, rows, tile, 0, rows);
      for (int64_t r = 0; r < rows; ++r) {
        const int64_t t = s0 + r, bi = t / n, i = t % n;
        for (int64_t h = 0; h < num_heads_; ++h) {
          const float* src = tile + r * dim_ + h * head_dim_;
          std::copy(src, src + head_dim_, po + ((bi * num_heads_ + h) * n + i) * head_dim_);
        }
      }
    }
  });
  return ag::Variable(std::move(out));
}

ag::Variable MultiHeadAttention::MechanismForward(const ag::Variable& q,
                                                 const ag::Variable& k,
                                                 const ag::Variable& v,
                                                 ForwardState* state) {
  if (state == nullptr) return mechanism_->Forward(q, k, v);
  // The mechanism sees flat [B*H] slices; the head count is the period that
  // maps a slice back to its head regardless of batch position.
  state->rng_slice_period = state->batch_invariant ? num_heads_ : 0;
  return mechanism_->Forward(q, k, v, state);
}

ag::Variable MultiHeadAttention::MergeHeads(const ag::Variable& o, int64_t b,
                                            int64_t n) {
  // [B*H, n, d_head] -> [B, n, d]
  RITA_CHECK_EQ(o.numel(), b * n * dim_);
  return wo_.Forward(HeadCopy(o, b, n, num_heads_, head_dim_, /*split=*/false));
}

ag::Variable MultiHeadAttention::Forward(const ag::Variable& x, ForwardState* state) {
  const int64_t b = x.size(0), n = x.size(1);
  ag::Variable q = ProjectHeads(0, x);
  ag::Variable k = ProjectHeads(1, x);
  ag::Variable v = ProjectHeads(2, x);
  return MergeHeads(MechanismForward(q, k, v, state), b, n);
}

}  // namespace attn
}  // namespace rita
