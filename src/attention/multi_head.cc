#include "attention/multi_head.h"

#include "obs/trace.h"

namespace rita {
namespace attn {

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
  const int64_t b = x.size(0), n = x.size(1);
  nn::Linear* proj = which == 0 ? &wq_ : which == 1 ? &wk_ : &wv_;
  RITA_CHECK(which >= 0 && which <= 2) << "ProjectHeads: bad projection " << which;
  // [B, n, d] -> [B*H, n, d_head]
  ag::Variable r = ag::Reshape(proj->Forward(x), {b, n, num_heads_, head_dim_});
  r = ag::Permute(r, {0, 2, 1, 3});
  return ag::Reshape(r, {b * num_heads_, n, head_dim_});
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
  ag::Variable r = ag::Reshape(o, {b, num_heads_, n, head_dim_});
  r = ag::Permute(r, {0, 2, 1, 3});
  return wo_.Forward(ag::Reshape(r, {b, n, dim_}));
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
