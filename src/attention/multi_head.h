// Multi-head wrapper: projects the model dim into heads, runs any
// AttentionMechanism per head, and projects back.
#ifndef RITA_ATTENTION_MULTI_HEAD_H_
#define RITA_ATTENTION_MULTI_HEAD_H_

#include <memory>

#include "attention/attention.h"
#include "nn/layers.h"

namespace rita {
namespace attn {

/// Standard multi-head attention block with a pluggable score kernel.
class MultiHeadAttention : public nn::Module {
 public:
  /// Takes ownership of `mechanism`. `dim` must be divisible by `num_heads`.
  MultiHeadAttention(int64_t dim, int64_t num_heads,
                     std::unique_ptr<AttentionMechanism> mechanism, Rng* rng);

  /// x: [B, n, dim] -> [B, n, dim]. The stateless overload uses the
  /// mechanism's internal default state (legacy/training path); the stateful
  /// one is reentrant — callers own the per-call state. MultiHeadAttention
  /// translates state->batch_invariant into the head-count RNG period the
  /// mechanism needs for batch-position-independent slice streams.
  ag::Variable Forward(const ag::Variable& x);
  ag::Variable Forward(const ag::Variable& x, ForwardState* state);

  /// Stage-level pieces of Forward, exposed so callers can run and time the
  /// stages one at a time. Forward() is literally composed of these calls,
  /// so the staged path is bit-identical by construction.
  ///
  /// Projects x through wq/wk/wv (`which` = 0/1/2) and splits heads:
  /// [B, n, dim] -> [B*H, n, head_dim]. Grad mode splits the projection with
  /// a recorded copy; a grad-free call writes head-major straight from the
  /// GEMM tiles, bitwise the same. Records a `qkv_projection_gemm` kernel
  /// span when the calling thread carries a trace.
  ag::Variable ProjectHeads(int which, const ag::Variable& x);
  /// Runs the attention mechanism over pre-projected heads, installing the
  /// head-count RNG period exactly as Forward does.
  ag::Variable MechanismForward(const ag::Variable& q, const ag::Variable& k,
                                const ag::Variable& v, ForwardState* state);
  /// Merges heads and applies the output projection:
  /// [B*H, n, head_dim] -> [B, n, dim].
  ag::Variable MergeHeads(const ag::Variable& o, int64_t b, int64_t n);

  AttentionMechanism* mechanism() { return mechanism_.get(); }
  int64_t num_heads() const { return num_heads_; }
  int64_t head_dim() const { return head_dim_; }

  /// The four projections for freeze-time weight quantization:
  /// 0 = wq, 1 = wk, 2 = wv, 3 = wo.
  nn::Linear* projection(int which) {
    switch (which) {
      case 0:
        return &wq_;
      case 1:
        return &wk_;
      case 2:
        return &wv_;
      default:
        return &wo_;
    }
  }

  /// Threads the execution context down to the per-head mechanism.
  void set_execution_context(ExecutionContext* context) {
    mechanism_->set_execution_context(context);
  }

 private:
  int64_t dim_, num_heads_, head_dim_;
  std::unique_ptr<AttentionMechanism> mechanism_;
  nn::Linear wq_, wk_, wv_, wo_;
};

}  // namespace attn
}  // namespace rita

#endif  // RITA_ATTENTION_MULTI_HEAD_H_
