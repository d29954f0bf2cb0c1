// Transformer encoder with a pluggable attention kernel: the shared trunk of
// RITA (group/performer/linformer/vanilla) and TST (vanilla + BatchNorm).
#ifndef RITA_MODEL_TRANSFORMER_ENCODER_H_
#define RITA_MODEL_TRANSFORMER_ENCODER_H_

#include <memory>
#include <vector>

#include "attention/multi_head.h"
#include "core/attention_factory.h"
#include "core/group_attention.h"
#include "nn/layers.h"

namespace rita {
namespace model {

/// Normalisation used inside encoder layers. The vanilla Transformer (and
/// RITA) uses LayerNorm; TST substitutes BatchNorm, which the paper blames for
/// TST's degradation on long timeseries (small batches -> biased stats).
enum class NormKind { kLayerNorm = 0, kBatchNorm = 1 };

struct EncoderConfig {
  int64_t dim = 64;
  int64_t num_layers = 8;
  int64_t num_heads = 2;
  int64_t ffn_hidden = 256;
  float dropout = 0.1f;
  NormKind norm = NormKind::kLayerNorm;
  core::AttentionOptions attention;
};

/// One post-norm encoder layer: x + MHA -> norm -> x + FFN -> norm.
class TransformerEncoderLayer : public nn::Module {
 public:
  TransformerEncoderLayer(const EncoderConfig& config, Rng* rng);

  /// Stateless overload = legacy/training path; the stateful one is
  /// reentrant (state owned by the caller, threaded to the attention
  /// mechanism; null state falls back to the legacy path).
  ag::Variable Forward(const ag::Variable& x) { return Forward(x, nullptr); }
  ag::Variable Forward(const ag::Variable& x, attn::ForwardState* state);

  /// Stage-level pieces of Forward for staged callers; Forward is composed
  /// of exactly these calls, so the staged path is bit-identical.
  /// First residual block given the raw (pre-dropout) attention output.
  ag::Variable AttentionResidual(const ag::Variable& x, const ag::Variable& attended);
  /// Second residual block: h + FFN -> norm.
  ag::Variable FfnResidual(const ag::Variable& h);

  attn::MultiHeadAttention* attention() { return &mha_; }
  nn::FeedForward* ffn() { return &ffn_; }

  void set_execution_context(ExecutionContext* context) {
    mha_.set_execution_context(context);
  }

 private:
  /// norm(x + dropout(branch)) with norm pair `which` (1 or 2).
  ag::Variable AddNormalize(int which, const ag::Variable& x, const ag::Variable& branch);

  NormKind norm_kind_;
  attn::MultiHeadAttention mha_;
  nn::FeedForward ffn_;
  nn::Dropout drop_;
  nn::LayerNorm ln1_, ln2_;
  nn::BatchNorm1d bn1_, bn2_;
};

/// Stack of encoder layers.
class TransformerEncoder : public nn::Module {
 public:
  TransformerEncoder(const EncoderConfig& config, Rng* rng);

  ag::Variable Forward(const ag::Variable& x) { return Forward(x, nullptr); }
  ag::Variable Forward(const ag::Variable& x, attn::ForwardState* state);

  /// Group-attention mechanisms per layer (empty for other kinds); the
  /// adaptive scheduler adjusts their group counts between epochs.
  std::vector<core::GroupAttentionMechanism*> GroupMechanisms();

  /// Performer mechanisms (for per-epoch feature redraws).
  std::vector<attn::PerformerAttention*> PerformerMechanisms();

  /// Threads the execution context to every layer's attention mechanism.
  void SetExecutionContext(ExecutionContext* context);

  const EncoderConfig& config() const { return config_; }

  /// Per-layer access for staged callers.
  int64_t num_layers() const { return static_cast<int64_t>(layers_.size()); }
  TransformerEncoderLayer* layer(int64_t i) { return layers_[i].get(); }

 private:
  EncoderConfig config_;
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
};

}  // namespace model
}  // namespace rita

#endif  // RITA_MODEL_TRANSFORMER_ENCODER_H_
