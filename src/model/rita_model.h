// The RITA model (Fig. 1): time-aware convolution chunks the raw multivariate
// timeseries into window embeddings, a [CLS] token and positional embeddings
// are added, the RITA encoder (group attention by default) contextualises
// them, and task heads consume the outputs: a linear classifier on [CLS], a
// transpose-convolution reconstruction head for the cloze pretraining /
// imputation / forecasting tasks, and the [CLS] embedding itself for
// similarity search and clustering.
#ifndef RITA_MODEL_RITA_MODEL_H_
#define RITA_MODEL_RITA_MODEL_H_

#include "core/memory_model.h"
#include "model/sequence_model.h"
#include "model/transformer_encoder.h"
#include "nn/layers.h"

namespace rita {
namespace model {

struct RitaConfig {
  int64_t input_channels = 3;
  int64_t input_length = 200;  // raw timeseries length T
  int64_t window = 5;          // conv kernel width w
  int64_t stride = 5;          // conv stride (w = non-overlapping; 1 = paper's
                               // one-window-per-timestamp)
  int64_t num_classes = 0;     // 0 = no classification head
  EncoderConfig encoder;

  /// Windows emitted by the frontend (excluding [CLS]).
  int64_t NumWindows() const { return (input_length - window) / stride + 1; }
  /// Encoder sequence length (windows + [CLS]).
  int64_t NumTokens() const { return NumWindows() + 1; }
  /// The architecture facts the analytic MemoryModel (and hence the batch
  /// planners) needs — the one place this mapping lives, so a new
  /// EncoderShape field cannot silently go unmapped in some caller.
  core::EncoderShape MemoryShape() const {
    core::EncoderShape shape;
    shape.layers = encoder.num_layers;
    shape.dim = encoder.dim;
    shape.heads = encoder.num_heads;
    shape.ffn_hidden = encoder.ffn_hidden;
    shape.window = window;
    shape.stride = stride;
    shape.channels = input_channels;
    shape.kind = encoder.attention.kind;
    shape.performer_features = encoder.attention.performer_features;
    shape.linformer_k = encoder.attention.linformer_k;
    return shape;
  }
};

class RitaModel : public SequenceModel {
 public:
  RitaModel(const RitaConfig& config, Rng* rng);

  /// Contextual embeddings [B, 1 + n_win, dim]; row 0 is [CLS]. Accepts any
  /// raw length in [window, input_length] (the conv frontend and positional
  /// table handle shorter series natively), so the serving engine can batch
  /// variable-length requests per length bucket.
  ag::Variable Encode(const Tensor& batch) { return Encode(batch, nullptr); }
  /// Reentrant variant: per-call state owned by the caller (null = legacy
  /// path through each mechanism's internal default state).
  ag::Variable Encode(const Tensor& batch, attn::ForwardState* state);
  /// Context-conditioned encode for windowed streaming: `context` (null or
  /// [B, dim], e.g. the previous window's [CLS]) is prepended as a
  /// position-free summary token — it attends and is attended to, but holds
  /// no positional-table slot (the table covers exactly NumTokens()) and no
  /// learned weight of its own. The summary row is sliced off again after the
  /// encoder, so the result is [B, 1 + n_win, dim] with [CLS] at row 0
  /// either way and every head consumes it unchanged.
  ag::Variable Encode(const Tensor& batch, attn::ForwardState* state,
                      const Tensor* context);

  /// Everything in front of the encoder: conv windows, [CLS] tile,
  /// positional add, and (when `context` is non-null) the position-free
  /// summary-token prepend. Encode() is FrontendTokens -> encoder ->
  /// (summary-row strip); a staged caller (e.g. a per-stage benchmark) that
  /// calls these same pieces is bit-identical by construction.
  ag::Variable FrontendTokens(const Tensor& batch, const Tensor* context);
  /// Per-layer access for staged callers.
  TransformerEncoder* encoder() { return &encoder_; }

  /// Applies the classification head to an Encode() output — lets callers
  /// that need both the logits and the [CLS] embedding (streaming context
  /// carry) run a single encoder forward.
  ag::Variable ClassLogitsFromEncoded(const ag::Variable& encoded);
  /// Applies the reconstruction head to an Encode() output; `raw_length` is
  /// the original series length the windows are folded back to.
  ag::Variable ReconstructFromEncoded(const ag::Variable& encoded, int64_t raw_length);

  using SequenceModel::ClassLogits;
  using SequenceModel::Reconstruct;
  ag::Variable ClassLogits(const Tensor& batch) override;
  ag::Variable Reconstruct(const Tensor& batch) override;
  ag::Variable ClassLogits(const Tensor& batch, attn::ForwardState* state) override;
  ag::Variable Reconstruct(const Tensor& batch, attn::ForwardState* state) override;

  /// Whole-series embedding (the [CLS] output), no graph: [B, dim].
  Tensor Embed(const Tensor& batch);
  /// Reentrant variant: no graph, no training-flag flip — requires the model
  /// to already be in eval mode (the rita::serve FrozenModel contract).
  Tensor Embed(const Tensor& batch, attn::ForwardState* state);

  int64_t num_classes() const override { return config_.num_classes; }
  int64_t input_length() const override { return config_.input_length; }
  const RitaConfig& config() const { return config_; }

  std::vector<core::GroupAttentionMechanism*> GroupMechanisms() override {
    return encoder_.GroupMechanisms();
  }
  std::vector<attn::PerformerAttention*> PerformerMechanisms() override {
    return encoder_.PerformerMechanisms();
  }
  void SetExecutionContext(ExecutionContext* context) override {
    encoder_.SetExecutionContext(context);
  }

 private:
  RitaConfig config_;
  nn::Conv1d frontend_;
  nn::PositionalEmbedding pos_;
  ag::Variable cls_token_;  // [1, dim]
  TransformerEncoder encoder_;
  nn::Linear cls_head_;
  nn::ConvTranspose1d recon_head_;
};

}  // namespace model
}  // namespace rita

#endif  // RITA_MODEL_RITA_MODEL_H_
