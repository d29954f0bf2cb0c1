#include "model/transformer_encoder.h"

namespace rita {
namespace model {

TransformerEncoderLayer::TransformerEncoderLayer(const EncoderConfig& config, Rng* rng)
    : norm_kind_(config.norm),
      mha_(config.dim, config.num_heads,
           core::CreateAttentionMechanism(config.dim / config.num_heads,
                                          config.attention, rng),
           rng),
      ffn_(config.dim, config.ffn_hidden, config.dropout, rng),
      drop_(config.dropout, rng),
      ln1_(config.dim),
      ln2_(config.dim),
      bn1_(config.dim),
      bn2_(config.dim) {
  RegisterModule("mha", &mha_);
  RegisterModule("ffn", &ffn_);
  RegisterModule("drop", &drop_);
  // Only the active norm pair is registered so checkpoints stay minimal.
  if (norm_kind_ == NormKind::kLayerNorm) {
    RegisterModule("ln1", &ln1_);
    RegisterModule("ln2", &ln2_);
  } else {
    RegisterModule("bn1", &bn1_);
    RegisterModule("bn2", &bn2_);
  }
}

ag::Variable TransformerEncoderLayer::AddNormalize(int which, const ag::Variable& x,
                                                   const ag::Variable& branch) {
  const ag::Variable dropped = drop_.Forward(branch);
  if (norm_kind_ == NormKind::kLayerNorm) {
    // A grad-free forward adds the residual inside the LayerNorm row kernel.
    return (which == 1 ? ln1_ : ln2_).Forward(x, dropped);
  }
  return (which == 1 ? bn1_ : bn2_).Forward(ag::Add(x, dropped));
}

ag::Variable TransformerEncoderLayer::AttentionResidual(const ag::Variable& x,
                                                        const ag::Variable& attended) {
  return AddNormalize(1, x, attended);
}

ag::Variable TransformerEncoderLayer::FfnResidual(const ag::Variable& h) {
  return AddNormalize(2, h, ffn_.Forward(h));
}

ag::Variable TransformerEncoderLayer::Forward(const ag::Variable& x,
                                              attn::ForwardState* state) {
  // Post-norm residual blocks, as in the original Transformer (and TST).
  return FfnResidual(AttentionResidual(x, mha_.Forward(x, state)));
}

TransformerEncoder::TransformerEncoder(const EncoderConfig& config, Rng* rng)
    : config_(config) {
  RITA_CHECK_GT(config.num_layers, 0);
  layers_.reserve(config.num_layers);
  for (int64_t i = 0; i < config.num_layers; ++i) {
    layers_.push_back(std::make_unique<TransformerEncoderLayer>(config, rng));
    RegisterModule("layer" + std::to_string(i), layers_.back().get());
  }
}

ag::Variable TransformerEncoder::Forward(const ag::Variable& x,
                                         attn::ForwardState* state) {
  ag::Variable h = x;
  for (auto& layer : layers_) h = layer->Forward(h, state);
  return h;
}

std::vector<core::GroupAttentionMechanism*> TransformerEncoder::GroupMechanisms() {
  std::vector<core::GroupAttentionMechanism*> out;
  for (auto& layer : layers_) {
    auto* mech = layer->attention()->mechanism();
    if (mech->kind() == attn::AttentionKind::kGroup) {
      out.push_back(static_cast<core::GroupAttentionMechanism*>(mech));
    }
  }
  return out;
}

void TransformerEncoder::SetExecutionContext(ExecutionContext* context) {
  for (auto& layer : layers_) layer->set_execution_context(context);
}

std::vector<attn::PerformerAttention*> TransformerEncoder::PerformerMechanisms() {
  std::vector<attn::PerformerAttention*> out;
  for (auto& layer : layers_) {
    auto* mech = layer->attention()->mechanism();
    if (mech->kind() == attn::AttentionKind::kPerformer) {
      out.push_back(static_cast<attn::PerformerAttention*>(mech));
    }
  }
  return out;
}

}  // namespace model
}  // namespace rita
