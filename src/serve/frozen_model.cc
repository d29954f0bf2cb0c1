#include "serve/frozen_model.h"

#include <algorithm>

#include "tensor/tensor_ops.h"
#include "util/hash.h"

namespace rita {
namespace serve {

FrozenModel::FrozenModel(model::RitaModel& source, Precision precision)
    : config_(source.config()), precision_(precision) {
  // The replica never trains: no probs dropout, no residual dropout, no
  // snapshot collection (an O(n d) pass per head the scheduler would consume).
  config_.encoder.dropout = 0.0f;
  config_.encoder.attention.dropout = 0.0f;
  config_.encoder.attention.group.collect_snapshots = false;

  // Fixed init seed: the replica's weights are overwritten below; only the
  // group-attention RNG roots matter, and those are copied from the source.
  Rng init_rng(0x46726f7a656eULL);  // "Frozen"
  model_ = std::make_unique<model::RitaModel>(config_, &init_rng);
  model_->SetTraining(false);

  // Same architecture => same registration order; verified by name.
  auto src_params = source.NamedParameters();
  auto dst_params = model_->NamedParameters();
  RITA_CHECK_EQ(src_params.size(), dst_params.size());
  for (size_t i = 0; i < src_params.size(); ++i) {
    RITA_CHECK(src_params[i].first == dst_params[i].first)
        << "parameter registry mismatch: " << src_params[i].first << " vs "
        << dst_params[i].first;
    dst_params[i].second.mutable_data().CopyFrom(src_params[i].second.data());
  }
  auto src_buffers = source.NamedBuffers();
  auto dst_buffers = model_->NamedBuffers();
  RITA_CHECK_EQ(src_buffers.size(), dst_buffers.size());
  for (size_t i = 0; i < src_buffers.size(); ++i) {
    RITA_CHECK(src_buffers[i].first == dst_buffers[i].first)
        << "buffer registry mismatch: " << src_buffers[i].first;
    *dst_buffers[i].second = src_buffers[i].second->Clone();
  }

  // Group-attention runtime state: the adaptive scheduler may have shrunk N
  // below the config value, and the per-mechanism RNG roots decide the
  // grouping — copy both so the replica groups exactly like the source.
  auto src_groups = source.GroupMechanisms();
  auto dst_groups = model_->GroupMechanisms();
  RITA_CHECK_EQ(src_groups.size(), dst_groups.size());
  for (size_t i = 0; i < src_groups.size(); ++i) {
    dst_groups[i]->set_num_groups(src_groups[i]->num_groups());
    dst_groups[i]->set_seed(src_groups[i]->seed());
    num_groups_ = std::max(num_groups_, dst_groups[i]->num_groups());
  }

  // Serving byte accounting starts from the full fp32 parameter footprint;
  // QuantizeProjections subtracts the GEMM matrices it replaces.
  for (const auto& named : model_->NamedParameters()) {
    weight_bytes_ +=
        static_cast<int64_t>(sizeof(float)) * named.second.data().numel();
  }
  if (precision_ != Precision::kFp32) QuantizeProjections();

  fingerprint_ = ComputeFingerprint();
}

void FrozenModel::QuantizeProjections() {
  model::TransformerEncoder* encoder = model_->encoder();
  for (int64_t l = 0; l < encoder->num_layers(); ++l) {
    model::TransformerEncoderLayer* layer = encoder->layer(l);
    nn::Linear* matrices[6] = {
        layer->attention()->projection(0), layer->attention()->projection(1),
        layer->attention()->projection(2), layer->attention()->projection(3),
        layer->ffn()->fc1(),               layer->ffn()->fc2()};
    for (nn::Linear* linear : matrices) {
      ag::Variable weight = linear->weight();
      const Tensor& w = weight.data();
      auto q = std::make_unique<QuantizedTensor>(QuantizedTensor::QuantizeBf16(w));
      quantizable_fp32_bytes_ += static_cast<int64_t>(sizeof(float)) * w.numel();
      quantized_bytes_ += q->WeightBytes();
      linear->SetQuantizedWeight(q.get());
      quantized_.push_back(std::move(q));
    }
  }
  weight_bytes_ += quantized_bytes_ - quantizable_fp32_bytes_;
}

double FrozenModel::QuantizedBytesRatio() const {
  if (precision_ == Precision::kFp32 || quantizable_fp32_bytes_ == 0) return 1.0;
  return static_cast<double>(quantized_bytes_) /
         static_cast<double>(quantizable_fp32_bytes_);
}

uint64_t FrozenModel::ComputeFingerprint() const {
  uint64_t h = kFnv1a64OffsetBasis;
  // Architecture: two models with identical weights but different frontends
  // or attention kinds compute different functions.
  h = Fnv1a64Value(config_.input_channels, h);
  h = Fnv1a64Value(config_.input_length, h);
  h = Fnv1a64Value(config_.window, h);
  h = Fnv1a64Value(config_.stride, h);
  h = Fnv1a64Value(config_.num_classes, h);
  h = Fnv1a64Value(config_.encoder.dim, h);
  h = Fnv1a64Value(config_.encoder.num_layers, h);
  h = Fnv1a64Value(config_.encoder.num_heads, h);
  h = Fnv1a64Value(config_.encoder.ffn_hidden, h);
  h = Fnv1a64Value(static_cast<int32_t>(config_.encoder.attention.kind), h);
  // Kernel knobs that change the computed function without changing any
  // weight byte: k-means settings steer the grouping, the projection /
  // feature sizes shape the linear-attention approximations.
  h = Fnv1a64Value(config_.encoder.attention.group.kmeans_iters, h);
  h = Fnv1a64Value(config_.encoder.attention.group.kmeanspp_init, h);
  h = Fnv1a64Value(config_.encoder.attention.performer_features, h);
  h = Fnv1a64Value(config_.encoder.attention.linformer_k, h);
  h = Fnv1a64Value(config_.encoder.attention.seq_len, h);
  // Weights and buffers (buffers include e.g. the Performer omega matrix).
  for (const auto& named : model_->NamedParameters()) {
    h = Fnv1a64String(named.first, h);
    const Tensor& data = named.second.data();
    h = Fnv1a64(data.data(), sizeof(float) * static_cast<size_t>(data.numel()), h);
  }
  for (const auto& named : model_->NamedBuffers()) {
    h = Fnv1a64String(named.first, h);
    const Tensor& data = *named.second;
    h = Fnv1a64(data.data(), sizeof(float) * static_cast<size_t>(data.numel()), h);
  }
  // Group-attention runtime state decides the grouping, hence the output.
  for (const auto* mech : model_->GroupMechanisms()) {
    h = Fnv1a64Value(mech->num_groups(), h);
    h = Fnv1a64Value(mech->seed(), h);
  }
  // Serving precision: a bf16 variant computes a (slightly) different
  // function from the fp32 replica of the same source, so result-cache
  // entries must never alias across variants. Hash the quantized payloads
  // too, not just the enum — the bytes the serving GEMMs actually read.
  h = Fnv1a64Value(static_cast<int32_t>(precision_), h);
  for (const auto& q : quantized_) {
    h = Fnv1a64(q->bf16_data(),
                sizeof(uint16_t) * static_cast<size_t>(q->rows()) *
                    static_cast<size_t>(q->cols()),
                h);
  }
  return h;
}

attn::ForwardState FrozenModel::MakeState(ExecutionContext* context) const {
  attn::ForwardState state;
  state.context = context;
  state.stream = 0;           // pinned: same request -> same output, always
  state.stochastic = false;   // belt-and-braces; the replica is eval anyway
  state.batch_invariant = true;
  state.snapshots = nullptr;
  return state;
}

namespace {

/// Row 0 of an encoded [B, 1 + n_win, dim] tensor as [B, dim].
Tensor ClsRows(const Tensor& encoded) {
  return ops::Slice(encoded, 1, 0, 1).Reshape({encoded.size(0), encoded.size(2)});
}

}  // namespace

Tensor FrozenModel::Encode(const Tensor& batch, const Tensor* context,
                           ExecutionContext* exec) const {
  ag::NoGradGuard guard;
  attn::ForwardState state = MakeState(exec);
  return model_->Encode(batch, &state, context).data();
}

Tensor FrozenModel::ClassLogits(const Tensor& batch, const Tensor* context,
                                Tensor* cls, ExecutionContext* exec) const {
  ag::NoGradGuard guard;
  attn::ForwardState state = MakeState(exec);
  ag::Variable encoded = model_->Encode(batch, &state, context);
  if (cls != nullptr) *cls = ClsRows(encoded.data());
  return model_->ClassLogitsFromEncoded(encoded).data();
}

Tensor FrozenModel::Embed(const Tensor& batch, const Tensor* context,
                          ExecutionContext* exec) const {
  ag::NoGradGuard guard;
  attn::ForwardState state = MakeState(exec);
  return ClsRows(model_->Encode(batch, &state, context).data());
}

Tensor FrozenModel::Reconstruct(const Tensor& batch, const Tensor* context,
                                Tensor* cls, ExecutionContext* exec) const {
  ag::NoGradGuard guard;
  attn::ForwardState state = MakeState(exec);
  ag::Variable encoded = model_->Encode(batch, &state, context);
  if (cls != nullptr) *cls = ClsRows(encoded.data());
  return model_->ReconstructFromEncoded(encoded, batch.size(1)).data();
}

}  // namespace serve
}  // namespace rita
