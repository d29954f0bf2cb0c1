// Multi-model multiplexing: a ModelRegistry maps dense model ids (0..n-1) to
// borrowed FrozenModels so one InferenceEngine can serve several fine-tuned
// variants (per-tenant models, A/B candidates) over a shared
// ExecutionContext. Requests carry a `model_id`; the admission layer buckets
// per (model, task, length), so each model effectively has its own queues and
// the engine keeps per-model counters.
//
// Registration happens before the registry is handed to an engine; after
// that the registry is read-only (Register checks this), which keeps the
// serving path lock-free on the registry side.
#ifndef RITA_SERVE_MODEL_REGISTRY_H_
#define RITA_SERVE_MODEL_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/frozen_model.h"

namespace rita {
namespace serve {

/// Immutable description of one registered model variant — everything a
/// remote peer needs to decide whether two replicas serve the same model set
/// (dist::Router diffs these across the fleet) without touching the
/// FrozenModel itself.
struct ModelInfo {
  std::string name;
  uint64_t fingerprint = 0;  // FrozenModel::Fingerprint (weights + precision)
  Precision precision = Precision::kFp32;
  int64_t weight_bytes = 0;
  int64_t num_groups = 0;
};

class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers a borrowed model under `name` and returns its dense id.
  /// Names must be unique; models must outlive the registry. Fatal after
  /// Freeze() — registration is a setup-time operation.
  int64_t Register(std::string name, const FrozenModel* model);

  /// Registers a reduced-precision variant of `base_name` under the derived
  /// name `base_name@bf16` (the model's own precision picks the suffix;
  /// fatal for fp32 — register those under their base name). Returns the dense id. Purely a naming convention: the variant is
  /// an ordinary entry the engine serves side by side with the base model.
  int64_t RegisterVariant(const std::string& base_name, const FrozenModel* model);

  /// Marks the registry read-only; the engine calls this when attaching
  /// (const: freezing does not change the registered set).
  void Freeze() const { frozen_.store(true, std::memory_order_release); }

  /// The model for `id`, or nullptr when the id was never registered.
  const FrozenModel* Get(int64_t id) const;

  /// The id registered under `name`, or -1.
  int64_t Find(const std::string& name) const;

  /// Group count of `id`'s model for the batch planner's (length, groups)
  /// plan key; 0 for unknown ids and non-group attention kinds.
  int64_t NumGroups(int64_t id) const;

  /// Serving precision of `id`'s model; kFp32 for unknown ids.
  Precision PrecisionOf(int64_t id) const;

  /// Serving-path weight bytes of `id`'s model (see
  /// FrozenModel::WeightBytes); 0 for unknown ids.
  int64_t WeightBytes(int64_t id) const;

  const std::string& name(int64_t id) const;
  int64_t size() const { return static_cast<int64_t>(entries_.size()); }

  /// Immutable point-in-time view of the registered variants, indexed by
  /// dense id. The vector behind the pointer is never mutated: Register
  /// publishes a fresh copy (copy-on-write + atomic pointer swap), so a
  /// reader's view stays coherent for as long as it holds the pointer — the
  /// RCU shape live register/retire (hot swap) needs, and what lets a
  /// distributed router diff replica model sets without stopping engines.
  std::shared_ptr<const std::vector<ModelInfo>> Snapshot() const;

 private:
  struct Entry {
    std::string name;
    const FrozenModel* model = nullptr;
  };
  std::vector<Entry> entries_;
  std::shared_ptr<const std::vector<ModelInfo>> snapshot_ =
      std::make_shared<const std::vector<ModelInfo>>();
  mutable std::atomic<bool> frozen_{false};
};

}  // namespace serve
}  // namespace rita

#endif  // RITA_SERVE_MODEL_REGISTRY_H_
