#include "serve/model_registry.h"

#include <utility>

namespace rita {
namespace serve {

int64_t ModelRegistry::Register(std::string name, const FrozenModel* model) {
  RITA_CHECK(!frozen_.load(std::memory_order_acquire))
      << "ModelRegistry is frozen (attached to an engine); register models "
         "before serving starts";
  RITA_CHECK(model != nullptr);
  RITA_CHECK_EQ(Find(name), -1) << "duplicate model name: " << name;
  Entry entry;
  entry.name = std::move(name);
  entry.model = model;
  entries_.push_back(std::move(entry));
  // Publish a fresh immutable snapshot (copy-on-write): readers holding the
  // previous pointer keep a coherent view; new readers see the new variant.
  auto next = std::make_shared<std::vector<ModelInfo>>();
  next->reserve(entries_.size());
  for (const Entry& e : entries_) {
    ModelInfo info;
    info.name = e.name;
    info.fingerprint = e.model->Fingerprint();
    info.precision = e.model->precision();
    info.weight_bytes = e.model->WeightBytes();
    info.num_groups = e.model->num_groups();
    next->push_back(std::move(info));
  }
  std::atomic_store_explicit(
      &snapshot_,
      std::shared_ptr<const std::vector<ModelInfo>>(std::move(next)),
      std::memory_order_release);
  return static_cast<int64_t>(entries_.size()) - 1;
}

std::shared_ptr<const std::vector<ModelInfo>> ModelRegistry::Snapshot() const {
  return std::atomic_load_explicit(&snapshot_, std::memory_order_acquire);
}

int64_t ModelRegistry::RegisterVariant(const std::string& base_name,
                                       const FrozenModel* model) {
  RITA_CHECK(model != nullptr);
  RITA_CHECK(model->precision() != Precision::kFp32)
      << "fp32 models register under their base name; @-suffixes are for "
         "reduced-precision variants";
  return Register(base_name + "@" + PrecisionName(model->precision()), model);
}

const FrozenModel* ModelRegistry::Get(int64_t id) const {
  if (id < 0 || id >= size()) return nullptr;
  return entries_[static_cast<size_t>(id)].model;
}

int64_t ModelRegistry::Find(const std::string& name) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].name == name) return static_cast<int64_t>(i);
  }
  return -1;
}

int64_t ModelRegistry::NumGroups(int64_t id) const {
  const FrozenModel* model = Get(id);
  return model == nullptr ? 0 : model->num_groups();
}

Precision ModelRegistry::PrecisionOf(int64_t id) const {
  const FrozenModel* model = Get(id);
  return model == nullptr ? Precision::kFp32 : model->precision();
}

int64_t ModelRegistry::WeightBytes(int64_t id) const {
  const FrozenModel* model = Get(id);
  return model == nullptr ? 0 : model->WeightBytes();
}

const std::string& ModelRegistry::name(int64_t id) const {
  RITA_CHECK_GE(id, 0);
  RITA_CHECK_LT(id, size());
  return entries_[static_cast<size_t>(id)].name;
}

}  // namespace serve
}  // namespace rita
