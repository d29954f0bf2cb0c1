#include "nn/checkpoint.h"

#include <cstdint>
#include <map>

#include "util/serialize.h"

namespace rita {
namespace nn {

namespace {
constexpr uint32_t kMagic = 0x52495441;  // "RITA"
constexpr uint32_t kVersion = 1;
// No module tensor has more dims than this; a larger count is corruption.
constexpr uint64_t kMaxDims = 8;

// Reads an entry's shape, rejecting a corrupt rank, a negative dim or an
// element count whose float payload would overflow int64 — before anything
// is allocated from it.
Status ReadShape(BinaryReader* r, const std::string& name, Shape* shape) {
  uint64_t ndim = 0;
  RITA_RETURN_NOT_OK(r->ReadU64(&ndim));
  if (ndim > kMaxDims) {
    return Status::InvalidArgument("corrupt checkpoint: entry " + name + " has " +
                                   std::to_string(ndim) + " dims");
  }
  constexpr int64_t kMaxNumel = INT64_MAX / static_cast<int64_t>(sizeof(float));
  int64_t numel = 1;
  shape->assign(ndim, 0);
  for (uint64_t d = 0; d < ndim; ++d) {
    int64_t dim = 0;
    RITA_RETURN_NOT_OK(r->ReadI64(&dim));
    if (dim < 0) {
      return Status::InvalidArgument("corrupt checkpoint: entry " + name +
                                     " has negative dim " + std::to_string(dim));
    }
    if (dim != 0 && numel > kMaxNumel / dim) {
      return Status::InvalidArgument("corrupt checkpoint: entry " + name +
                                     " element count overflows");
    }
    numel *= dim;
    (*shape)[d] = dim;
  }
  return Status::OK();
}
}  // namespace

Status SaveCheckpoint(const Module& module, const std::string& path) {
  auto open = BinaryWriter::Open(path);
  if (!open.ok()) return open.status();
  BinaryWriter w = open.MoveValueOrDie();
  w.WriteU32(kMagic);
  w.WriteU32(kVersion);

  const auto params = module.NamedParameters();
  const auto buffers = module.NamedBuffers();
  w.WriteU64(params.size() + buffers.size());

  auto write_entry = [&w](const std::string& name, const Tensor& t) {
    w.WriteString(name);
    w.WriteU64(t.shape().size());
    for (int64_t d : t.shape()) w.WriteI64(d);
    w.WriteFloats(t.data(), t.numel());
  };
  for (const auto& [name, v] : params) write_entry(name, v.data());
  for (const auto& [name, t] : buffers) write_entry(name, *t);
  return w.Close();
}

Status LoadCheckpoint(Module* module, const std::string& path, bool allow_partial) {
  auto open = BinaryReader::Open(path);
  if (!open.ok()) return open.status();
  BinaryReader r = open.MoveValueOrDie();

  uint32_t magic = 0, version = 0;
  RITA_RETURN_NOT_OK(r.ReadU32(&magic));
  RITA_RETURN_NOT_OK(r.ReadU32(&version));
  if (magic != kMagic) return Status::IoError("not a RITA checkpoint: " + path);
  if (version != kVersion) {
    return Status::NotSupported("checkpoint version " + std::to_string(version));
  }

  // Index module entries by name.
  std::map<std::string, Tensor> targets;
  for (auto& [name, v] : module->NamedParameters()) targets.emplace(name, v.data());
  for (auto& [name, t] : module->NamedBuffers()) targets.emplace(name, *t);

  uint64_t count = 0;
  RITA_RETURN_NOT_OK(r.ReadU64(&count));
  uint64_t loaded = 0;
  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    RITA_RETURN_NOT_OK(r.ReadString(&name));
    Shape shape;
    RITA_RETURN_NOT_OK(ReadShape(&r, name, &shape));

    auto it = targets.find(name);
    if (it == targets.end()) {
      if (!allow_partial) return Status::NotFound("unexpected checkpoint entry: " + name);
      RITA_RETURN_NOT_OK(r.SkipFloats(ShapeNumel(shape)));
      continue;
    }
    if (it->second.shape() != shape) {
      return Status::InvalidArgument("shape mismatch for " + name + ": module " +
                                     ShapeToString(it->second.shape()) + " vs file " +
                                     ShapeToString(shape));
    }
    RITA_RETURN_NOT_OK(r.ReadFloats(it->second.data(), it->second.numel()));
    ++loaded;
  }
  if (!allow_partial && loaded != targets.size()) {
    return Status::NotFound("checkpoint missing entries: file " + std::to_string(loaded) +
                            " of module " + std::to_string(targets.size()));
  }
  return Status::OK();
}

}  // namespace nn
}  // namespace rita
