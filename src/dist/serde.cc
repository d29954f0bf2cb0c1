#include "dist/serde.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "util/hash.h"

namespace rita {
namespace dist {

namespace {

// Decoder-side sanity caps. These are not wire limits (the frame cap in
// transport.h bounds total size); they stop a garbage length prefix from
// driving a huge allocation before the bounds check would catch it.
constexpr uint32_t kMaxStringBytes = 1u << 20;
constexpr uint8_t kMaxTensorDims = 8;
constexpr uint32_t kMaxListEntries = 1u << 20;

}  // namespace

// ---------------------------------------------------------------------------
// WireWriter

void WireWriter::U16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void WireWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void WireWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void WireWriter::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void WireWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void WireWriter::TensorValue(const Tensor& t) {
  U8(t.defined() ? 1 : 0);
  if (!t.defined()) return;
  U8(static_cast<uint8_t>(t.dim()));
  for (int64_t d = 0; d < t.dim(); ++d) I64(t.size(d));
  const size_t bytes = sizeof(float) * static_cast<size_t>(t.numel());
  const size_t at = buf_.size();
  buf_.resize(at + bytes);
  std::memcpy(buf_.data() + at, t.data(), bytes);
}

// ---------------------------------------------------------------------------
// WireReader

uint8_t WireReader::U8() {
  if (!ok() || pos_ + 1 > size_) {
    Fail("payload truncated");
    return 0;
  }
  return data_[pos_++];
}

uint16_t WireReader::U16() {
  if (!ok() || pos_ + 2 > size_) {
    Fail("payload truncated");
    return 0;
  }
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

uint32_t WireReader::U32() {
  if (!ok() || pos_ + 4 > size_) {
    Fail("payload truncated");
    return 0;
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

uint64_t WireReader::U64() {
  if (!ok() || pos_ + 8 > size_) {
    Fail("payload truncated");
    return 0;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

double WireReader::F64() {
  const uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::Str() {
  const uint32_t n = U32();
  if (!ok()) return std::string();
  if (n > kMaxStringBytes || pos_ + n > size_) {
    Fail("string length exceeds payload");
    return std::string();
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

Tensor WireReader::TensorValue() {
  const uint8_t defined = U8();
  if (!ok() || defined == 0) return Tensor();
  if (defined != 1) {
    Fail("tensor defined flag must be 0 or 1");
    return Tensor();
  }
  const uint8_t ndim = U8();
  if (!ok()) return Tensor();
  if (ndim > kMaxTensorDims) {
    Fail("tensor rank exceeds limit");
    return Tensor();
  }
  Shape shape(ndim);
  uint64_t numel = 1;
  for (uint8_t d = 0; d < ndim; ++d) {
    const int64_t dim = I64();
    if (!ok()) return Tensor();
    if (dim < 0) {
      Fail("negative tensor dimension");
      return Tensor();
    }
    shape[d] = dim;
    // A fabricated shape cannot claim more elements than the payload holds
    // (checked before the multiply so the product cannot overflow).
    const uint64_t limit = (size_ - pos_) / sizeof(float) + 1;
    if (dim != 0 && numel > limit / static_cast<uint64_t>(dim) + 1) {
      Fail("tensor shape exceeds payload");
      return Tensor();
    }
    numel *= static_cast<uint64_t>(dim);
    if (numel > limit) {
      Fail("tensor shape exceeds payload");
      return Tensor();
    }
  }
  const size_t bytes = sizeof(float) * static_cast<size_t>(numel);
  if (pos_ + bytes > size_) {
    Fail("tensor payload truncated");
    return Tensor();
  }
  Tensor t(shape);
  std::memcpy(t.data(), data_ + pos_, bytes);
  pos_ += bytes;
  return t;
}

Status WireReader::Finish() {
  if (!ok()) return error_;
  if (pos_ != size_) {
    return Status::InvalidArgument("trailing bytes after message payload");
  }
  return Status::OK();
}

void WireReader::Fail(const std::string& why) {
  if (error_.ok()) error_ = Status::InvalidArgument("wire decode: " + why);
  pos_ = size_;  // poison: no further reads succeed
}

// ---------------------------------------------------------------------------
// Status

uint32_t StatusCodeToWire(StatusCode code) {
  // StatusCode values are the wire contract (see util/status.h).
  return static_cast<uint32_t>(code);
}

bool StatusCodeFromWire(uint32_t wire, StatusCode* code) {
  if (wire > static_cast<uint32_t>(StatusCode::kUnavailable)) return false;
  *code = static_cast<StatusCode>(wire);
  return true;
}

void EncodeStatus(const Status& status, WireWriter* w) {
  w->U32(StatusCodeToWire(status.code()));
  w->Str(status.message());
}

Status DecodeStatus(WireReader* r, Status* out) {
  const uint32_t wire = r->U32();
  std::string message = r->Str();
  if (!r->ok()) return Status::InvalidArgument("wire decode: truncated status");
  StatusCode code;
  if (!StatusCodeFromWire(wire, &code)) {
    // A newer peer sent a code this build does not know. Preserve the
    // message; degrade the code to Internal rather than failing the decode.
    *out = Status::Internal("unknown remote status code " +
                            std::to_string(wire) + ": " + message);
    return Status::OK();
  }
  *out = Status::FromCode(code, std::move(message));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Request / response

namespace {

constexpr double kNoDeadlineWire = -1.0;

double RemainingDeadlineMs(serve::ServeClock::time_point deadline) {
  if (deadline == serve::kNoDeadline) return kNoDeadlineWire;
  const double ms =
      std::chrono::duration<double, std::milli>(deadline - serve::ServeClock::now())
          .count();
  // A deadline already in the past still crosses as 0, not the sentinel.
  return std::max(0.0, ms);
}

}  // namespace

void EncodeRequest(const serve::InferenceRequest& request, WireWriter* w) {
  w->I64(request.model_id);
  w->U8(static_cast<uint8_t>(request.task));
  w->U8(static_cast<uint8_t>(request.priority));
  w->U8(request.want_context ? 1 : 0);
  w->U64(request.trace_id);
  w->F64(RemainingDeadlineMs(request.deadline));
  w->TensorValue(request.series);
  w->TensorValue(request.context);
}

Status DecodeRequest(WireReader* r, serve::InferenceRequest* out) {
  serve::InferenceRequest request;
  request.model_id = r->I64();
  const uint8_t task = r->U8();
  const uint8_t priority = r->U8();
  const uint8_t want_context = r->U8();
  request.trace_id = r->U64();
  const double deadline_ms = r->F64();
  request.series = r->TensorValue();
  request.context = r->TensorValue();
  RITA_RETURN_NOT_OK(r->Finish());
  if (task > static_cast<uint8_t>(serve::ServeTask::kReconstruct)) {
    return Status::InvalidArgument("wire decode: unknown serve task " +
                                   std::to_string(task));
  }
  if (priority > static_cast<uint8_t>(serve::Priority::kBatch)) {
    return Status::InvalidArgument("wire decode: unknown priority " +
                                   std::to_string(priority));
  }
  if (want_context > 1) {
    return Status::InvalidArgument("wire decode: want_context flag must be 0/1");
  }
  request.task = static_cast<serve::ServeTask>(task);
  request.priority = static_cast<serve::Priority>(priority);
  request.want_context = want_context == 1;
  if (deadline_ms == kNoDeadlineWire) {
    request.deadline = serve::kNoDeadline;
  } else if (deadline_ms >= 0.0) {
    request.deadline =
        serve::ServeClock::now() +
        std::chrono::duration_cast<serve::ServeClock::duration>(
            std::chrono::duration<double, std::milli>(deadline_ms));
  } else {
    return Status::InvalidArgument("wire decode: negative deadline");
  }
  *out = std::move(request);
  return Status::OK();
}

void EncodeResponse(const serve::InferenceResponse& response, WireWriter* w) {
  EncodeStatus(response.status, w);
  w->I64(response.model_id);
  w->F64(response.queue_ms);
  w->F64(response.compute_ms);
  w->I64(response.micro_batch);
  w->U8(response.cache_hit ? 1 : 0);
  w->TensorValue(response.output);
  w->TensorValue(response.context);
}

Status DecodeResponse(WireReader* r, serve::InferenceResponse* out) {
  serve::InferenceResponse response;
  RITA_RETURN_NOT_OK(DecodeStatus(r, &response.status));
  response.model_id = r->I64();
  response.queue_ms = r->F64();
  response.compute_ms = r->F64();
  response.micro_batch = r->I64();
  const uint8_t cache_hit = r->U8();
  response.output = r->TensorValue();
  response.context = r->TensorValue();
  RITA_RETURN_NOT_OK(r->Finish());
  if (cache_hit > 1) {
    return Status::InvalidArgument("wire decode: cache_hit flag must be 0/1");
  }
  response.cache_hit = cache_hit == 1;
  *out = std::move(response);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Metric families

void EncodeMetricFamilies(
    const std::vector<obs::MetricsRegistry::FamilySnapshot>& families,
    WireWriter* w) {
  w->U32(static_cast<uint32_t>(families.size()));
  for (const auto& family : families) {
    w->Str(family.name);
    w->Str(family.help);
    w->U8(static_cast<uint8_t>(family.type));
    w->U32(static_cast<uint32_t>(family.instances.size()));
    for (const auto& inst : family.instances) {
      w->U32(static_cast<uint32_t>(inst.labels.size()));
      for (const auto& [k, v] : inst.labels) {
        w->Str(k);
        w->Str(v);
      }
      if (family.type == obs::MetricType::kHistogram) {
        // Sparse buckets: almost all of the ~500 log-linear buckets are
        // empty for any one latency distribution.
        const auto& counts = inst.hist.bucket_counts();
        uint32_t nonzero = 0;
        for (uint64_t c : counts) nonzero += (c != 0) ? 1 : 0;
        w->U32(nonzero);
        for (size_t i = 0; i < counts.size(); ++i) {
          if (counts[i] == 0) continue;
          w->U32(static_cast<uint32_t>(i));
          w->U64(counts[i]);
        }
        w->F64(inst.hist.Sum());
        w->F64(inst.hist.Max());
      } else {
        w->F64(inst.value);
      }
    }
  }
}

Status DecodeMetricFamilies(
    WireReader* r, std::vector<obs::MetricsRegistry::FamilySnapshot>* out) {
  std::vector<obs::MetricsRegistry::FamilySnapshot> families;
  const uint32_t nfamilies = r->U32();
  if (nfamilies > kMaxListEntries) {
    return Status::InvalidArgument("wire decode: family count exceeds limit");
  }
  families.reserve(nfamilies);
  for (uint32_t f = 0; f < nfamilies && r->ok(); ++f) {
    obs::MetricsRegistry::FamilySnapshot family;
    family.name = r->Str();
    family.help = r->Str();
    const uint8_t type = r->U8();
    if (!r->ok()) break;
    if (type > static_cast<uint8_t>(obs::MetricType::kHistogram)) {
      return Status::InvalidArgument("wire decode: unknown metric type " +
                                     std::to_string(type));
    }
    family.type = static_cast<obs::MetricType>(type);
    const uint32_t ninstances = r->U32();
    if (ninstances > kMaxListEntries) {
      return Status::InvalidArgument("wire decode: instance count exceeds limit");
    }
    for (uint32_t i = 0; i < ninstances && r->ok(); ++i) {
      obs::MetricsRegistry::InstanceSnapshot inst;
      const uint32_t nlabels = r->U32();
      if (nlabels > kMaxListEntries) {
        return Status::InvalidArgument("wire decode: label count exceeds limit");
      }
      for (uint32_t l = 0; l < nlabels && r->ok(); ++l) {
        std::string k = r->Str();
        std::string v = r->Str();
        inst.labels.emplace_back(std::move(k), std::move(v));
      }
      if (family.type == obs::MetricType::kHistogram) {
        const uint32_t nonzero = r->U32();
        std::vector<uint64_t> counts(obs::HistogramLayout::kNumBuckets, 0);
        if (nonzero > static_cast<uint32_t>(obs::HistogramLayout::kNumBuckets)) {
          return Status::InvalidArgument(
              "wire decode: histogram bucket count exceeds layout");
        }
        for (uint32_t b = 0; b < nonzero && r->ok(); ++b) {
          const uint32_t index = r->U32();
          const uint64_t count = r->U64();
          if (index >= counts.size()) {
            return Status::InvalidArgument(
                "wire decode: histogram bucket index out of range");
          }
          counts[index] = count;
        }
        const double sum = r->F64();
        const double max = r->F64();
        if (!r->ok()) break;
        inst.hist =
            obs::HistogramSnapshot::FromParts(std::move(counts), sum, max);
        inst.value = static_cast<double>(inst.hist.Count());
      } else {
        inst.value = r->F64();
      }
      family.instances.push_back(std::move(inst));
    }
    families.push_back(std::move(family));
  }
  RITA_RETURN_NOT_OK(r->Finish());
  *out = std::move(families);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Model sets

void EncodeModelSet(const std::vector<serve::ModelInfo>& models, WireWriter* w) {
  w->U32(static_cast<uint32_t>(models.size()));
  for (const auto& m : models) {
    w->Str(m.name);
    w->U64(m.fingerprint);
    w->U8(static_cast<uint8_t>(m.precision));
    w->I64(m.weight_bytes);
    w->I64(m.num_groups);
  }
}

Status DecodeModelSet(WireReader* r, std::vector<serve::ModelInfo>* out) {
  std::vector<serve::ModelInfo> models;
  const uint32_t n = r->U32();
  if (n > kMaxListEntries) {
    return Status::InvalidArgument("wire decode: model count exceeds limit");
  }
  models.reserve(n);
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    serve::ModelInfo m;
    m.name = r->Str();
    m.fingerprint = r->U64();
    const uint8_t precision = r->U8();
    if (!r->ok()) break;
    if (precision != static_cast<uint8_t>(Precision::kFp32) &&
        precision != static_cast<uint8_t>(Precision::kBf16)) {
      return Status::InvalidArgument("wire decode: unknown precision " +
                                     std::to_string(precision));
    }
    m.precision = static_cast<Precision>(precision);
    m.weight_bytes = r->I64();
    m.num_groups = r->I64();
    models.push_back(std::move(m));
  }
  RITA_RETURN_NOT_OK(r->Finish());
  *out = std::move(models);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Routing key

uint64_t RouteKey(const serve::InferenceRequest& request) {
  uint64_t h = Fnv1a64Value(request.model_id, kFnv1a64OffsetBasis);
  h = Fnv1a64Value(static_cast<uint8_t>(request.task), h);
  if (request.series.defined()) {
    // Shape first (length-prefixed style), then the raw float payload, so
    // [2,3] and [3,2] views of the same bytes route independently.
    h = Fnv1a64Value<uint64_t>(static_cast<uint64_t>(request.series.dim()), h);
    for (int64_t d = 0; d < request.series.dim(); ++d) {
      h = Fnv1a64Value(request.series.size(d), h);
    }
    h = Fnv1a64(request.series.data(),
                sizeof(float) * static_cast<size_t>(request.series.numel()), h);
  }
  return h;
}

}  // namespace dist
}  // namespace rita
