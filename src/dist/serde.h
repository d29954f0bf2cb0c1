// Wire serialization for the distributed serving layer — the single source
// of truth for how a Status, InferenceRequest, InferenceResponse,
// metric-family snapshot, or model-set snapshot is packed into bytes. Every
// call site (replica server, router, tests, bench) goes
// through these Encode*/Decode* pairs; nothing else in the repo touches the
// byte layout, so the round-trip property test in tests/dist_test.cc pins
// the format in one place.
//
// Layout rules:
//   - little-endian fixed-width integers, IEEE-754 doubles/floats by bit
//     pattern (bitwise round-trip — distributed bit-identity with the local
//     engine depends on it);
//   - strings and tensors are length-prefixed; tensors carry their shape;
//   - StatusCode crosses the wire as its stable numeric value (see
//     util/status.h — values are append-only);
//   - deadlines cross as *remaining milliseconds* relative to encode time
//     (steady_clock points are meaningless in another process); -1 = none;
//   - histogram snapshots are sparse: (bucket index, count) pairs for the
//     non-empty buckets only.
//
// Decoders never crash on garbage: every read is bounds-checked against the
// payload, every enum value validated, and failure surfaces as a typed
// Status (kInvalidArgument) with the buffer left untouched semantically.
#ifndef RITA_DIST_SERDE_H_
#define RITA_DIST_SERDE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "serve/request_queue.h"
#include "util/status.h"

namespace rita {
namespace dist {

// ---------------------------------------------------------------------------
// Byte-level primitives.

/// Append-only little-endian byte buffer.
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  void Str(const std::string& s);
  /// Tensor: 1-byte defined flag; when defined, u8 ndim + i64 dims + raw
  /// float32 payload (bit pattern — bitwise round-trip).
  void TensorValue(const Tensor& t);

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked reader with a sticky error: the first out-of-bounds read
/// or validation failure latches a non-OK status, and every later read
/// returns a zero value. Call sites read a whole message linearly and check
/// Finish() once at the end.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::vector<uint8_t>& buf)
      : WireReader(buf.data(), buf.size()) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64();
  std::string Str();
  Tensor TensorValue();

  bool ok() const { return error_.ok(); }
  /// OK iff every read succeeded AND the payload was consumed exactly (no
  /// trailing garbage).
  Status Finish();
  /// Marks the reader failed (decoder-level validation, e.g. a bad enum).
  void Fail(const std::string& why);

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  Status error_;
};

// ---------------------------------------------------------------------------
// Status.

/// StatusCode <-> stable wire value. FromWire returns false for values no
/// known code owns (a newer peer); the caller maps those to kInternal.
uint32_t StatusCodeToWire(StatusCode code);
bool StatusCodeFromWire(uint32_t wire, StatusCode* code);

void EncodeStatus(const Status& status, WireWriter* w);
Status DecodeStatus(WireReader* r, Status* out);

// ---------------------------------------------------------------------------
// Request / response.

void EncodeRequest(const serve::InferenceRequest& request, WireWriter* w);
Status DecodeRequest(WireReader* r, serve::InferenceRequest* out);

void EncodeResponse(const serve::InferenceResponse& response, WireWriter* w);
Status DecodeResponse(WireReader* r, serve::InferenceResponse* out);

// ---------------------------------------------------------------------------
// Metric family snapshots (fleet stats and fleet Prometheus merge).

void EncodeMetricFamilies(
    const std::vector<obs::MetricsRegistry::FamilySnapshot>& families,
    WireWriter* w);
Status DecodeMetricFamilies(
    WireReader* r, std::vector<obs::MetricsRegistry::FamilySnapshot>* out);

// ---------------------------------------------------------------------------
// Model-set snapshots (router-side fleet consistency diff).

void EncodeModelSet(const std::vector<serve::ModelInfo>& models, WireWriter* w);
Status DecodeModelSet(WireReader* r, std::vector<serve::ModelInfo>* out);

// ---------------------------------------------------------------------------
// Routing key.

/// Deterministic 64-bit key over (model_id, task, series content): identical
/// requests always map to the same replica, so each replica's result cache
/// holds a disjoint shard of the fleet's working set.
uint64_t RouteKey(const serve::InferenceRequest& request);

}  // namespace dist
}  // namespace rita

#endif  // RITA_DIST_SERDE_H_
