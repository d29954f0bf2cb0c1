// Tests for the distributed serving layer: the wire format's round-trip
// property (serde is the single source of truth — these tests pin it), the
// framed transport's behavior under hostile input (partial reads, garbage,
// version skew, truncation — every failure a typed Status, never a crash),
// the serve::Client conformance contract (LocalClient and RemoteClient are
// interchangeable, bit-identically), and the router's consistent hashing,
// typed backpressure, and replica-death handling. Everything here runs
// in-process (threads + loopback sockets); the separate
// dist_integration_test forks real replica processes.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/replica_server.h"
#include "dist/router.h"
#include "dist/serde.h"
#include "dist/transport.h"
#include "linalg/kernels/kernels.h"
#include "serve/client.h"
#include "serve/frozen_model.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"

namespace rita {
namespace dist {
namespace {

model::RitaConfig SmallConfig() {
  model::RitaConfig config;
  config.input_channels = 2;
  config.input_length = 60;
  config.window = 5;
  config.stride = 5;
  config.num_classes = 4;
  config.encoder.dim = 16;
  config.encoder.num_layers = 2;
  config.encoder.num_heads = 2;
  config.encoder.ffn_hidden = 32;
  config.encoder.attention.kind = attn::AttentionKind::kGroup;
  config.encoder.attention.group.num_groups = 4;
  return config;
}

Tensor MakeSeries(int64_t t, int64_t c, uint64_t seed) {
  Rng rng(seed);
  return Tensor::RandNormal({t, c}, &rng);
}

float FloatFromBits(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

// ---------------------------------------------------------------------------
// Status wire contract.

TEST(DistSerdeTest, StatusCodeWireValuesArePinned) {
  // These numeric values ARE the cross-version wire contract (util/status.h
  // declares them append-only). A failure here means an enum value moved —
  // which would silently corrupt every deployed fleet's error taxonomy.
  EXPECT_EQ(StatusCodeToWire(StatusCode::kOk), 0u);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kInvalidArgument), 1u);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kNotFound), 2u);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kOutOfMemory), 3u);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kIoError), 4u);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kNotSupported), 5u);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kInternal), 6u);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kDeadlineUnmeetable), 7u);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kUnavailable), 8u);

  for (uint32_t wire = 0; wire <= 8; ++wire) {
    StatusCode code;
    ASSERT_TRUE(StatusCodeFromWire(wire, &code)) << wire;
    EXPECT_EQ(StatusCodeToWire(code), wire);
  }
  StatusCode code;
  EXPECT_FALSE(StatusCodeFromWire(999, &code));
}

TEST(DistSerdeTest, StatusRoundTripsEveryCode) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfMemory, StatusCode::kIoError,
        StatusCode::kNotSupported, StatusCode::kInternal,
        StatusCode::kDeadlineUnmeetable, StatusCode::kUnavailable}) {
    Status original = Status::FromCode(code, code == StatusCode::kOk
                                                 ? ""
                                                 : "message for the wire");
    WireWriter w;
    EncodeStatus(original, &w);
    WireReader r(w.buffer());
    Status decoded;
    ASSERT_TRUE(DecodeStatus(&r, &decoded).ok());
    ASSERT_TRUE(r.Finish().ok());
    EXPECT_EQ(decoded.code(), original.code());
    EXPECT_EQ(decoded.message(), original.message());
  }
}

TEST(DistSerdeTest, UnknownWireCodeMapsToInternalNotCrash) {
  // A newer peer may send a code this build does not know. The decode stays
  // OK (the frame is well-formed) and the code degrades to kInternal with
  // the message preserved.
  WireWriter w;
  w.U32(57);  // no such StatusCode
  w.Str("from the future");
  WireReader r(w.buffer());
  Status decoded;
  ASSERT_TRUE(DecodeStatus(&r, &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kInternal);
  EXPECT_NE(decoded.message().find("from the future"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Request / response round-trip property.

serve::InferenceRequest RandomRequest(Rng* rng, uint64_t seed) {
  serve::InferenceRequest request;
  const int64_t t = 5 + static_cast<int64_t>(rng->NextU64() % 56);
  request.series = MakeSeries(t, 2, seed);
  request.task = static_cast<serve::ServeTask>(rng->NextU64() % 3);
  request.priority = static_cast<serve::Priority>(rng->NextU64() % 2);
  request.model_id = static_cast<int64_t>(rng->NextU64() % 4);
  request.want_context = (rng->NextU64() % 2) == 0;
  request.trace_id = rng->NextU64();
  if (rng->NextU64() % 3 == 0) {
    Rng ctx_rng(seed ^ 0x9e3779b97f4a7c15ull);
    request.context = Tensor::RandNormal({16}, &ctx_rng);
  }
  return request;
}

TEST(DistSerdeTest, RequestRoundTripIsByteStable) {
  // Property: decode(encode(x)) == x field-for-field AND
  // encode(decode(encode(x))) == encode(x) byte-for-byte. Byte stability is
  // what lets the replica's cache key (computed over the decoded request)
  // match across processes. Deadlines are excluded here — they cross the
  // wire as remaining-time and are re-anchored on decode (tested below).
  // The last input carries NaN (two payloads, both signs) and +-Inf in the
  // series and the context: the wire moves them bit for bit; the replica
  // engine's typed rejection is
  // ClientConformanceTest.NonFiniteRequestsAreTypedThroughEveryBackend.
  Rng rng(1234);
  for (int iter = 0; iter <= 50; ++iter) {
    serve::InferenceRequest original = RandomRequest(&rng, 1000 + iter);
    if (iter == 50) {
      const float specials[] = {FloatFromBits(0x7fc01234u),
                                FloatFromBits(0xffc00001u),
                                std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity()};
      original.context = Tensor::Zeros({16});
      for (int i = 0; i < 4; ++i) {
        original.series.data()[i] = specials[i];
        original.context.data()[i] = specials[3 - i];
      }
    }
    WireWriter w1;
    EncodeRequest(original, &w1);

    WireReader r(w1.buffer());
    serve::InferenceRequest decoded;
    ASSERT_TRUE(DecodeRequest(&r, &decoded).ok());
    ASSERT_TRUE(r.Finish().ok());

    EXPECT_EQ(decoded.task, original.task);
    EXPECT_EQ(decoded.priority, original.priority);
    EXPECT_EQ(decoded.model_id, original.model_id);
    EXPECT_EQ(decoded.want_context, original.want_context);
    EXPECT_EQ(decoded.trace_id, original.trace_id);
    EXPECT_EQ(decoded.deadline, serve::kNoDeadline);
    EXPECT_TRUE(BitEqual(decoded.series, original.series));
    EXPECT_EQ(decoded.context.defined(), original.context.defined());
    if (original.context.defined()) {
      EXPECT_TRUE(BitEqual(decoded.context, original.context));
    }

    WireWriter w2;
    EncodeRequest(decoded, &w2);
    EXPECT_EQ(w1.buffer(), w2.buffer()) << "re-encode diverged, iter " << iter;
  }
}

TEST(DistSerdeTest, DeadlineCrossesAsRemainingTime) {
  serve::InferenceRequest request;
  request.series = MakeSeries(10, 2, 7);
  request.deadline = serve::ServeClock::now() + std::chrono::milliseconds(500);
  WireWriter w;
  EncodeRequest(request, &w);
  WireReader r(w.buffer());
  serve::InferenceRequest decoded;
  ASSERT_TRUE(DecodeRequest(&r, &decoded).ok());
  ASSERT_NE(decoded.deadline, serve::kNoDeadline);
  const double remaining_ms =
      std::chrono::duration<double, std::milli>(decoded.deadline -
                                                serve::ServeClock::now())
          .count();
  EXPECT_GT(remaining_ms, 0.0);
  EXPECT_LE(remaining_ms, 500.0 + 1e-3);

  // A deadline already in the past crosses as zero remaining, not negative
  // garbage — the receiving engine counts it as missed when it resolves.
  serve::InferenceRequest late;
  late.series = MakeSeries(10, 2, 8);
  late.deadline = serve::ServeClock::now() - std::chrono::seconds(5);
  WireWriter w2;
  EncodeRequest(late, &w2);
  WireReader r2(w2.buffer());
  serve::InferenceRequest decoded_late;
  ASSERT_TRUE(DecodeRequest(&r2, &decoded_late).ok());
  EXPECT_LE(decoded_late.deadline, serve::ServeClock::now());
}

TEST(DistSerdeTest, ResponseRoundTripsBitwise) {
  Rng rng(99);
  for (int iter = 0; iter < 30; ++iter) {
    serve::InferenceResponse original;
    original.status = (iter % 4 == 0)
                          ? Status::OutOfMemory("backpressure")
                          : Status::OK();
    Rng out_rng(500 + iter);
    original.output = Tensor::RandNormal(
        {1 + static_cast<int64_t>(rng.NextU64() % 8)}, &out_rng);
    original.queue_ms = 0.25 * iter;
    original.compute_ms = 1.5 * iter;
    original.micro_batch = iter % 7;
    original.cache_hit = (iter % 3) == 0;
    original.model_id = iter % 5;
    if (iter % 2 == 0) {
      Rng ctx_rng(900 + iter);
      original.context = Tensor::RandNormal({16}, &ctx_rng);
    }

    WireWriter w1;
    EncodeResponse(original, &w1);
    WireReader r(w1.buffer());
    serve::InferenceResponse decoded;
    ASSERT_TRUE(DecodeResponse(&r, &decoded).ok());
    ASSERT_TRUE(r.Finish().ok());

    EXPECT_EQ(decoded.status.code(), original.status.code());
    EXPECT_EQ(decoded.queue_ms, original.queue_ms);
    EXPECT_EQ(decoded.compute_ms, original.compute_ms);
    EXPECT_EQ(decoded.micro_batch, original.micro_batch);
    EXPECT_EQ(decoded.cache_hit, original.cache_hit);
    EXPECT_EQ(decoded.model_id, original.model_id);
    EXPECT_TRUE(BitEqual(decoded.output, original.output));

    WireWriter w2;
    EncodeResponse(decoded, &w2);
    EXPECT_EQ(w1.buffer(), w2.buffer());
  }
}

TEST(DistSerdeTest, ModelSetRoundTrips) {
  std::vector<serve::ModelInfo> models;
  serve::ModelInfo m;
  m.name = "rita-group-4";
  m.fingerprint = 0xdeadbeefcafef00dull;
  m.precision = Precision::kFp32;
  m.weight_bytes = 12345;
  m.num_groups = 4;
  models.push_back(m);
  m.name = "rita-bf16";
  m.precision = Precision::kBf16;
  models.push_back(m);

  WireWriter w;
  EncodeModelSet(models, &w);
  WireReader r(w.buffer());
  std::vector<serve::ModelInfo> decoded;
  ASSERT_TRUE(DecodeModelSet(&r, &decoded).ok());
  ASSERT_TRUE(r.Finish().ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].name, "rita-group-4");
  EXPECT_EQ(decoded[0].fingerprint, 0xdeadbeefcafef00dull);
  EXPECT_EQ(decoded[1].precision, Precision::kBf16);
  EXPECT_EQ(decoded[1].num_groups, 4);
}

// Byte 1 named the retired int8 variant; a peer that still sends it gets a
// typed rejection, while 0 (fp32) and 2 (bf16) keep their meaning.
TEST(DistSerdeTest, ModelSetRejectsRetiredPrecisionByte) {
  for (const uint8_t precision : {0, 1, 2, 3}) {
    WireWriter w;
    w.U32(1);
    w.Str("m");
    w.U64(0x1234);
    w.U8(precision);
    w.I64(100);
    w.I64(4);
    WireReader r(w.buffer());
    std::vector<serve::ModelInfo> decoded;
    const Status status = DecodeModelSet(&r, &decoded);
    if (precision == 0 || precision == 2) {
      ASSERT_TRUE(status.ok()) << status.ToString();
      ASSERT_EQ(decoded.size(), 1u);
      EXPECT_EQ(static_cast<uint8_t>(decoded[0].precision), precision);
    } else {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(status.message().find("unknown precision " +
                                      std::to_string(precision)),
                std::string::npos)
          << status.ToString();
    }
  }
}

TEST(DistSerdeTest, GarbageBytesNeverCrashDecoders) {
  // Fuzz-style: random byte strings through every decoder. The property is
  // "typed error or valid decode, never a crash / sanitizer report / huge
  // allocation". Run under ASan/UBSan in CI.
  Rng rng(31337);
  for (int iter = 0; iter < 300; ++iter) {
    const size_t n = rng.NextU64() % 256;
    std::vector<uint8_t> bytes(n);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.NextU64());

    {
      WireReader r(bytes);
      serve::InferenceRequest out;
      (void)DecodeRequest(&r, &out);
    }
    {
      WireReader r(bytes);
      serve::InferenceResponse out;
      (void)DecodeResponse(&r, &out);
    }
    {
      WireReader r(bytes);
      std::vector<obs::MetricsRegistry::FamilySnapshot> out;
      (void)DecodeMetricFamilies(&r, &out);
    }
    {
      WireReader r(bytes);
      std::vector<serve::ModelInfo> out;
      (void)DecodeModelSet(&r, &out);
    }
  }
}

TEST(DistSerdeTest, TruncatedValidRequestIsTypedError) {
  // Every strict prefix of a valid encoding must fail with a typed status,
  // not decode to something else (Finish() also catches trailing bytes).
  Rng rng(5);
  serve::InferenceRequest request = RandomRequest(&rng, 77);
  WireWriter w;
  EncodeRequest(request, &w);
  const std::vector<uint8_t>& full = w.buffer();
  for (size_t cut : {size_t{0}, size_t{1}, full.size() / 2, full.size() - 1}) {
    WireReader r(full.data(), cut);
    serve::InferenceRequest out;
    Status st = DecodeRequest(&r, &out);
    if (st.ok()) st = r.Finish();
    EXPECT_FALSE(st.ok()) << "prefix of " << cut << " bytes decoded";
  }
}

TEST(DistSerdeTest, RouteKeyIsDeterministicAndContentSensitive) {
  serve::InferenceRequest a;
  a.series = MakeSeries(60, 2, 42);
  a.model_id = 1;
  serve::InferenceRequest same;
  same.series = MakeSeries(60, 2, 42);  // same seed => same bytes
  same.model_id = 1;
  EXPECT_EQ(RouteKey(a), RouteKey(same));

  serve::InferenceRequest different_content;
  different_content.series = MakeSeries(60, 2, 43);
  different_content.model_id = 1;
  EXPECT_NE(RouteKey(a), RouteKey(different_content));

  serve::InferenceRequest different_model = same;
  different_model.series = MakeSeries(60, 2, 42);
  different_model.model_id = 2;
  EXPECT_NE(RouteKey(a), RouteKey(different_model));

  // trace_id and priority are delivery metadata, not content: they must NOT
  // change the routing (or retries would lose cache affinity).
  serve::InferenceRequest retried;
  retried.series = MakeSeries(60, 2, 42);
  retried.model_id = 1;
  retried.trace_id = 999;
  retried.priority = serve::Priority::kBatch;
  EXPECT_EQ(RouteKey(a), RouteKey(retried));
}

// ---------------------------------------------------------------------------
// Framed transport over a socketpair (fuzz-style hostile peers).

struct SocketPair {
  Connection a, b;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = Connection(fds[0]);
    b = Connection(fds[1]);
  }
};

void SendRaw(Connection& c, const void* data, size_t n) {
  ASSERT_EQ(::send(c.fd(), data, n, 0), static_cast<ssize_t>(n));
}

TEST(DistTransportTest, FrameRoundTripsOverSocketpair) {
  SocketPair sp;
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(sp.a.WriteFrame(MessageType::kRequest, payload).ok());
  MessageType type;
  std::vector<uint8_t> got;
  ASSERT_TRUE(sp.b.ReadFrame(&type, &got, 1000.0, 1000.0).ok());
  EXPECT_EQ(type, MessageType::kRequest);
  EXPECT_EQ(got, payload);
}

TEST(DistTransportTest, PartialWritesReassembleIntoOneFrame) {
  // A slow peer dribbling one byte at a time must still deliver a complete
  // frame — ReadFrame loops on short reads with the io timeout per chunk.
  SocketPair sp;
  WireWriter w;
  w.Str("dribbled payload");
  std::vector<uint8_t> frame;
  {
    // Build the full frame by writing into a second socketpair and reading
    // the raw bytes back — keeps the header layout knowledge in one place.
    SocketPair staging;
    ASSERT_TRUE(staging.a.WriteFrame(MessageType::kPing, w.buffer()).ok());
    frame.resize(kFrameHeaderBytes + w.buffer().size());
    ASSERT_EQ(::recv(staging.b.fd(), frame.data(), frame.size(), MSG_WAITALL),
              static_cast<ssize_t>(frame.size()));
  }
  std::thread dribbler([&] {
    for (uint8_t byte : frame) {
      SendRaw(sp.a, &byte, 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  MessageType type;
  std::vector<uint8_t> got;
  Status st = sp.b.ReadFrame(&type, &got, 5000.0, 5000.0);
  dribbler.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(type, MessageType::kPing);
  EXPECT_EQ(got, w.buffer());
}

TEST(DistTransportTest, BadMagicIsTypedInvalidArgument) {
  SocketPair sp;
  const uint8_t garbage[12] = {'G', 'E', 'T', ' ', '/', ' ',
                               'H', 'T', 'T', 'P', '/', '1'};
  SendRaw(sp.a, garbage, sizeof(garbage));
  MessageType type;
  std::vector<uint8_t> payload;
  Status st = sp.b.ReadFrame(&type, &payload, 1000.0, 1000.0);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("magic"), std::string::npos);
}

// Both directions of skew, including a peer still on the previous layout
// (v2 still spoke the stats pull/reply pair), fail typed, not as a decode
// error on the payload.
TEST(DistTransportTest, VersionSkewIsTypedNotSupported) {
  for (const uint16_t wrong_version : {static_cast<uint16_t>(kWireVersion - 1),
                                       static_cast<uint16_t>(kWireVersion + 1)}) {
    SocketPair sp;
    uint8_t header[12] = {0};
    const uint32_t magic = kFrameMagic;
    const uint16_t type_req = 1;
    const uint32_t len = 0;
    std::memcpy(header + 0, &magic, 4);
    std::memcpy(header + 4, &wrong_version, 2);
    std::memcpy(header + 6, &type_req, 2);
    std::memcpy(header + 8, &len, 4);
    SendRaw(sp.a, header, sizeof(header));
    MessageType type;
    std::vector<uint8_t> payload;
    EXPECT_EQ(sp.b.ReadFrame(&type, &payload, 1000.0, 1000.0).code(),
              StatusCode::kNotSupported)
        << "version " << wrong_version;
  }
}

// Wire values 3 and 4 (the stats pull/reply pair removed in v3) are unknown
// types now, rejected like any other: typed, before the payload is read.
TEST(DistTransportTest, RetiredStatsMessageTypesAreTypedInvalidArgument) {
  for (const uint16_t retired : {uint16_t{3}, uint16_t{4}}) {
    SocketPair sp;
    uint8_t header[12] = {0};
    const uint32_t magic = kFrameMagic;
    const uint16_t version = kWireVersion;
    const uint32_t len = 0;
    std::memcpy(header + 0, &magic, 4);
    std::memcpy(header + 4, &version, 2);
    std::memcpy(header + 6, &retired, 2);
    std::memcpy(header + 8, &len, 4);
    SendRaw(sp.a, header, sizeof(header));
    MessageType type;
    std::vector<uint8_t> payload;
    Status st = sp.b.ReadFrame(&type, &payload, 1000.0, 1000.0);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "type " << retired;
    EXPECT_NE(st.message().find("unknown message type"), std::string::npos)
        << st.ToString();
  }
}

TEST(DistTransportTest, OversizedLengthPrefixRejectedBeforeAllocation) {
  SocketPair sp;
  uint8_t header[12] = {0};
  const uint32_t magic = kFrameMagic;
  const uint16_t version = kWireVersion;
  const uint16_t type_req = 1;
  const uint32_t hostile_len = 0xFFFFFFFFu;  // 4 GiB claim
  std::memcpy(header + 0, &magic, 4);
  std::memcpy(header + 4, &version, 2);
  std::memcpy(header + 6, &type_req, 2);
  std::memcpy(header + 8, &hostile_len, 4);
  SendRaw(sp.a, header, sizeof(header));
  MessageType type;
  std::vector<uint8_t> payload;
  Status st = sp.b.ReadFrame(&type, &payload, 1000.0, 1000.0);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(payload.empty()) << "allocated for a hostile length prefix";
}

TEST(DistTransportTest, MidFrameDisconnectIsTypedIoError) {
  SocketPair sp;
  uint8_t header[12] = {0};
  const uint32_t magic = kFrameMagic;
  const uint16_t version = kWireVersion;
  const uint16_t type_req = 1;
  const uint32_t len = 100;  // promise 100 bytes...
  std::memcpy(header + 0, &magic, 4);
  std::memcpy(header + 4, &version, 2);
  std::memcpy(header + 6, &type_req, 2);
  std::memcpy(header + 8, &len, 4);
  SendRaw(sp.a, header, sizeof(header));
  const uint8_t partial[10] = {0};  // ...deliver 10...
  SendRaw(sp.a, partial, sizeof(partial));
  sp.a.Close();  // ...vanish.
  MessageType type;
  std::vector<uint8_t> payload;
  ReadEvent event;
  Status st = sp.b.ReadFrame(&type, &payload, 1000.0, 1000.0, &event);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_FALSE(event.clean_eof);  // truncation, NOT an orderly close
}

TEST(DistTransportTest, TruncatedHeaderDisconnectIsTypedIoError) {
  SocketPair sp;
  const uint32_t magic = kFrameMagic;
  SendRaw(sp.a, &magic, 4);  // 4 of 12 header bytes
  sp.a.Close();
  MessageType type;
  std::vector<uint8_t> payload;
  ReadEvent event;
  EXPECT_EQ(sp.b.ReadFrame(&type, &payload, 1000.0, 1000.0, &event).code(),
            StatusCode::kIoError);
  EXPECT_FALSE(event.clean_eof);
}

TEST(DistTransportTest, CleanCloseAtFrameBoundaryIsFlagged) {
  SocketPair sp;
  sp.a.Close();
  MessageType type;
  std::vector<uint8_t> payload;
  ReadEvent event;
  Status st = sp.b.ReadFrame(&type, &payload, 1000.0, 1000.0, &event);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(event.clean_eof) << "orderly close mistaken for an error";
}

TEST(DistTransportTest, IdleTimeoutIsFlaggedAndDistinctFromStall) {
  SocketPair sp;
  MessageType type;
  std::vector<uint8_t> payload;
  ReadEvent event;
  Status st = sp.b.ReadFrame(&type, &payload, /*idle_timeout_ms=*/50.0,
                             /*io_timeout_ms=*/5000.0, &event);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(event.idle_timeout);
  EXPECT_FALSE(event.clean_eof);
}

TEST(DistTransportTest, RandomGarbageStreamsNeverCrashTheReader) {
  Rng rng(8675309);
  for (int iter = 0; iter < 50; ++iter) {
    SocketPair sp;
    const size_t n = 1 + rng.NextU64() % 64;
    std::vector<uint8_t> junk(n);
    for (auto& b : junk) b = static_cast<uint8_t>(rng.NextU64());
    SendRaw(sp.a, junk.data(), junk.size());
    sp.a.Close();
    MessageType type;
    std::vector<uint8_t> payload;
    Status st = sp.b.ReadFrame(&type, &payload, 200.0, 200.0);
    EXPECT_FALSE(st.ok());  // nothing 64 random bytes encode is a valid frame
  }
}

TEST(DistTransportTest, ConnectToDeadPortIsTypedUnavailable) {
  // Bind-then-close to obtain a port with nothing listening.
  Listener listener;
  ASSERT_TRUE(listener.Bind("127.0.0.1", 0).ok());
  const int dead_port = listener.port();
  listener.Close();
  Result<Connection> conn = Connection::Connect("127.0.0.1", dead_port, 500.0);
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.status().code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// ModelRegistry snapshots (hot-swap groundwork).

TEST(ModelRegistrySnapshotTest, SnapshotIsImmutableAcrossRegistration) {
  model::RitaConfig config = SmallConfig();
  Rng rng(11);
  model::RitaModel source(config, &rng);
  serve::FrozenModel frozen_a(source);
  serve::FrozenModel frozen_b(source);

  serve::ModelRegistry registry;
  registry.Register("model-a", &frozen_a);
  auto snapshot_one = registry.Snapshot();
  ASSERT_EQ(snapshot_one->size(), 1u);
  EXPECT_EQ((*snapshot_one)[0].name, "model-a");
  EXPECT_EQ((*snapshot_one)[0].fingerprint, frozen_a.Fingerprint());

  registry.Register("model-b", &frozen_b);
  // The old snapshot is a frozen view: later registrations must not mutate
  // it (readers hold it lock-free across the swap).
  EXPECT_EQ(snapshot_one->size(), 1u);
  auto snapshot_two = registry.Snapshot();
  ASSERT_EQ(snapshot_two->size(), 2u);
  EXPECT_EQ((*snapshot_two)[1].name, "model-b");
}

// ---------------------------------------------------------------------------
// Client conformance: LocalClient and RemoteClient behind serve::Client.

struct Replica {
  std::unique_ptr<serve::FrozenModel> frozen;
  std::unique_ptr<serve::InferenceEngine> engine;
  std::unique_ptr<ReplicaServer> server;
};

// One replica: its own frozen copy of the same source model (same seed =>
// same weights => same fingerprint), its own engine, a loopback server.
Replica MakeReplica(model::RitaModel& source) {
  Replica r;
  r.frozen = std::make_unique<serve::FrozenModel>(source);
  serve::InferenceEngineOptions options;
  options.num_workers = 2;
  r.engine = std::make_unique<serve::InferenceEngine>(r.frozen.get(), options);
  r.server = std::make_unique<ReplicaServer>(r.engine.get(),
                                             ReplicaServerOptions{});
  EXPECT_TRUE(r.server->Start().ok());
  return r;
}

// Exercises any serve::Client the same way; returns the classify outputs so
// callers can bit-compare across backends.
std::vector<Tensor> RunClientWorkload(serve::Client& client) {
  std::vector<Tensor> outputs;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    serve::InferenceRequest request;
    request.series = MakeSeries(60, 2, 100 + seed);
    request.task = serve::ServeTask::kClassify;
    serve::InferenceResponse response = client.SubmitAndWait(std::move(request));
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    outputs.push_back(response.output);
  }
  // Embed and reconstruct also flow through the same Submit surface.
  serve::InferenceRequest embed;
  embed.series = MakeSeries(35, 2, 200);
  embed.task = serve::ServeTask::kEmbed;
  serve::InferenceResponse er = client.SubmitAndWait(std::move(embed));
  EXPECT_TRUE(er.status.ok()) << er.status.ToString();
  outputs.push_back(er.output);

  serve::InferenceRequest recon;
  recon.series = MakeSeries(50, 2, 300);
  recon.task = serve::ServeTask::kReconstruct;
  serve::InferenceResponse rr = client.SubmitAndWait(std::move(recon));
  EXPECT_TRUE(rr.status.ok()) << rr.status.ToString();
  outputs.push_back(rr.output);

  // Invalid input surfaces as the same typed rejection through any backend.
  serve::InferenceRequest bad;
  bad.series = Tensor::Zeros({1, 60, 2});  // wrong rank
  EXPECT_EQ(client.SubmitAndWait(std::move(bad)).status.code(),
            StatusCode::kInvalidArgument);
  return outputs;
}

TEST(ClientConformanceTest, LocalAndRemoteBackendsAreBitIdentical) {
  model::RitaConfig config = SmallConfig();
  Rng rng(77);
  model::RitaModel source(config, &rng);

  // Local backend.
  serve::FrozenModel frozen(source);
  serve::InferenceEngineOptions options;
  options.num_workers = 2;
  serve::InferenceEngine engine(&frozen, options);
  serve::LocalClient local(&engine);
  std::vector<Tensor> local_outputs = RunClientWorkload(local);
  EXPECT_GE(local.Stats().completed, 8u);

  // Remote backend: two replicas behind a router, same source weights.
  Replica r0 = MakeReplica(source);
  Replica r1 = MakeReplica(source);
  RouterOptions ropts;
  Router router(ropts);
  router.AddReplica("127.0.0.1", r0.server->port());
  router.AddReplica("127.0.0.1", r1.server->port());
  ASSERT_TRUE(router.Start().ok());
  RemoteClient remote(&router);
  std::vector<Tensor> remote_outputs = RunClientWorkload(remote);

  ASSERT_EQ(local_outputs.size(), remote_outputs.size());
  for (size_t i = 0; i < local_outputs.size(); ++i) {
    EXPECT_TRUE(BitEqual(local_outputs[i], remote_outputs[i]))
        << "output " << i << " diverges between local and remote backends";
  }
  // The fleet served everything the local engine served.
  serve::InferenceEngineStats fleet = remote.Stats();
  EXPECT_GE(fleet.completed, 8u);

  remote.Shutdown();
  local.Shutdown();
}

// NaN and Inf samples get the same typed rejection through a local engine
// and through a replica behind the router, on either kernel backend; the
// replica keeps serving finite requests afterwards.
TEST(ClientConformanceTest, NonFiniteRequestsAreTypedThroughEveryBackend) {
  const kernels::Backend restore = kernels::ActiveBackend();
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::SimdAvailable()) backends.push_back(kernels::Backend::kSimd);
  model::RitaConfig config = SmallConfig();
  Rng rng(79);
  model::RitaModel source(config, &rng);
  for (kernels::Backend backend : backends) {
    kernels::SetBackendForTesting(backend);
    serve::FrozenModel frozen(source);
    serve::InferenceEngine engine(&frozen, serve::InferenceEngineOptions{});
    serve::LocalClient local(&engine);
    Replica replica = MakeReplica(source);
    Router router;
    router.AddReplica("127.0.0.1", replica.server->port());
    ASSERT_TRUE(router.Start().ok());
    RemoteClient remote(&router);
    for (serve::Client* client : {static_cast<serve::Client*>(&local),
                                  static_cast<serve::Client*>(&remote)}) {
      for (const float poison : {std::nanf(""), INFINITY}) {
        serve::InferenceRequest request;
        request.series = MakeSeries(60, 2, 400);
        request.series.data()[17] = poison;
        const serve::InferenceResponse response =
            client->SubmitAndWait(std::move(request));
        EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument)
            << kernels::BackendName(backend) << " " << poison << ": "
            << response.status.ToString();
        EXPECT_FALSE(response.output.defined());
      }
      serve::InferenceRequest finite;
      finite.series = MakeSeries(60, 2, 400);
      const serve::InferenceResponse ok = client->SubmitAndWait(std::move(finite));
      EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
    }
    EXPECT_EQ(replica.engine->stats().rejected_invalid, 2u);
    EXPECT_EQ(engine.stats().rejected_invalid, 2u);
    remote.Shutdown();
    local.Shutdown();
  }
  kernels::SetBackendForTesting(restore);
}

TEST(RouterTest, RoutingIsStickyAndSpreadsAcrossReplicas) {
  model::RitaConfig config = SmallConfig();
  Rng rng(55);
  model::RitaModel source(config, &rng);
  Replica r0 = MakeReplica(source);
  Replica r1 = MakeReplica(source);
  Router router;
  router.AddReplica("127.0.0.1", r0.server->port());
  router.AddReplica("127.0.0.1", r1.server->port());
  ASSERT_TRUE(router.Start().ok());

  // Sticky: the same request always routes to the same replica (this is
  // what shards the fleet's result caches disjointly).
  serve::InferenceRequest probe;
  probe.series = MakeSeries(60, 2, 1);
  const int first = router.RouteIndex(probe);
  for (int i = 0; i < 10; ++i) {
    serve::InferenceRequest again;
    again.series = MakeSeries(60, 2, 1);
    EXPECT_EQ(router.RouteIndex(again), first);
  }

  // Spread: across many distinct requests, both replicas get traffic.
  int counts[2] = {0, 0};
  for (uint64_t seed = 0; seed < 64; ++seed) {
    serve::InferenceRequest request;
    request.series = MakeSeries(60, 2, 1000 + seed);
    counts[router.RouteIndex(request)]++;
  }
  EXPECT_GT(counts[0], 0);
  EXPECT_GT(counts[1], 0);

  // Cache affinity across the wire: the routed replica admits a series to
  // its result cache on the second sighting, so the third submit hits.
  std::vector<serve::InferenceResponse> responses;
  for (int i = 0; i < 3; ++i) {
    serve::InferenceRequest same;
    same.series = MakeSeries(60, 2, 7777);
    responses.push_back(router.Submit(std::move(same)).get());
    ASSERT_TRUE(responses.back().status.ok());
  }
  EXPECT_FALSE(responses[0].cache_hit);
  EXPECT_FALSE(responses[1].cache_hit);
  EXPECT_TRUE(responses[2].cache_hit) << "re-routed away from its cache shard";
  EXPECT_TRUE(BitEqual(responses[0].output, responses[1].output));
  EXPECT_TRUE(BitEqual(responses[0].output, responses[2].output));
}

TEST(RouterTest, OutstandingCapIsTypedBackpressure) {
  model::RitaConfig config = SmallConfig();
  Rng rng(66);
  model::RitaModel source(config, &rng);
  Replica r0 = MakeReplica(source);
  RouterOptions options;
  options.max_outstanding_per_replica = 0;  // everything over cap
  Router router(options);
  router.AddReplica("127.0.0.1", r0.server->port());
  ASSERT_TRUE(router.Start().ok());

  serve::InferenceRequest request;
  request.series = MakeSeries(60, 2, 5);
  serve::InferenceResponse response = router.Submit(std::move(request)).get();
  EXPECT_EQ(response.status.code(), StatusCode::kOutOfMemory)
      << "router-side cap must mirror the engine's typed backpressure, got: "
      << response.status.ToString();
}

TEST(RouterTest, ReplicaDeathYieldsTypedUnavailableAndSurvivorServes) {
  model::RitaConfig config = SmallConfig();
  Rng rng(88);
  model::RitaModel source(config, &rng);
  Replica r0 = MakeReplica(source);
  Replica r1 = MakeReplica(source);
  Router router;
  router.AddReplica("127.0.0.1", r0.server->port());
  router.AddReplica("127.0.0.1", r1.server->port());
  ASSERT_TRUE(router.Start().ok());
  EXPECT_EQ(router.num_live(), 2);

  // Kill replica 0's server out from under the router.
  r0.server->Shutdown();

  // Requests that hit the dead replica fail with retryable kUnavailable;
  // retries re-route onto the rebuilt ring. Nothing hangs, nothing crashes.
  int unavailable = 0, served = 0;
  std::vector<std::string> failure_log;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      serve::InferenceRequest request;
      request.series = MakeSeries(60, 2, 4000 + seed);
      serve::InferenceResponse response =
          router.Submit(std::move(request)).get();
      if (response.status.ok()) {
        ++served;
        break;
      }
      ASSERT_EQ(response.status.code(), StatusCode::kUnavailable)
          << response.status.ToString();
      ++unavailable;
      failure_log.push_back("seed " + std::to_string(seed) + " attempt " +
                            std::to_string(attempt) + ": " +
                            response.status.ToString());
    }
  }
  std::string log;
  for (const auto& line : failure_log) log += line + "\n";
  EXPECT_EQ(served, 32) << "survivor must keep serving every retried request\n"
                        << log;
  EXPECT_GT(unavailable, 0) << "shutdown never surfaced (dead code path?)";
  EXPECT_EQ(router.num_live(), 1);
  EXPECT_FALSE(router.replica_live(0));
  EXPECT_TRUE(router.replica_live(1));
}

// The failover drill under load: four client threads share a 96-request
// burst over two replicas, and whichever thread draws request 24 shuts
// replica 0 down while the others have exchanges in flight. Every response
// must be OK or a typed kUnavailable, and ONE retry must serve each
// kUnavailable: IoLoop marks the replica dead before it resolves the failed
// promise, so the retry can only route to the survivor.
TEST(RouterTest, ShutdownMidBurstUnderConcurrentClientsIsTypedAndServed) {
  model::RitaConfig config = SmallConfig();
  Rng rng(89);
  model::RitaModel source(config, &rng);
  Replica r0 = MakeReplica(source);
  Replica r1 = MakeReplica(source);
  RouterOptions options;
  options.connections_per_replica = 4;
  Router router(options);
  router.AddReplica("127.0.0.1", r0.server->port());
  router.AddReplica("127.0.0.1", r1.server->port());
  ASSERT_TRUE(router.Start().ok());
  ASSERT_EQ(router.num_live(), 2);

  constexpr int kBurst = 96;
  constexpr int kClients = 4;
  std::atomic<int> next{0};
  std::atomic<int> served{0};
  std::atomic<int> unavailable{0};
  std::mutex log_mu;
  std::vector<std::string> failures;  // anything but OK / one-retry OK
  auto fail = [&](int i, const char* what, const Status& status) {
    std::lock_guard<std::mutex> lock(log_mu);
    failures.push_back("request " + std::to_string(i) + " " + what + ": " +
                       status.ToString());
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= kBurst) return;
        if (i == kBurst / 4) r0.server->Shutdown();
        serve::InferenceRequest request;
        request.series = MakeSeries(60, 2, 20000 + i);
        serve::InferenceResponse response =
            router.Submit(std::move(request)).get();
        if (response.status.ok()) {
          served.fetch_add(1);
          continue;
        }
        if (response.status.code() != StatusCode::kUnavailable) {
          fail(i, "untyped failure", response.status);
          continue;
        }
        unavailable.fetch_add(1);
        serve::InferenceRequest retry;
        retry.series = MakeSeries(60, 2, 20000 + i);
        serve::InferenceResponse retried =
            router.Submit(std::move(retry)).get();
        if (retried.status.ok()) {
          served.fetch_add(1);
        } else {
          fail(i, "retry failed", retried.status);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  std::string log;
  for (const auto& line : failures) log += line + "\n";
  EXPECT_TRUE(failures.empty()) << log;
  EXPECT_EQ(served.load(), kBurst)
      << "one retry must serve every request the shutdown interrupted";
  EXPECT_GT(unavailable.load(), 0) << "shutdown never surfaced mid-burst";
  EXPECT_EQ(router.num_live(), 1);
  EXPECT_FALSE(router.replica_live(0));
  EXPECT_TRUE(router.replica_live(1));
}

TEST(RouterTest, FleetMetricsCarryReplicaLabels) {
  model::RitaConfig config = SmallConfig();
  Rng rng(99);
  model::RitaModel source(config, &rng);
  Replica r0 = MakeReplica(source);
  Replica r1 = MakeReplica(source);
  Router router;
  router.AddReplica("127.0.0.1", r0.server->port());
  router.AddReplica("127.0.0.1", r1.server->port());
  ASSERT_TRUE(router.Start().ok());

  // Put some traffic through so the counters are nonzero.
  for (uint64_t seed = 0; seed < 8; ++seed) {
    serve::InferenceRequest request;
    request.series = MakeSeries(60, 2, 9000 + seed);
    ASSERT_TRUE(router.Submit(std::move(request)).get().status.ok());
  }

  const std::string text = router.FleetPrometheusText();
  const std::string label0 =
      "replica=\"127.0.0.1:" + std::to_string(r0.server->port()) + "\"";
  const std::string label1 =
      "replica=\"127.0.0.1:" + std::to_string(r1.server->port()) + "\"";
  EXPECT_NE(text.find(label0), std::string::npos) << text.substr(0, 2000);
  EXPECT_NE(text.find(label1), std::string::npos);
  EXPECT_NE(text.find("rita_fleet_replicas_live 2"), std::string::npos);
  EXPECT_NE(text.find("rita_requests_completed_total"), std::string::npos);

  // Model sets agree (same source weights => same fingerprints).
  EXPECT_TRUE(router.CheckModelSetsConsistent().ok());
}

// FleetStats() reads the replicas' metric families with the engine's own
// stats reader, so it must equal the field-wise combination of the replica
// engines' stats(): counters, sums and depths add, maxima max.
TEST(RouterTest, FleetStatsEqualCombinedReplicaStats) {
  model::RitaConfig config = SmallConfig();
  Rng rng(101);
  model::RitaModel source(config, &rng);
  Replica r0 = MakeReplica(source);
  Replica r1 = MakeReplica(source);
  Router router;
  router.AddReplica("127.0.0.1", r0.server->port());
  router.AddReplica("127.0.0.1", r1.server->port());
  ASSERT_TRUE(router.Start().ok());

  // Mixed traffic: all three tasks over distinct series, one series three
  // times (admitted on its second sighting, so the third hits the cache),
  // an invalid series, and a model_id no replica serves.
  const serve::ServeTask tasks[] = {serve::ServeTask::kClassify,
                                    serve::ServeTask::kEmbed,
                                    serve::ServeTask::kReconstruct};
  for (uint64_t seed = 0; seed < 12; ++seed) {
    serve::InferenceRequest request;
    request.series = MakeSeries(60, 2, 6000 + seed);
    request.task = tasks[seed % 3];
    ASSERT_TRUE(router.Submit(std::move(request)).get().status.ok());
  }
  for (int i = 0; i < 3; ++i) {
    serve::InferenceRequest same;
    same.series = MakeSeries(60, 2, 6100);
    const serve::InferenceResponse response =
        router.Submit(std::move(same)).get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.cache_hit, i == 2);
  }
  serve::InferenceRequest bad;
  bad.series = Tensor::Zeros({1, 60, 2});  // wrong rank
  EXPECT_EQ(router.Submit(std::move(bad)).get().status.code(),
            StatusCode::kInvalidArgument);
  serve::InferenceRequest unknown;
  unknown.series = MakeSeries(60, 2, 6200);
  unknown.model_id = 5;
  EXPECT_EQ(router.Submit(std::move(unknown)).get().status.code(),
            StatusCode::kInvalidArgument);

  const serve::InferenceEngineStats fleet = router.FleetStats();
  const serve::InferenceEngineStats a = r0.engine->stats();
  const serve::InferenceEngineStats b = r1.engine->stats();
  EXPECT_EQ(fleet.completed, 15u);
  EXPECT_EQ(fleet.cache_hits, 1u);
  EXPECT_EQ(fleet.rejected_invalid, 2u);

  EXPECT_EQ(fleet.completed, a.completed + b.completed);
  EXPECT_EQ(fleet.rejected_invalid, a.rejected_invalid + b.rejected_invalid);
  EXPECT_EQ(fleet.rejected_backpressure,
            a.rejected_backpressure + b.rejected_backpressure);
  EXPECT_EQ(fleet.batches, a.batches + b.batches);
  EXPECT_EQ(fleet.cache_hits, a.cache_hits + b.cache_hits);
  EXPECT_EQ(fleet.cache_misses, a.cache_misses + b.cache_misses);
  EXPECT_EQ(fleet.deadline_missed, a.deadline_missed + b.deadline_missed);
  EXPECT_EQ(fleet.forward_failures, a.forward_failures + b.forward_failures);
  EXPECT_EQ(fleet.max_micro_batch,
            std::max(a.max_micro_batch, b.max_micro_batch));
  EXPECT_EQ(fleet.total_queue_ms, a.total_queue_ms + b.total_queue_ms);
  EXPECT_EQ(fleet.total_compute_ms, a.total_compute_ms + b.total_compute_ms);
  EXPECT_EQ(fleet.max_compute_ms, std::max(a.max_compute_ms, b.max_compute_ms));
  EXPECT_EQ(fleet.queue_depth, a.queue_depth + b.queue_depth);
  EXPECT_EQ(fleet.queue_depth_interactive,
            a.queue_depth_interactive + b.queue_depth_interactive);
  EXPECT_EQ(fleet.queue_depth_batch, a.queue_depth_batch + b.queue_depth_batch);
  EXPECT_EQ(fleet.in_flight_batches, a.in_flight_batches + b.in_flight_batches);
}

TEST(RouterTest, MismatchedFleetFailsConsistencyCheck) {
  model::RitaConfig config = SmallConfig();
  Rng rng_a(1), rng_b(2);  // different seeds => different fingerprints
  model::RitaModel source_a(config, &rng_a);
  model::RitaModel source_b(config, &rng_b);
  Replica r0 = MakeReplica(source_a);
  Replica r1 = MakeReplica(source_b);
  Router router;
  router.AddReplica("127.0.0.1", r0.server->port());
  router.AddReplica("127.0.0.1", r1.server->port());
  ASSERT_TRUE(router.Start().ok());
  Status st = router.CheckModelSetsConsistent();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("diverge"), std::string::npos);
}

TEST(RouterTest, ShutdownReplicasFiresRemoteShutdownHook) {
  model::RitaConfig config = SmallConfig();
  Rng rng(44);
  model::RitaModel source(config, &rng);
  serve::FrozenModel frozen(source);
  serve::InferenceEngineOptions eopts;
  serve::InferenceEngine engine(&frozen, eopts);
  std::promise<void> fired;
  ReplicaServerOptions sopts;
  sopts.on_remote_shutdown = [&fired] { fired.set_value(); };
  ReplicaServer server(&engine, sopts);
  ASSERT_TRUE(server.Start().ok());

  Router router;
  router.AddReplica("127.0.0.1", server.port());
  ASSERT_TRUE(router.Start().ok());
  router.ShutdownReplicas();
  // The hook runs on the replica's handler thread; bounded wait.
  EXPECT_EQ(fired.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
}

TEST(RouterTest, StartFailsTypedWhenAReplicaIsUnreachable) {
  Listener listener;
  ASSERT_TRUE(listener.Bind("127.0.0.1", 0).ok());
  const int dead_port = listener.port();
  listener.Close();

  Router router;
  router.AddReplica("127.0.0.1", dead_port);
  Status st = router.Start();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
}

TEST(ReplicaServerTest, SurvivesGarbageConnectionsAndKeepsServing) {
  model::RitaConfig config = SmallConfig();
  Rng rng(12);
  model::RitaModel source(config, &rng);
  Replica r = MakeReplica(source);

  // Hostile peers: garbage bytes, a hostile length prefix, an instant
  // disconnect. Each costs the server one protocol error, never the process.
  for (int hostile = 0; hostile < 3; ++hostile) {
    Result<Connection> conn =
        Connection::Connect("127.0.0.1", r.server->port(), 1000.0);
    ASSERT_TRUE(conn.ok());
    Connection c = conn.MoveValueOrDie();
    if (hostile == 0) {
      const char junk[] = "GET / HTTP/1.1\r\n\r\n";
      ::send(c.fd(), junk, sizeof(junk), MSG_NOSIGNAL);
    } else if (hostile == 1) {
      uint8_t header[12] = {0};
      const uint32_t magic = kFrameMagic;
      const uint16_t version = kWireVersion;
      const uint16_t type_req = 1;
      const uint32_t hostile_len = 0xFFFFFFFFu;
      std::memcpy(header + 0, &magic, 4);
      std::memcpy(header + 4, &version, 2);
      std::memcpy(header + 6, &type_req, 2);
      std::memcpy(header + 8, &hostile_len, 4);
      ::send(c.fd(), header, sizeof(header), MSG_NOSIGNAL);
    }
    c.Close();
  }

  // A well-formed client still gets served after the abuse.
  Router router;
  router.AddReplica("127.0.0.1", r.server->port());
  ASSERT_TRUE(router.Start().ok());
  serve::InferenceRequest request;
  request.series = MakeSeries(60, 2, 21);
  serve::InferenceResponse response = router.Submit(std::move(request)).get();
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
}

}  // namespace
}  // namespace dist
}  // namespace rita
