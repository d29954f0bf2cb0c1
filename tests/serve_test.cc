// Tests for the serving subsystem: FrozenModel weight-copy fidelity,
// micro-batch transparency (a request's result does not depend on the batch
// it rode in), the InferenceEngine's coalescing / validation / stats, and the
// acceptance contract — one FrozenModel hammered by many client threads
// produces bit-identical outputs to the single-threaded path. Run under
// RITA_SANITIZE=thread in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/batch_planner.h"
#include "obs/trace.h"
#include "linalg/kernels/kernels.h"
#include "serve/accuracy_gate.h"
#include "serve/frozen_model.h"
#include "serve/inference_engine.h"
#include "serve/telemetry.h"
#include "util/execution_context.h"
#include "util/thread_pool.h"

namespace rita {
namespace serve {
namespace {

model::RitaConfig SmallConfig(attn::AttentionKind kind) {
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
  config.encoder.dropout = 0.1f;  // frozen replica must switch it off
  config.encoder.attention.kind = kind;
  config.encoder.attention.group.num_groups = 4;
  return config;
}

Tensor MakeSeries(int64_t t, int64_t c, uint64_t seed) {
  Rng rng(seed);
  return Tensor::RandNormal({t, c}, &rng);
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

// A fresh source model's first eval forward uses RNG stream 0 and, for a
// single-sample batch, the same head-indexed slice streams the frozen replica
// pins — so the replica must reproduce the source bitwise.
TEST(FrozenModelTest, ReproducesSourceEvalForward) {
  for (attn::AttentionKind kind :
       {attn::AttentionKind::kVanilla, attn::AttentionKind::kGroup,
        attn::AttentionKind::kLinformer, attn::AttentionKind::kPerformer}) {
    model::RitaConfig config = SmallConfig(kind);
    if (kind == attn::AttentionKind::kLinformer) {
      config.encoder.attention.linformer_k = 8;
      config.encoder.attention.seq_len = config.NumTokens();
    }
    Rng rng(42);
    model::RitaModel source(config, &rng);
    FrozenModel frozen(source);

    Rng data_rng(7);
    Tensor batch = Tensor::RandNormal({1, 60, 2}, &data_rng);
    source.SetTraining(false);
    ag::NoGradGuard guard;
    Tensor want = source.ClassLogits(batch).data();
    Tensor got = frozen.ClassLogits(batch);
    EXPECT_TRUE(BitEqual(want, got))
        << "frozen replica diverges for kind " << static_cast<int>(kind);
  }
}

TEST(FrozenModelTest, CopiesAdaptedGroupCountAndSeed) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  Rng rng(3);
  model::RitaModel source(config, &rng);
  // Simulate an adaptive-scheduler decision before freezing.
  for (auto* mech : source.GroupMechanisms()) mech->set_num_groups(3);
  FrozenModel frozen(source);
  EXPECT_EQ(frozen.num_groups(), 3);
}

// Batch-position invariance: each row of a coalesced [B, T, C] forward is
// bit-identical to running that row alone — the property that makes engine
// micro-batching transparent.
TEST(FrozenModelTest, MicroBatchTransparency) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  Rng rng(5);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);

  const int64_t b = 5, t = 60, c = 2;
  Rng data_rng(11);
  Tensor batch = Tensor::RandNormal({b, t, c}, &data_rng);
  Tensor batched = frozen.ClassLogits(batch);

  for (int64_t i = 0; i < b; ++i) {
    Tensor single({1, t, c});
    std::copy(batch.data() + i * t * c, batch.data() + (i + 1) * t * c,
              single.data());
    Tensor alone = frozen.ClassLogits(single);
    EXPECT_EQ(std::memcmp(alone.data(), batched.data() + i * config.num_classes,
                          sizeof(float) * config.num_classes),
              0)
        << "row " << i << " depends on its batch position";
  }
}

TEST(FrozenModelTest, SameRequestAlwaysSameOutput) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  Rng rng(9);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);
  Tensor batch = MakeSeries(60, 2, 1).Reshape({1, 60, 2});
  Tensor first = frozen.ClassLogits(batch);
  Tensor second = frozen.ClassLogits(batch);
  EXPECT_TRUE(BitEqual(first, second)) << "frozen inference is not deterministic";
}

TEST(InferenceEngineTest, RejectsInvalidRequests) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  Rng rng(13);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);
  InferenceEngineOptions options;
  InferenceEngine engine(&frozen, options);

  // Wrong channel count.
  InferenceRequest bad_channels;
  bad_channels.series = MakeSeries(60, 3, 2);
  EXPECT_EQ(engine.Run(std::move(bad_channels)).status.code(),
            StatusCode::kInvalidArgument);
  // Longer than the model's configured input length.
  InferenceRequest too_long;
  too_long.series = MakeSeries(61, 2, 3);
  EXPECT_EQ(engine.Run(std::move(too_long)).status.code(),
            StatusCode::kInvalidArgument);
  // Not a [T, C] tensor.
  InferenceRequest bad_rank;
  bad_rank.series = Tensor::Zeros({1, 60, 2});
  EXPECT_EQ(engine.Run(std::move(bad_rank)).status.code(),
            StatusCode::kInvalidArgument);
  // The rejection split distinguishes bad input from overload; all three
  // were invalid, none backpressure.
  EXPECT_EQ(engine.stats().rejected_invalid, 3u);
  EXPECT_EQ(engine.stats().rejected_backpressure, 0u);
  EXPECT_EQ(engine.stats().completed, 0u);
}

// Linformer's length projection is locked to the configured token count, so
// the engine must reject short series as a recoverable error instead of
// letting the forward's fatal check take the process down.
TEST(InferenceEngineTest, RejectsShortSeriesForLinformerModels) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kLinformer);
  config.encoder.attention.linformer_k = 8;
  config.encoder.attention.seq_len = config.NumTokens();
  Rng rng(19);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);
  InferenceEngineOptions options;
  InferenceEngine engine(&frozen, options);

  InferenceRequest short_series;
  short_series.series = MakeSeries(30, 2, 4);
  EXPECT_EQ(engine.Run(std::move(short_series)).status.code(),
            StatusCode::kInvalidArgument);
  InferenceRequest full;
  full.series = MakeSeries(60, 2, 5);
  EXPECT_TRUE(engine.Run(std::move(full)).status.ok());
}

TEST(InferenceEngineTest, ServesAllTasksAndVariableLengths) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  Rng rng(17);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);
  InferenceEngineOptions options;
  options.num_workers = 2;
  InferenceEngine engine(&frozen, options);

  // Classification at full length.
  InferenceRequest classify;
  classify.series = MakeSeries(60, 2, 21);
  classify.task = ServeTask::kClassify;
  InferenceResponse r1 = engine.Run(std::move(classify));
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  EXPECT_EQ(r1.output.shape(), Shape({4}));

  // Embedding of a shorter series (length bucket 35).
  InferenceRequest embed;
  embed.series = MakeSeries(35, 2, 22);
  embed.task = ServeTask::kEmbed;
  InferenceResponse r2 = engine.Run(std::move(embed));
  ASSERT_TRUE(r2.status.ok()) << r2.status.ToString();
  EXPECT_EQ(r2.output.shape(), Shape({16}));

  // Reconstruction of a mid-length series.
  InferenceRequest recon;
  recon.series = MakeSeries(50, 2, 23);
  recon.task = ServeTask::kReconstruct;
  InferenceResponse r3 = engine.Run(std::move(recon));
  ASSERT_TRUE(r3.status.ok()) << r3.status.ToString();
  EXPECT_EQ(r3.output.shape(), Shape({50, 2}));

  const InferenceEngineStats stats = engine.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.rejected_invalid, 0u);
  EXPECT_EQ(stats.rejected_backpressure, 0u);
}

// The acceptance contract: one FrozenModel shared by >= 8 client threads
// through the engine produces bit-identical outputs to the single-threaded
// ClassLogits path. Also exercises coalescing (batched submission from many
// threads) under TSan.
TEST(InferenceEngineTest, EightClientThreadsBitIdenticalToSingleThreaded) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  Rng rng(29);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);

  constexpr int kClients = 8;
  constexpr int kPerClient = 6;
  const int64_t t = 60, c = 2;

  // Single-threaded references, one request at a time.
  std::vector<Tensor> requests;
  std::vector<Tensor> want;
  for (int i = 0; i < kClients * kPerClient; ++i) {
    Tensor series = MakeSeries(t, c, 100 + i);
    requests.push_back(series);
    want.push_back(frozen.ClassLogits(series.Reshape({1, t, c})));
  }

  ThreadPool pool(4);
  ExecutionContext context(&pool);
  InferenceEngineOptions options;
  options.num_workers = 3;
  options.max_micro_batch = 8;
  options.context = &context;
  InferenceEngine engine(&frozen, options);

  std::vector<std::future<InferenceResponse>> futures(kClients * kPerClient);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int client = 0; client < kClients; ++client) {
    clients.emplace_back([&, client] {
      for (int j = 0; j < kPerClient; ++j) {
        const int idx = client * kPerClient + j;
        InferenceRequest request;
        request.series = requests[idx];
        request.task = ServeTask::kClassify;
        futures[idx] = engine.Submit(std::move(request));
      }
    });
  }
  for (auto& thread : clients) thread.join();

  for (size_t i = 0; i < futures.size(); ++i) {
    InferenceResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_EQ(response.output.numel(), want[i].numel());
    EXPECT_EQ(std::memcmp(response.output.data(), want[i].data(),
                          sizeof(float) * want[i].numel()),
              0)
        << "request " << i << " diverged from the single-threaded path "
        << "(micro_batch=" << response.micro_batch << ")";
    EXPECT_GE(response.micro_batch, 1);
    EXPECT_LE(response.micro_batch, options.max_micro_batch);
  }

  const InferenceEngineStats stats = engine.stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.max_micro_batch, options.max_micro_batch);
}

// Deterministic coalescing: with the executors paused, every request queues
// first, so on Resume() the engine MUST pack them into full micro-batches
// (scheduling-independent, unlike asserting batch sizes under live load).
TEST(InferenceEngineTest, CoalescesQueuedRequestsIntoMicroBatches) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  Rng rng(41);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);

  InferenceEngineOptions options;
  options.num_workers = 1;
  options.max_micro_batch = 8;
  options.start_paused = true;
  InferenceEngine engine(&frozen, options);

  constexpr int kRequests = 24;
  std::vector<std::future<InferenceResponse>> futures;
  for (int i = 0; i < kRequests; ++i) {
    InferenceRequest request;
    request.series = MakeSeries(60, 2, 500 + i);
    futures.push_back(engine.Submit(std::move(request)));
  }
  engine.Resume();
  for (auto& future : futures) ASSERT_TRUE(future.get().status.ok());

  const InferenceEngineStats stats = engine.stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.batches, static_cast<uint64_t>(kRequests / 8));
  EXPECT_EQ(stats.max_micro_batch, 8);
  EXPECT_DOUBLE_EQ(stats.AvgBatchSize(), 8.0);

  // A running engine can be paused again (maintenance window): requests
  // queue up and complete only after Resume().
  engine.Pause();
  std::vector<std::future<InferenceResponse>> paused_futures;
  for (int i = 0; i < 8; ++i) {
    InferenceRequest request;
    request.series = MakeSeries(60, 2, 600 + i);
    paused_futures.push_back(engine.Submit(std::move(request)));
  }
  engine.Resume();
  for (auto& future : paused_futures) ASSERT_TRUE(future.get().status.ok());
  EXPECT_EQ(engine.stats().completed, static_cast<uint64_t>(kRequests + 8));
}

// Every rider of one micro-batch resolves at the batch's single resolve
// stamp, so enqueued + queue_ms + compute_ms is the same instant for all of
// them: rider i's queue_ms must not absorb the slicing and finiteness checks
// of riders 0..i-1. Each rider is force-traced, and its `request` span
// (enqueued -> resolved) supplies the enqueue stamp the response lacks.
TEST(InferenceEngineTest, RidersOfOneMicroBatchShareOneResolveInstant) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  config.input_length = 4000;  // large reconstruct rows make per-rider work visible
  Rng rng(43);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);

  InferenceEngineOptions options;
  options.num_workers = 1;
  options.max_micro_batch = 8;
  options.start_paused = true;
  InferenceEngine engine(&frozen, options);

  obs::ClearTraceForTesting();
  constexpr int kRiders = 8;
  std::vector<std::future<InferenceResponse>> futures;
  for (int i = 0; i < kRiders; ++i) {
    InferenceRequest request;
    request.series = MakeSeries(4000, 2, 700 + i);
    request.task = ServeTask::kReconstruct;
    request.trace_id = 9000 + i;
    futures.push_back(engine.Submit(std::move(request)));
  }
  engine.Resume();
  std::vector<InferenceResponse> responses;
  for (auto& future : futures) {
    responses.push_back(future.get());
    ASSERT_TRUE(responses.back().status.ok());
    ASSERT_EQ(responses.back().micro_batch, kRiders);
  }

  // Trace dump lines: ..."name":"request",..."ts":T,"dur":D,...{"trace_id":N}}
  std::ostringstream dump;
  obs::DumpTraceTo(dump);
  obs::ClearTraceForTesting();
  std::map<uint64_t, std::pair<double, double>> request_spans;  // id -> (ts, dur) us
  std::istringstream lines(dump.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"name\":\"request\"") == std::string::npos) continue;
    const auto number = [&](const char* key) {
      return std::strtod(line.c_str() + line.find(key) + std::strlen(key), nullptr);
    };
    request_spans[static_cast<uint64_t>(number("\"trace_id\":"))] = {
        number("\"ts\":"), number("\"dur\":")};
  }
  ASSERT_EQ(request_spans.size(), static_cast<size_t>(kRiders));

  const double resolved_us = request_spans[9000].first + request_spans[9000].second;
  for (int i = 0; i < kRiders; ++i) {
    const auto [ts_us, dur_us] = request_spans[9000 + i];
    const InferenceResponse& response = responses[i];
    // Dumped times carry 1 ns; allow 2 ns of rounding.
    EXPECT_NEAR(ts_us + dur_us, resolved_us, 0.002) << "rider " << i;
    EXPECT_NEAR(response.queue_ms + response.compute_ms, dur_us / 1000.0, 2e-6)
        << "rider " << i;
  }
}

// Relaxed counter reads, or a window whose two counters were read at
// different instants, can show more cache hits than completions; the
// averages must not wrap the unsigned difference.
TEST(InferenceEngineStatsTest, AveragesSaturateWhenHitsExceedCompleted) {
  InferenceEngineStats stats;
  stats.completed = 3;
  stats.cache_hits = 5;
  stats.batches = 2;
  stats.total_queue_ms = 4.0;
  EXPECT_EQ(stats.Computed(), 0u);
  for (const double avg : {stats.AvgQueueMs(), stats.AvgBatchSize()}) {
    EXPECT_TRUE(std::isfinite(avg));
    EXPECT_GE(avg, 0.0);
    EXPECT_LE(avg, 4.0);
  }
}

TEST(InferenceEngineTest, PlannerCapsMicroBatches) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  Rng rng(31);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);

  core::EncoderShape shape;
  shape.layers = config.encoder.num_layers;
  shape.dim = config.encoder.dim;
  shape.heads = config.encoder.num_heads;
  shape.ffn_hidden = config.encoder.ffn_hidden;
  shape.window = config.window;
  shape.stride = config.stride;
  shape.channels = config.input_channels;
  shape.kind = attn::AttentionKind::kGroup;
  core::MemoryModel memory(shape);
  core::BatchPlannerOptions planner_options;
  planner_options.max_length = config.input_length;
  core::BatchPlanner planner(memory, planner_options);
  Rng planner_rng(1);
  planner.Calibrate(&planner_rng);

  InferenceEngineOptions options;
  options.planner = &planner;
  options.max_micro_batch = 16;
  InferenceEngine engine(&frozen, options);

  std::vector<std::future<InferenceResponse>> futures;
  for (int i = 0; i < 20; ++i) {
    InferenceRequest request;
    request.series = MakeSeries(60, 2, 300 + i);
    futures.push_back(engine.Submit(std::move(request)));
  }
  const int64_t cap =
      std::min<int64_t>(16, planner.PredictBatchSize(60, frozen.num_groups()));
  for (auto& future : futures) {
    InferenceResponse response = future.get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_LE(response.micro_batch, cap);
  }
}

// Both kinds of rejection present in one run land in their own split
// counters without crosstalk.
TEST(InferenceEngineTest, RejectionSplitCountsBothKinds) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  Rng rng(43);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);
  InferenceEngineOptions options;
  options.max_queue = 2;       // third valid submission hits backpressure
  options.cache_bytes = 0;     // identical series must not short-circuit
  options.start_paused = true;  // keep the queue full until we resume
  InferenceEngine engine(&frozen, options);

  std::vector<std::future<InferenceResponse>> admitted;
  int backpressure = 0;
  for (int i = 0; i < 5; ++i) {
    InferenceRequest request;
    request.series = MakeSeries(60, 2, 700 + i);
    auto future = engine.Submit(std::move(request));
    if (future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      EXPECT_EQ(future.get().status.code(), StatusCode::kOutOfMemory);
      ++backpressure;
    } else {
      admitted.push_back(std::move(future));
    }
  }
  EXPECT_EQ(backpressure, 3);
  for (int i = 0; i < 2; ++i) {
    InferenceRequest invalid;
    invalid.series = MakeSeries(60, 5, 800 + i);  // wrong channel count
    EXPECT_FALSE(engine.Run(std::move(invalid)).status.ok());
  }

  const InferenceEngineStats stats = engine.stats();
  EXPECT_EQ(stats.rejected_backpressure, 3u);
  EXPECT_EQ(stats.rejected_invalid, 2u);

  engine.Resume();
  for (auto& future : admitted) EXPECT_TRUE(future.get().status.ok());
}

// Deadlines are scheduling hints, but missing one is now counted: a request
// resolved past its deadline increments deadline_missed (aggregate and
// per-model), while on-time requests leave it untouched.
TEST(InferenceEngineTest, CountsDeadlineMisses) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  Rng rng(47);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);
  InferenceEngineOptions options;
  options.start_paused = true;
  InferenceEngine engine(&frozen, options);

  InferenceRequest hopeless;
  hopeless.series = MakeSeries(60, 2, 900);
  hopeless.deadline = ServeClock::now() - std::chrono::milliseconds(1);
  auto late = engine.Submit(std::move(hopeless));
  InferenceRequest relaxed;
  relaxed.series = MakeSeries(60, 2, 901);
  relaxed.deadline = ServeClock::now() + std::chrono::hours(1);
  auto on_time = engine.Submit(std::move(relaxed));
  engine.Resume();
  EXPECT_TRUE(late.get().status.ok());  // late, not dropped
  EXPECT_TRUE(on_time.get().status.ok());

  EXPECT_EQ(engine.stats().deadline_missed, 1u);
  EXPECT_EQ(engine.model_stats(0).deadline_missed, 1u);
}

// The peak-RSS probe the latency ledger reports: the test process certainly
// peaked above a megabyte and below a terabyte.
TEST(TelemetryTest, RssProbeReportsPlausibleResidency) {
  const int64_t peak = PeakRssBytes();
#if defined(__linux__)
  EXPECT_GT(peak, 1 << 20);
  EXPECT_LT(peak, int64_t{1} << 40);
#else
  EXPECT_GE(peak, 0);
#endif
}

// Context-conditioned forwards: asking for the [CLS] out leaves the logits
// bit-for-bit unchanged (and hands back the same [CLS] Embed() computes); a
// real context changes the output deterministically.
TEST(FrozenModelTest, ContextConditionedForwards) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  Rng rng(53);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);
  Tensor batch = MakeSeries(60, 2, 30).Reshape({1, 60, 2});

  Tensor cls;
  Tensor plain = frozen.ClassLogits(batch, nullptr, &cls);
  EXPECT_TRUE(BitEqual(plain, frozen.ClassLogits(batch)));
  EXPECT_TRUE(BitEqual(cls.Reshape({1, 16}), frozen.Embed(batch)));

  Rng ctx_rng(31);
  Tensor context = Tensor::RandNormal({1, 16}, &ctx_rng);
  Tensor conditioned = frozen.ClassLogits(batch, &context);
  EXPECT_FALSE(BitEqual(conditioned, plain)) << "context token had no effect";
  Tensor again = frozen.ClassLogits(batch, &context);
  EXPECT_TRUE(BitEqual(conditioned, again));

  Tensor recon_cls;
  Tensor recon = frozen.Reconstruct(batch, &context, &recon_cls);
  EXPECT_EQ(recon.shape(), Shape({1, 60, 2}));
  EXPECT_EQ(recon_cls.shape(), Shape({1, 16}));
  EXPECT_FALSE(BitEqual(recon, frozen.Reconstruct(batch)));
}

// Every task forward (with its [CLS] out where it has one) over one batch.
std::vector<Tensor> AllTaskForwards(const FrozenModel& frozen, const Tensor& batch,
                                    const Tensor* context, ExecutionContext* exec) {
  std::vector<Tensor> out(5);
  out[0] = frozen.ClassLogits(batch, context, &out[1], exec);
  out[2] = frozen.Reconstruct(batch, context, &out[3], exec);
  out[4] = frozen.Embed(batch, context, exec);
  return out;
}

// The serving forwards are bitwise identical at any pool width. Width 1
// never takes group attention's narrow path (B*H below the pool width), so
// it is the reference. B=1 (2 slices) runs narrow at widths 4 and 8; B=3
// (6 slices) runs wide at 2 and 4 and narrow at 8. 65-token slices stay
// below the row-tile grain, so the slice loop alone spreads the work here;
// group_attention_test and obs_test cover the tiled shapes.
TEST(FrozenModelTest, ForwardsBitIdenticalAcrossPoolWidths) {
  const kernels::Backend restore = kernels::ActiveBackend();
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::SimdAvailable()) backends.push_back(kernels::Backend::kSimd);
  const int kWidths[] = {2, 4, 8};
  ThreadPool solo(1);
  ExecutionContext reference(&solo);
  std::vector<std::unique_ptr<ThreadPool>> pools;
  std::vector<std::unique_ptr<ExecutionContext>> contexts;
  for (int width : kWidths) {
    pools.push_back(std::make_unique<ThreadPool>(width));
    contexts.push_back(std::make_unique<ExecutionContext>(pools.back().get()));
  }

  for (attn::AttentionKind kind :
       {attn::AttentionKind::kGroup, attn::AttentionKind::kVanilla}) {
    model::RitaConfig config = SmallConfig(kind);
    config.input_length = 320;  // 64 windows + [CLS] = 65 tokens
    Rng rng(42);
    model::RitaModel source(config, &rng);
    FrozenModel frozen(source);
    for (kernels::Backend backend : backends) {
      kernels::SetBackendForTesting(backend);
      for (int64_t b : {1, 3}) {
        Rng data_rng(static_cast<uint64_t>(7 + b));
        Tensor batch = Tensor::RandNormal({b, 320, 2}, &data_rng);
        Tensor carry = frozen.Embed(batch);  // a plausible [B, dim] context
        for (const Tensor* context : {static_cast<const Tensor*>(nullptr),
                                      static_cast<const Tensor*>(&carry)}) {
          const std::vector<Tensor> want =
              AllTaskForwards(frozen, batch, context, &reference);
          for (size_t w = 0; w < contexts.size(); ++w) {
            const std::vector<Tensor> got =
                AllTaskForwards(frozen, batch, context, contexts[w].get());
            for (size_t i = 0; i < want.size(); ++i) {
              EXPECT_TRUE(BitEqual(want[i], got[i]))
                  << "output " << i << " kind=" << static_cast<int>(kind)
                  << " backend=" << kernels::BackendName(backend) << " B=" << b
                  << " context=" << (context != nullptr)
                  << " width=" << kWidths[w];
            }
          }
        }
      }
    }
  }
  kernels::SetBackendForTesting(restore);
}

// Engine-level context routing: want_context returns the [CLS] embedding,
// context-bearing requests compute (never cached) and match the direct
// FrozenModel path bit-for-bit.
TEST(InferenceEngineTest, RoutesContextRequestsAndBypassesCache) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  Rng rng(59);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);
  InferenceEngineOptions options;  // cache on (default budget)
  InferenceEngine engine(&frozen, options);
  Tensor series = MakeSeries(60, 2, 31);

  InferenceRequest first;
  first.series = series;
  first.want_context = true;
  InferenceResponse r1 = engine.Run(std::move(first));
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  ASSERT_TRUE(r1.context.defined());
  EXPECT_EQ(r1.context.shape(), Shape({16}));
  EXPECT_TRUE(BitEqual(r1.context.Reshape({1, 16}),
                       frozen.Embed(series.Reshape({1, 60, 2}))));

  InferenceRequest second;
  second.series = series;
  second.context = r1.context;
  second.want_context = true;
  InferenceResponse r2 = engine.Run(std::move(second));
  ASSERT_TRUE(r2.status.ok());
  EXPECT_FALSE(r2.cache_hit) << "context-bearing requests must bypass the cache";
  Tensor ctx_batch = r1.context.Reshape({1, 16});
  Tensor want = frozen.ClassLogits(series.Reshape({1, 60, 2}), &ctx_batch);
  EXPECT_TRUE(BitEqual(r2.output.Reshape({1, 4}), want));

  // Replaying an identical context request recomputes instead of hitting.
  InferenceRequest replay;
  replay.series = series;
  replay.context = r1.context;
  InferenceResponse r3 = engine.Run(std::move(replay));
  ASSERT_TRUE(r3.status.ok());
  EXPECT_FALSE(r3.cache_hit);
  EXPECT_TRUE(BitEqual(r3.output.Reshape({1, 4}), want));

  InferenceRequest bad_context;
  bad_context.series = series;
  bad_context.context = Tensor::Zeros({7});  // wrong dim
  EXPECT_EQ(engine.Run(std::move(bad_context)).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(InferenceEngineTest, RejectsContextForLinformerModels) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kLinformer);
  config.encoder.attention.linformer_k = 8;
  config.encoder.attention.seq_len = config.NumTokens();
  Rng rng(61);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);
  InferenceEngineOptions options;
  InferenceEngine engine(&frozen, options);

  InferenceRequest request;
  request.series = MakeSeries(60, 2, 32);
  request.context = Tensor::Zeros({16});
  EXPECT_EQ(engine.Run(std::move(request)).status.code(),
            StatusCode::kNotSupported);
}

TEST(InferenceEngineTest, ShutdownDrainsQueueAndRejectsAfter) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  Rng rng(37);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);
  InferenceEngineOptions options;
  auto engine = std::make_unique<InferenceEngine>(&frozen, options);

  std::vector<std::future<InferenceResponse>> futures;
  for (int i = 0; i < 10; ++i) {
    InferenceRequest request;
    request.series = MakeSeries(60, 2, 400 + i);
    futures.push_back(engine->Submit(std::move(request)));
  }
  engine->Shutdown();
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok()) << "queued request dropped on shutdown";
  }
  InferenceRequest late;
  late.series = MakeSeries(60, 2, 999);
  EXPECT_FALSE(engine->Run(std::move(late)).status.ok());
}

// A forward that throws fails its micro-batch cleanly: every rider resolves
// Internal, nothing is cached, the worker slot frees and the engine serves on.
TEST(InferenceEngineTest, ThrowingForwardResolvesInternalAndEngineSurvives) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  Rng rng(31);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);

  std::atomic<bool> armed{true};
  InferenceEngineOptions options;
  options.forward_fault_for_testing = [&armed] {
    if (armed.exchange(false)) throw std::runtime_error("injected fault");
  };
  InferenceEngine engine(&frozen, options);

  InferenceRequest request;
  request.series = MakeSeries(60, 2, 17);
  InferenceResponse failed = engine.Run(request);
  EXPECT_EQ(failed.status.code(), StatusCode::kInternal);
  EXPECT_NE(failed.status.ToString().find("injected fault"), std::string::npos);

  // The SAME request now computes (no stale cache hit) and succeeds.
  InferenceResponse retried = engine.Run(request);
  ASSERT_TRUE(retried.status.ok()) << retried.status.ToString();
  EXPECT_FALSE(retried.cache_hit);

  const InferenceEngineStats stats = engine.stats();
  EXPECT_EQ(stats.forward_failures, 1u);
  EXPECT_EQ(stats.in_flight_batches, 0);
  EXPECT_EQ(stats.completed, 1u);
}

// Per-task cache admission: a flood of large kReconstruct payloads may only
// evict within its own budget slice — every resident kClassify entry must
// survive and keep hitting.
TEST(ResultCacheTest, ReconstructFloodCannotEvictClassifyEntries) {
  ResultCache::Options options;
  options.num_shards = 1;  // one LRU per task; makes the split exact
  options.byte_budget = 64 << 10;
  options.classify_fraction = 0.5;
  options.reconstruct_fraction = 0.5;
  options.embed_fraction = 0.0;  // collapses to a single-entry minimum slice
  ResultCache cache(options);

  // 16 classify entries of 256 floats = 16 KiB, well inside the 32 KiB slice.
  std::vector<ResultCache::Key> classify_keys;
  Rng rng(1);
  for (int i = 0; i < 16; ++i) {
    Tensor series = Tensor::RandNormal({8, 4}, &rng);
    ResultCache::Key key =
        ResultCache::MakeKey(/*model_fingerprint=*/7, ServeTask::kClassify, series);
    cache.Insert(key, ServeTask::kClassify, Tensor::RandNormal({256}, &rng));
    classify_keys.push_back(key);
  }
  const ResultCacheStats before = cache.stats();
  ASSERT_EQ(before.entries_by_task[static_cast<int>(ServeTask::kClassify)], 16);

  // Flood with reconstruct outputs of 4 KiB each: 32 inserts = 4x the whole
  // reconstruct slice, forcing evictions — all of which must stay in-task.
  for (int i = 0; i < 32; ++i) {
    Tensor series = Tensor::RandNormal({16, 4}, &rng);
    ResultCache::Key key = ResultCache::MakeKey(
        /*model_fingerprint=*/7, ServeTask::kReconstruct, series);
    cache.Insert(key, ServeTask::kReconstruct, Tensor::RandNormal({1024}, &rng));
  }

  const ResultCacheStats after = cache.stats();
  EXPECT_GT(after.evictions, before.evictions) << "flood must overflow its slice";
  EXPECT_EQ(after.entries_by_task[static_cast<int>(ServeTask::kClassify)], 16)
      << "reconstruct evictions leaked into the classify slice";
  EXPECT_LE(after.bytes_by_task[static_cast<int>(ServeTask::kReconstruct)],
            options.byte_budget / 2);
  for (const ResultCache::Key& key : classify_keys) {
    Tensor out;
    EXPECT_TRUE(cache.Lookup(key, &out)) << "classify entry evicted by flood";
  }
}

// An output larger than its task's slice is refused outright rather than
// wiping the slice for a single entry.
TEST(ResultCacheTest, OversizedPayloadSkipsInsertion) {
  ResultCache::Options options;
  options.num_shards = 1;
  options.byte_budget = 8 << 10;
  ResultCache cache(options);
  Rng rng(2);
  Tensor series = Tensor::RandNormal({8, 4}, &rng);
  ResultCache::Key key =
      ResultCache::MakeKey(/*model_fingerprint=*/1, ServeTask::kEmbed, series);
  // 16 KiB payload vs an 8 KiB budget split three ways: cannot fit.
  cache.Insert(key, ServeTask::kEmbed, Tensor::RandNormal({4096}, &rng));
  Tensor out;
  EXPECT_FALSE(cache.Lookup(key, &out));
  EXPECT_EQ(cache.stats().entries, 0);
}

// Every payload byte reaches both key halves: the striped body, the last
// byte, and a tail that is not a whole 32-byte stripe. The header fields
// (fingerprint, task, shape) separate keys over identical bytes.
TEST(ResultCacheTest, KeyCoversEveryByteShapeTaskAndFingerprint) {
  Rng rng(3);
  // 13 floats = 52 bytes: one 32-byte stripe plus a 20-byte tail.
  const Tensor base = Tensor::RandNormal({13}, &rng);
  const ResultCache::Key key =
      ResultCache::MakeKey(/*model_fingerprint=*/5, ServeTask::kEmbed, base);
  const ResultCache::Key again =
      ResultCache::MakeKey(/*model_fingerprint=*/5, ServeTask::kEmbed, base.Clone());
  EXPECT_EQ(key.lo, again.lo);
  EXPECT_EQ(key.hi, again.hi);

  const size_t bytes = sizeof(float) * static_cast<size_t>(base.numel());
  for (const size_t byte : {size_t{0}, size_t{31}, size_t{32}, size_t{40},
                            size_t{48}, bytes - 1}) {
    for (const int bit : {0, 7}) {
      Tensor flipped = base.Clone();
      reinterpret_cast<unsigned char*>(flipped.data())[byte] ^=
          static_cast<unsigned char>(1u << bit);
      const ResultCache::Key k =
          ResultCache::MakeKey(/*model_fingerprint=*/5, ServeTask::kEmbed, flipped);
      EXPECT_NE(k.lo, key.lo) << "byte " << byte << " bit " << bit;
      EXPECT_NE(k.hi, key.hi) << "byte " << byte << " bit " << bit;
    }
  }

  // Payloads shorter than one stripe take the tail path only.
  const Tensor shorter = Tensor::RandNormal({3}, &rng);
  Tensor shorter_flipped = shorter.Clone();
  reinterpret_cast<unsigned char*>(shorter_flipped.data())[11] ^= 0x80;
  const ResultCache::Key s0 = ResultCache::MakeKey(5, ServeTask::kEmbed, shorter);
  const ResultCache::Key s1 =
      ResultCache::MakeKey(5, ServeTask::kEmbed, shorter_flipped);
  EXPECT_NE(s0.lo, s1.lo);
  EXPECT_NE(s0.hi, s1.hi);

  auto differs = [](const ResultCache::Key& a, const ResultCache::Key& b) {
    return a.lo != b.lo && a.hi != b.hi;
  };
  const Tensor flat = Tensor::RandNormal({6}, &rng);
  const Tensor grid = flat.Reshape({2, 3});
  EXPECT_TRUE(differs(ResultCache::MakeKey(5, ServeTask::kEmbed, flat),
                      ResultCache::MakeKey(5, ServeTask::kEmbed, grid)));
  EXPECT_TRUE(differs(ResultCache::MakeKey(5, ServeTask::kEmbed, base),
                      ResultCache::MakeKey(5, ServeTask::kClassify, base)));
  EXPECT_TRUE(differs(ResultCache::MakeKey(5, ServeTask::kEmbed, base),
                      ResultCache::MakeKey(6, ServeTask::kEmbed, base)));

  // {0, 0} means "no key" and is never produced, empty payload included.
  for (uint64_t fingerprint = 0; fingerprint < 256; ++fingerprint) {
    const ResultCache::Key k =
        ResultCache::MakeKey(fingerprint, ServeTask::kClassify, Tensor(Shape{0}));
    EXPECT_FALSE(k.lo == 0 && k.hi == 0);
  }
}

// The doorkeeper says "seen" from a key's second sighting on.
TEST(ResultCacheTest, AdmitOnSecondSighting) {
  ResultCache cache(ResultCache::Options{});
  Rng rng(4);
  const ResultCache::Key a =
      ResultCache::MakeKey(1, ServeTask::kClassify, Tensor::RandNormal({8, 2}, &rng));
  const ResultCache::Key b =
      ResultCache::MakeKey(1, ServeTask::kClassify, Tensor::RandNormal({8, 2}, &rng));
  EXPECT_FALSE(cache.Admit(a));
  EXPECT_TRUE(cache.Admit(a));
  EXPECT_TRUE(cache.Admit(a));
  if ((a.lo & 0xffff) != (b.lo & 0xffff)) {
    EXPECT_FALSE(cache.Admit(b));
  }
  EXPECT_EQ(cache.stats().insertions, 0u) << "Admit must not insert";
}

uint64_t CacheInsertions(const InferenceEngine& engine) {
  engine.CollectMetrics();  // refreshes the cache gauges
  return static_cast<uint64_t>(
      engine.metrics()
          .GetGauge("rita_cache_insertions", "Result-cache insertions")
          ->Value());
}

// Second-sighting admission through the engine: the first miss computes but
// is not cached, the second miss is cached, the third submit hits and
// replays the computed output bit for bit.
TEST(InferenceEngineTest, CachesOnSecondSightingAndHitsOnThird) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  Rng rng(43);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);
  InferenceEngineOptions options;  // cache on (default budget)
  InferenceEngine engine(&frozen, options);
  const Tensor series = MakeSeries(60, 2, 55);

  InferenceRequest request;
  request.series = series;
  InferenceResponse first = engine.Run(request);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(CacheInsertions(engine), 0u) << "first sighting was cached";

  InferenceResponse second = engine.Run(request);
  ASSERT_TRUE(second.status.ok());
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(CacheInsertions(engine), 1u) << "second sighting was not cached";

  InferenceResponse third = engine.Run(request);
  ASSERT_TRUE(third.status.ok());
  EXPECT_TRUE(third.cache_hit);
  EXPECT_TRUE(BitEqual(third.output, first.output));
  EXPECT_TRUE(BitEqual(second.output, first.output));

  const InferenceEngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.completed, 3u);
}

// ---------------------------------------------------------------------------
// Quantized & mixed-precision frozen variants
// ---------------------------------------------------------------------------

TEST(QuantizedServingTest, VariantsShrinkWeightsAndPassAccuracyGate) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  Rng rng(61);
  model::RitaModel source(config, &rng);
  FrozenModel fp32(source);
  FrozenModel bf16(source, Precision::kBf16);

  EXPECT_EQ(fp32.precision(), Precision::kFp32);
  EXPECT_EQ(bf16.precision(), Precision::kBf16);

  // Footprint: bf16 is exactly 0.5x on the GEMM matrices; total serving
  // bytes shrink.
  EXPECT_EQ(fp32.QuantizedBytesRatio(), 1.0);
  EXPECT_EQ(bf16.QuantizedBytesRatio(), 0.5);
  EXPECT_LT(bf16.WeightBytes(), fp32.WeightBytes());

  // Variants compute different functions: fingerprints must separate so the
  // result cache can never alias them; the fp32 freeze stays reproducible.
  EXPECT_NE(fp32.Fingerprint(), bf16.Fingerprint());
  EXPECT_EQ(fp32.Fingerprint(), FrozenModel(source).Fingerprint());

  // The fp32 variant is bit-for-bit the pre-quantization serving path.
  Rng data_rng(62);
  Tensor batch = Tensor::RandNormal({6, 60, 2}, &data_rng);
  EXPECT_TRUE(BitEqual(FrozenModel(source).ClassLogits(batch),
                       fp32.ClassLogits(batch)));

  // Accuracy-delta gate: the bf16 variant agrees with fp32 on >= 99% of
  // argmax decisions and reconstructs at most 5% worse.
  AccuracyDeltaReport report;
  const Status verdict = CheckAccuracyDelta(fp32, bf16, batch, {}, &report);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_GE(report.classification_agreement, 0.99);
  EXPECT_LE(report.reconstruction_mse_ratio, 1.05);

  // A sanity bound the gate itself enforces elsewhere: quantization DID
  // change the bits (this is not secretly the fp32 path).
  EXPECT_FALSE(BitEqual(fp32.ClassLogits(batch), bf16.ClassLogits(batch)));
}

// The bf16 Linear forwards are row-independent and pool-width invariant, so
// batched, solo and wide-pool forwards agree bitwise.
TEST(QuantizedServingTest, QuantizedForwardsAreBatchAndPoolWidthInvariant) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  Rng rng(63);
  model::RitaModel source(config, &rng);
  FrozenModel bf16(source, Precision::kBf16);

  const int64_t b = 4, t = 60, c = 2;
  Rng data_rng(64);
  Tensor batch = Tensor::RandNormal({b, t, c}, &data_rng);
  Tensor batched = bf16.ClassLogits(batch);
  for (int64_t i = 0; i < b; ++i) {
    Tensor row({1, t, c});
    std::memcpy(row.data(), batch.data() + i * t * c, sizeof(float) * t * c);
    Tensor solo = bf16.ClassLogits(row);
    EXPECT_EQ(std::memcmp(batched.data() + i * batched.size(1), solo.data(),
                          sizeof(float) * batched.size(1)),
              0)
        << "row " << i << " depends on its micro-batch";
  }

  ThreadPool pool(16);  // 16 > B*H = 8: the narrow group-attention path
  ExecutionContext exec(&pool);
  Tensor wide = bf16.ClassLogits(batch, nullptr, nullptr, &exec);
  EXPECT_TRUE(BitEqual(batched, wide));
}

TEST(QuantizedServingTest, RegistryServesVariantsSideBySide) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  Rng rng(65);
  model::RitaModel source(config, &rng);
  FrozenModel fp32(source);
  FrozenModel bf16(source, Precision::kBf16);

  ModelRegistry registry;
  const int64_t fp32_id = registry.Register("m", &fp32);
  const int64_t bf16_id = registry.RegisterVariant("m", &bf16);
  EXPECT_EQ(registry.Find("m"), fp32_id);
  EXPECT_EQ(registry.Find("m@bf16"), bf16_id);
  EXPECT_EQ(registry.PrecisionOf(bf16_id), Precision::kBf16);
  EXPECT_EQ(registry.WeightBytes(bf16_id), bf16.WeightBytes());

  InferenceEngineOptions options;
  options.cache_bytes = 0;
  InferenceEngine engine(&registry, options);
  for (int64_t id : {fp32_id, bf16_id}) {
    InferenceRequest request;
    request.series = MakeSeries(60, 2, 900);
    request.model_id = id;
    InferenceResponse response = engine.Run(std::move(request));
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.output.shape(), Shape({4}));
  }
  // Per-variant identity surfaces through model_stats.
  const InferenceEngineStats fp32_stats = engine.model_stats(fp32_id);
  const InferenceEngineStats bf16_stats = engine.model_stats(bf16_id);
  EXPECT_EQ(fp32_stats.precision, Precision::kFp32);
  EXPECT_EQ(bf16_stats.precision, Precision::kBf16);
  EXPECT_EQ(bf16_stats.weight_bytes, bf16.WeightBytes());
  EXPECT_LT(bf16_stats.weight_bytes, fp32_stats.weight_bytes);
  EXPECT_EQ(bf16_stats.weight_bytes_ratio, 0.5);
  EXPECT_EQ(fp32_stats.weight_bytes_ratio, 1.0);
}

// The int8 variant is gone: its name resolves to no model, and a client
// that still routes to it gets the typed unknown-model rejection.
TEST(QuantizedServingTest, RetiredInt8VariantIsAnUnknownModel) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  Rng rng(66);
  model::RitaModel source(config, &rng);
  FrozenModel fp32(source);
  FrozenModel bf16(source, Precision::kBf16);
  ModelRegistry registry;
  registry.Register("m", &fp32);
  registry.RegisterVariant("m", &bf16);
  const int64_t int8_id = registry.Find("m@int8");
  EXPECT_EQ(int8_id, -1);

  InferenceEngine engine(&registry, InferenceEngineOptions{});
  InferenceRequest request;
  request.series = MakeSeries(60, 2, 901);
  request.model_id = int8_id;
  const InferenceResponse response = engine.Run(std::move(request));
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.status.message().find("unknown model_id"), std::string::npos)
      << response.status.ToString();
  EXPECT_EQ(engine.stats().rejected_invalid, 1u);
  EXPECT_EQ(engine.stats().completed, 0u);
}

// ---------------------------------------------------------------------------
// Non-finite data
// ---------------------------------------------------------------------------

// NaN and Inf samples (and context values) get a typed rejection at
// admission on either kernel backend; nothing is computed or cached, and
// the engine keeps serving finite requests.
TEST(NonFiniteTest, NonFiniteRequestsAreRejectedOnBothBackends) {
  const kernels::Backend restore = kernels::ActiveBackend();
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::SimdAvailable()) backends.push_back(kernels::Backend::kSimd);
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  Rng rng(67);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);
  for (kernels::Backend backend : backends) {
    kernels::SetBackendForTesting(backend);
    InferenceEngine engine(&frozen, InferenceEngineOptions{});
    uint64_t rejected = 0;
    for (const float poison : {std::nanf(""), INFINITY, -INFINITY}) {
      for (int64_t at : {int64_t{0}, int64_t{59 * 2 + 1}}) {
        InferenceRequest request;
        request.series = MakeSeries(60, 2, 902);
        request.series.data()[at] = poison;
        const InferenceResponse response = engine.Run(std::move(request));
        EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument)
            << kernels::BackendName(backend) << " " << poison << " at " << at;
        EXPECT_FALSE(response.output.defined());
        ++rejected;
      }
      InferenceRequest with_context;
      with_context.series = MakeSeries(60, 2, 903);
      with_context.context = Tensor::Zeros({config.encoder.dim});
      with_context.context.data()[3] = poison;
      EXPECT_EQ(engine.Run(std::move(with_context)).status.code(),
                StatusCode::kInvalidArgument);
      ++rejected;
    }
    InferenceRequest finite;
    finite.series = MakeSeries(60, 2, 902);
    const InferenceResponse ok = engine.Run(std::move(finite));
    ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
    EXPECT_TRUE(ok.output.AllFinite());
    const InferenceEngineStats stats = engine.stats();
    EXPECT_EQ(stats.rejected_invalid, rejected) << kernels::BackendName(backend);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(CacheInsertions(engine), 0u);
  }
  kernels::SetBackendForTesting(restore);
}

// A finite input of 3e38 overflows inside the forward. Its rider fails
// alone with a typed error and is never cached, even on the second sighting
// that would insert it; its batch-mates keep the bits of their solo forwards.
TEST(NonFiniteTest, OverflowingRiderFailsAloneAndIsNeverCached) {
  model::RitaConfig config = SmallConfig(attn::AttentionKind::kGroup);
  Rng rng(68);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);
  const Tensor huge = Tensor::Full({60, 2}, 3e38f);
  ASSERT_TRUE(huge.AllFinite());
  ASSERT_FALSE(frozen.ClassLogits(huge.Reshape({1, 60, 2})).AllFinite())
      << "the probe input no longer overflows; pick a larger one";

  InferenceEngineOptions options;
  options.num_workers = 1;
  options.max_micro_batch = 8;
  options.start_paused = true;
  InferenceEngine engine(&frozen, options);
  auto submit = [&](const Tensor& series) {
    InferenceRequest request;
    request.series = series.Clone();
    return engine.Submit(std::move(request));
  };

  // First sighting of the overflowing key, alone in its batch.
  auto first = submit(huge);
  engine.Resume();
  EXPECT_EQ(first.get().status.code(), StatusCode::kInvalidArgument);

  // Second sighting, riding between two finite requests.
  engine.Pause();
  const Tensor a = MakeSeries(60, 2, 904), b = MakeSeries(60, 2, 905);
  auto fa = submit(a);
  auto fh = submit(huge);
  auto fb = submit(b);
  engine.Resume();
  const InferenceResponse ra = fa.get(), rh = fh.get(), rb = fb.get();
  EXPECT_EQ(rh.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rh.status.message(), "non-finite output");
  EXPECT_FALSE(rh.output.defined());
  ASSERT_TRUE(ra.status.ok()) << ra.status.ToString();
  ASSERT_TRUE(rb.status.ok()) << rb.status.ToString();
  EXPECT_EQ(ra.micro_batch, 3);
  EXPECT_EQ(rh.micro_batch, 3);
  EXPECT_TRUE(BitEqual(ra.output,
                       frozen.ClassLogits(a.Reshape({1, 60, 2})).Reshape({4})));
  EXPECT_TRUE(BitEqual(rb.output,
                       frozen.ClassLogits(b.Reshape({1, 60, 2})).Reshape({4})));
  EXPECT_EQ(CacheInsertions(engine), 0u) << "a non-finite output was cached";

  // Third sighting: still computed, still rejected, never a cached OK.
  const InferenceResponse third = submit(huge).get();
  EXPECT_EQ(third.status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(third.cache_hit);

  const InferenceEngineStats stats = engine.stats();
  EXPECT_EQ(stats.rejected_invalid, 3u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.batches, 3u);
}

}  // namespace
}  // namespace serve
}  // namespace rita
