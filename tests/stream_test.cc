// Tests for rita::stream — windowed streaming inference over unbounded
// series. The acceptance contract: a session's stitched output is a pure
// function of the ingested samples (bit-identical across ingestion chunk
// sizes), overlap-average reconstruction matches an offline sliding-window
// reference, and 8 concurrent sessions on one engine reproduce their
// single-session outputs (run under RITA_SANITIZE=thread in CI). Also covers
// the WindowAssembler, typed backpressure rejects, tail flushing, EWMA
// scores and the deadline-miss / compute-telemetry satellites.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "serve/inference_engine.h"
#include "stream/stream_manager.h"
#include "util/execution_context.h"
#include "util/thread_pool.h"

namespace rita {
namespace stream {
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

Tensor MakeSeries(int64_t n, int64_t c, uint64_t seed) {
  Rng rng(seed);
  return Tensor::RandNormal({n, c}, &rng);
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.defined() == b.defined() &&
         (!a.defined() ||
          (a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0));
}

Tensor SliceRows(const Tensor& series, int64_t start, int64_t len) {
  const int64_t c = series.size(1);
  Tensor out({len, c});
  std::copy(series.data() + start * c, series.data() + (start + len) * c,
            out.data());
  return out;
}

/// Shared fixture: one frozen model + engine + manager.
struct Rig {
  explicit Rig(int64_t cache_bytes = 32 << 20, int num_workers = 2) {
    model::RitaConfig config = SmallConfig();
    Rng rng(42);
    source = std::make_unique<model::RitaModel>(config, &rng);
    frozen = std::make_unique<serve::FrozenModel>(*source);
    serve::InferenceEngineOptions options;
    options.num_workers = num_workers;
    options.cache_bytes = cache_bytes;
    engine = std::make_unique<serve::InferenceEngine>(frozen.get(), options);
    manager = std::make_unique<StreamManager>(engine.get());
  }

  std::unique_ptr<model::RitaModel> source;
  std::unique_ptr<serve::FrozenModel> frozen;
  std::unique_ptr<serve::InferenceEngine> engine;
  std::unique_ptr<StreamManager> manager;
};

/// Feeds `series` through a fresh session in `chunk`-sized appends, closes
/// it, and returns (results, timeline).
struct StreamRun {
  std::vector<StreamWindowResult> results;
  Tensor timeline;
  int64_t timeline_start = 0;
  StreamStats stats;
};

StreamRun FeedSeries(StreamManager* manager, const StreamOptions& options,
                     const Tensor& series, int64_t chunk) {
  Result<int64_t> opened = manager->Open(options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  const int64_t id = opened.ValueOrDie();
  const int64_t n = series.size(0);
  for (int64_t at = 0; at < n; at += chunk) {
    const int64_t len = std::min(chunk, n - at);
    Status appended = manager->Append(id, SliceRows(series, at, len));
    EXPECT_TRUE(appended.ok()) << appended.ToString();
  }
  EXPECT_TRUE(manager->Close(id).ok());
  StreamRun run;
  StreamSession* session = manager->Find(id);
  run.results = session->TakeResults();
  run.timeline = session->TakeTimeline(&run.timeline_start);
  run.stats = session->stats();
  EXPECT_TRUE(manager->Release(id).ok());
  return run;
}

// ---------------------------------------------------------------------------
// WindowAssembler
// ---------------------------------------------------------------------------

TEST(WindowAssemblerTest, HopAlignedWindowsAndRaggedTail) {
  WindowAssembler::Options options;
  options.channels = 2;
  options.window_length = 10;
  options.hop = 4;
  WindowAssembler assembler(options);

  const Tensor series = MakeSeries(27, 2, 1);
  // Ragged chunks: 5 + 1 + 13 + 8 = 27 samples.
  ASSERT_TRUE(assembler.Append(SliceRows(series, 0, 5)).ok());
  ASSERT_TRUE(assembler.Append(SliceRows(series, 5, 1)).ok());
  ASSERT_TRUE(assembler.Append(SliceRows(series, 6, 13)).ok());
  ASSERT_TRUE(assembler.Append(SliceRows(series, 19, 8)).ok());

  // Windows start at 0, 4, 8, 12, 16 (start + 10 <= 27); tail is [20, 27).
  std::vector<int64_t> starts;
  while (assembler.HasWindow()) {
    int64_t start = 0;
    Tensor window = assembler.PopWindow(&start);
    EXPECT_TRUE(BitEqual(window, SliceRows(series, start, 10)));
    starts.push_back(start);
  }
  EXPECT_EQ(starts, (std::vector<int64_t>{0, 4, 8, 12, 16}));
  EXPECT_EQ(assembler.TailLength(), 7);
  int64_t tail_start = 0;
  Tensor tail = assembler.TakeTail(&tail_start);
  EXPECT_EQ(tail_start, 20);
  EXPECT_TRUE(BitEqual(tail, SliceRows(series, 20, 7)));
  EXPECT_EQ(assembler.total_ingested(), 27);
  EXPECT_EQ(assembler.buffered(), 0);
}

TEST(WindowAssemblerTest, BufferBudgetTypedReject) {
  WindowAssembler::Options options;
  options.channels = 1;
  options.window_length = 8;
  options.hop = 8;
  options.max_buffered = 12;
  WindowAssembler assembler(options);

  ASSERT_TRUE(assembler.Append(Tensor::Zeros({10})).ok());
  // 10 buffered + 5 > 12: refused whole, nothing ingested.
  Status rejected = assembler.Append(Tensor::Zeros({5}));
  EXPECT_EQ(rejected.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(assembler.buffered(), 10);
  EXPECT_EQ(assembler.total_ingested(), 10);
  // Draining a window frees budget.
  ASSERT_TRUE(assembler.HasWindow());
  assembler.PopWindow(nullptr);
  EXPECT_TRUE(assembler.Append(Tensor::Zeros({5})).ok());
}

TEST(WindowAssemblerTest, EmittedWindowsInvariantToChunking) {
  const Tensor series = MakeSeries(41, 3, 2);
  std::vector<std::vector<Tensor>> per_chunking;
  for (int64_t chunk : {1, 3, 41}) {
    WindowAssembler::Options options;
    options.channels = 3;
    options.window_length = 12;
    options.hop = 5;
    WindowAssembler assembler(options);
    std::vector<Tensor> windows;
    for (int64_t at = 0; at < 41; at += chunk) {
      ASSERT_TRUE(
          assembler.Append(SliceRows(series, at, std::min(chunk, 41 - at))).ok());
      while (assembler.HasWindow()) windows.push_back(assembler.PopWindow(nullptr));
    }
    per_chunking.push_back(std::move(windows));
  }
  ASSERT_EQ(per_chunking[0].size(), per_chunking[1].size());
  ASSERT_EQ(per_chunking[0].size(), per_chunking[2].size());
  for (size_t i = 0; i < per_chunking[0].size(); ++i) {
    EXPECT_TRUE(BitEqual(per_chunking[0][i], per_chunking[1][i]));
    EXPECT_TRUE(BitEqual(per_chunking[0][i], per_chunking[2][i]));
  }
}

// ---------------------------------------------------------------------------
// StreamSession determinism (the acceptance contract)
// ---------------------------------------------------------------------------

// Feeding one long series in chunk sizes {1, 7, window} yields bit-identical
// stitched reconstruction and identical window scores.
TEST(StreamSessionTest, ReconstructBitIdenticalAcrossChunkSizes) {
  Rig rig;
  StreamOptions options;
  options.task = StreamTask::kReconstruct;
  options.window_length = 60;
  options.hop = 30;
  options.carry_context = true;
  const Tensor series = MakeSeries(150, 2, 3);

  const StreamRun a = FeedSeries(rig.manager.get(), options, series, 1);
  const StreamRun b = FeedSeries(rig.manager.get(), options, series, 7);
  const StreamRun c = FeedSeries(rig.manager.get(), options, series, 60);

  // 4 full windows (starts 0/30/60/90) + the flushed tail (start 120).
  ASSERT_EQ(a.results.size(), 5u);
  ASSERT_TRUE(a.timeline.defined());
  EXPECT_EQ(a.timeline.size(0), 150);
  EXPECT_EQ(a.timeline_start, 0);
  EXPECT_TRUE(BitEqual(a.timeline, b.timeline));
  EXPECT_TRUE(BitEqual(a.timeline, c.timeline));
  ASSERT_EQ(b.results.size(), 5u);
  ASSERT_EQ(c.results.size(), 5u);
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].start, b.results[i].start);
    EXPECT_EQ(a.results[i].valid_length, c.results[i].valid_length);
  }
  EXPECT_EQ(a.results.back().valid_length, 30);  // ragged tail
}

TEST(StreamSessionTest, ClassifyBitIdenticalAcrossChunkSizes) {
  Rig rig;
  StreamOptions options;
  options.task = StreamTask::kClassify;
  options.window_length = 60;
  options.hop = 30;
  options.carry_context = true;
  const Tensor series = MakeSeries(150, 2, 4);

  const StreamRun a = FeedSeries(rig.manager.get(), options, series, 1);
  const StreamRun b = FeedSeries(rig.manager.get(), options, series, 7);
  const StreamRun c = FeedSeries(rig.manager.get(), options, series, 60);
  ASSERT_EQ(a.results.size(), 5u);
  ASSERT_EQ(b.results.size(), 5u);
  ASSERT_EQ(c.results.size(), 5u);
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_TRUE(BitEqual(a.results[i].logits, b.results[i].logits)) << i;
    EXPECT_TRUE(BitEqual(a.results[i].logits, c.results[i].logits)) << i;
    EXPECT_EQ(a.results[i].raw_score, b.results[i].raw_score) << i;
    EXPECT_EQ(a.results[i].score, c.results[i].score) << i;
  }
}

// Overlap-average stitching matches an offline sliding-window reference
// computed directly on the FrozenModel (context carry off so every window is
// independently reproducible one-shot).
TEST(StreamSessionTest, OverlapAverageMatchesOfflineReference) {
  Rig rig;
  StreamOptions options;
  options.task = StreamTask::kReconstruct;
  options.window_length = 60;
  options.hop = 20;
  options.carry_context = false;
  const int64_t n = 140, c = 2, w = 60, hop = 20;
  const Tensor series = MakeSeries(n, c, 5);

  const StreamRun run = FeedSeries(rig.manager.get(), options, series, 11);
  ASSERT_TRUE(run.timeline.defined());
  ASSERT_EQ(run.timeline.size(0), n);

  // Offline reference: the same hop-aligned windows (incl. the edge-padded
  // tail), each reconstructed one-shot, averaged per position in the same
  // window order and arithmetic (double sums).
  std::vector<double> sum(static_cast<size_t>(n * c), 0.0);
  std::vector<int32_t> count(static_cast<size_t>(n), 0);
  auto accumulate = [&](const Tensor& window, int64_t start, int64_t valid) {
    Tensor recon = rig.frozen->Reconstruct(window.Reshape({1, w, c}));
    for (int64_t row = 0; row < valid; ++row) {
      for (int64_t ch = 0; ch < c; ++ch) {
        sum[(start + row) * c + ch] += recon.data()[row * c + ch];
      }
      ++count[start + row];
    }
  };
  int64_t start = 0;
  for (; start + w <= n; start += hop) {
    accumulate(SliceRows(series, start, w), start, w);
  }
  const int64_t tail = n - start;
  ASSERT_GT(tail, 0);
  Tensor padded({w, c});
  std::copy(series.data() + start * c, series.data() + n * c, padded.data());
  for (int64_t row = tail; row < w; ++row) {
    std::copy(series.data() + (n - 1) * c, series.data() + n * c,
              padded.data() + row * c);
  }
  accumulate(padded, start, tail);

  Tensor want({n, c});
  for (int64_t row = 0; row < n; ++row) {
    for (int64_t ch = 0; ch < c; ++ch) {
      want.data()[row * c + ch] = static_cast<float>(
          sum[row * c + ch] / static_cast<double>(count[row]));
    }
  }
  EXPECT_TRUE(BitEqual(run.timeline, want))
      << "stitched timeline diverges from the offline sliding-window average";
}

// Carrying the previous window's [CLS] conditions later windows: window 0 is
// unchanged (no context yet), later windows differ — and the carried path is
// itself deterministic.
TEST(StreamSessionTest, ContextCarryConditionsLaterWindows) {
  Rig rig;
  StreamOptions carried;
  carried.task = StreamTask::kClassify;
  carried.window_length = 60;
  carried.hop = 60;
  carried.carry_context = true;
  StreamOptions independent = carried;
  independent.carry_context = false;
  const Tensor series = MakeSeries(180, 2, 6);  // 3 tumbling windows

  const StreamRun with = FeedSeries(rig.manager.get(), carried, series, 60);
  const StreamRun with2 = FeedSeries(rig.manager.get(), carried, series, 60);
  const StreamRun without = FeedSeries(rig.manager.get(), independent, series, 60);
  ASSERT_EQ(with.results.size(), 3u);
  ASSERT_EQ(without.results.size(), 3u);
  EXPECT_TRUE(BitEqual(with.results[0].logits, without.results[0].logits));
  EXPECT_FALSE(BitEqual(with.results[1].logits, without.results[1].logits))
      << "context token had no effect on the conditioned window";
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(BitEqual(with.results[i].logits, with2.results[i].logits));
  }
}

// The carried [CLS] chain matches a reference built outside the session:
// window k is ClassLogits(window_k, k ? &cls_{k-1} : nullptr, &cls_k)
// straight on the FrozenModel, the edge-padded tail included.
TEST(StreamSessionTest, ContextCarryMatchesManualClsChain) {
  Rig rig;
  StreamOptions options;
  options.task = StreamTask::kClassify;
  options.window_length = 60;
  options.hop = 30;
  options.carry_context = true;
  const int64_t n = 150, c = 2, w = 60, hop = 30;
  const Tensor series = MakeSeries(n, c, 9);

  const StreamRun run = FeedSeries(rig.manager.get(), options, series, 7);
  // 4 full windows (starts 0/30/60/90) + the flushed tail (start 120).
  ASSERT_EQ(run.results.size(), 5u);
  EXPECT_EQ(run.results.back().valid_length, 30);

  std::vector<Tensor> windows;
  int64_t start = 0;
  for (; start + w <= n; start += hop) windows.push_back(SliceRows(series, start, w));
  Tensor padded({w, c});
  std::copy(series.data() + start * c, series.data() + n * c, padded.data());
  for (int64_t row = n - start; row < w; ++row) {
    std::copy(series.data() + (n - 1) * c, series.data() + n * c,
              padded.data() + row * c);
  }
  windows.push_back(padded);
  ASSERT_EQ(windows.size(), run.results.size());

  Tensor cls;
  for (size_t k = 0; k < windows.size(); ++k) {
    const Tensor previous = cls;
    const Tensor want = rig.frozen->ClassLogits(
        windows[k].Reshape({1, w, c}), k > 0 ? &previous : nullptr, &cls);
    EXPECT_TRUE(BitEqual(run.results[k].logits, want.Reshape({4})))
        << "window " << k << " diverges from the manual [CLS] chain";
  }
}

// A NaN or Inf chunk mid-stream is refused whole before anything is
// buffered, and the session keeps serving: every later window, the padded
// tail included, is bitwise the clean stream's. Window k + 1 reads window
// k's carried [CLS], so equal logits also show that the carried context
// stayed the clean, finite one.
TEST(StreamSessionTest, NonFiniteChunkIsRefusedAndSessionKeepsServing) {
  Rig rig;
  StreamOptions options;
  options.task = StreamTask::kClassify;
  options.window_length = 60;
  options.hop = 30;
  options.carry_context = true;
  const int64_t n = 150, c = 2, chunk = 7;
  const Tensor series = MakeSeries(n, c, 9);
  const StreamRun clean = FeedSeries(rig.manager.get(), options, series, chunk);

  const int64_t id = rig.manager->Open(options).ValueOrDie();
  StreamSession* session = rig.manager->Find(id);
  for (int64_t at = 0; at < n; at += chunk) {
    if (at == 49) {  // mid-stream: one window emitted, the next half-buffered
      for (const float poison : {std::nanf(""), INFINITY}) {
        Tensor bad = SliceRows(series, at, chunk);
        bad.data()[3] = poison;
        const StreamStats before = session->stats();
        EXPECT_EQ(rig.manager->Append(id, bad).code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(session->stats().samples_ingested, before.samples_ingested);
        EXPECT_EQ(session->stats().samples_buffered, before.samples_buffered);
      }
    }
    ASSERT_TRUE(rig.manager->Append(id, SliceRows(series, at, std::min(chunk, n - at)))
                    .ok());
  }
  ASSERT_TRUE(rig.manager->Close(id).ok());
  const std::vector<StreamWindowResult> results = session->TakeResults();
  ASSERT_EQ(results.size(), clean.results.size());
  for (size_t k = 0; k < results.size(); ++k) {
    EXPECT_TRUE(results[k].logits.AllFinite()) << "window " << k;
    EXPECT_TRUE(BitEqual(results[k].logits, clean.results[k].logits))
        << "window " << k << " diverges after the refused chunk";
  }
  EXPECT_TRUE(rig.manager->Release(id).ok());
}

// A stream shorter than one window flushes as a single edge-padded window.
TEST(StreamSessionTest, ShortStreamFlushesPaddedTail) {
  Rig rig;
  StreamOptions options;
  options.task = StreamTask::kReconstruct;
  options.window_length = 60;
  options.hop = 60;
  const Tensor series = MakeSeries(23, 2, 7);

  const StreamRun run = FeedSeries(rig.manager.get(), options, series, 23);
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].start, 0);
  EXPECT_EQ(run.results[0].length, 60);
  EXPECT_EQ(run.results[0].valid_length, 23);
  ASSERT_TRUE(run.timeline.defined());
  EXPECT_EQ(run.timeline.size(0), 23);  // only real samples stitched
  EXPECT_EQ(run.stats.windows_emitted, 1u);
  EXPECT_EQ(run.stats.samples_ingested, 23u);
}

TEST(StreamSessionTest, AnomalyScoresFollowEwma) {
  Rig rig;
  StreamOptions options;
  options.task = StreamTask::kAnomaly;
  options.window_length = 60;
  options.hop = 60;
  options.ewma_alpha = 0.5;
  const Tensor series = MakeSeries(240, 2, 8);  // 4 tumbling windows

  const StreamRun run = FeedSeries(rig.manager.get(), options, series, 60);
  ASSERT_EQ(run.results.size(), 4u);
  double expect = run.results[0].raw_score;
  EXPECT_EQ(run.results[0].score, expect);
  for (size_t i = 1; i < run.results.size(); ++i) {
    EXPECT_GT(run.results[i].raw_score, 0.0);
    expect = 0.5 * run.results[i].raw_score + 0.5 * expect;
    EXPECT_DOUBLE_EQ(run.results[i].score, expect) << "window " << i;
  }
}

// ---------------------------------------------------------------------------
// StreamManager: caps, typed rejects, validation, stats
// ---------------------------------------------------------------------------

TEST(StreamManagerTest, SessionCapIsTypedReject) {
  Rig rig;
  StreamManager::Options mopts;
  mopts.max_sessions = 2;
  StreamManager manager(rig.engine.get(), mopts);
  StreamOptions options;
  options.task = StreamTask::kReconstruct;

  const int64_t a = manager.Open(options).ValueOrDie();
  manager.Open(options).ValueOrDie();
  Result<int64_t> third = manager.Open(options);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(manager.stats().sessions_rejected, 1u);
  // Closing a session frees a slot.
  ASSERT_TRUE(manager.Close(a).ok());
  EXPECT_TRUE(manager.Open(options).ok());
  EXPECT_EQ(manager.stats().sessions_opened, 3u);
}

TEST(StreamManagerTest, BufferBudgetSurfacesAsBackpressure) {
  Rig rig;
  StreamManager::Options mopts;
  mopts.max_buffered_samples = 70;  // holds one 60-sample window + slack
  StreamManager manager(rig.engine.get(), mopts);
  StreamOptions options;
  options.task = StreamTask::kReconstruct;
  const int64_t id = manager.Open(options).ValueOrDie();

  // 50 buffered (< one 60-sample window, nothing drains) + 25 > 70.
  ASSERT_TRUE(manager.Append(id, MakeSeries(50, 2, 9)).ok());
  Status rejected = manager.Append(id, MakeSeries(25, 2, 10));
  EXPECT_EQ(rejected.code(), StatusCode::kOutOfMemory);
  // Not sticky: a smaller chunk still fits (and completes a window, which
  // drains the buffer).
  EXPECT_TRUE(manager.Append(id, MakeSeries(10, 2, 11)).ok());
  const StreamStats stats = manager.session_stats(id).ValueOrDie();
  EXPECT_EQ(stats.rejected_backpressure, 1u);
  EXPECT_EQ(stats.windows_emitted, 1u);
  EXPECT_EQ(stats.samples_buffered, 0);
  EXPECT_TRUE(manager.Close(id).ok());

  // A budget that cannot hold even one window would wedge permanently in
  // backpressure, so Open refuses it up front.
  StreamManager::Options tiny;
  tiny.max_buffered_samples = 30;
  StreamManager wedged(rig.engine.get(), tiny);
  EXPECT_EQ(wedged.Open(options).status().code(), StatusCode::kInvalidArgument);
}

// Engine admission backpressure is retryable, not sticky: the refused window
// stays buffered and an empty retry Append resumes the stream exactly where
// it left off.
TEST(StreamSessionTest, EngineBackpressureRetainsWindowAndIsRetryable) {
  Rig rig;
  serve::InferenceEngineOptions eopts;
  eopts.max_queue = 1;  // one slot: a parked request fills the engine
  eopts.cache_bytes = 0;
  eopts.start_paused = true;
  serve::InferenceEngine engine(rig.frozen.get(), eopts);
  StreamManager manager(&engine);
  StreamOptions options;
  options.task = StreamTask::kClassify;
  options.window_length = 60;
  options.hop = 60;
  const int64_t id = manager.Open(options).ValueOrDie();

  // Park a request in the paused engine's only queue slot.
  serve::InferenceRequest parked;
  parked.series = MakeSeries(60, 2, 40);
  auto parked_future = engine.Submit(std::move(parked));

  const Tensor series = MakeSeries(60, 2, 41);
  Status rejected = manager.Append(id, series);
  EXPECT_EQ(rejected.code(), StatusCode::kOutOfMemory);
  StreamSession* session = manager.Find(id);
  EXPECT_FALSE(session->closed());
  EXPECT_EQ(session->stats().samples_buffered, 60);  // window retained
  EXPECT_EQ(session->stats().rejected_backpressure, 1u);

  // Drain the parked request, then resume the stream with an empty chunk.
  engine.Resume();
  ASSERT_TRUE(parked_future.get().status.ok());
  ASSERT_TRUE(manager.Append(id, Tensor({0, 2})).ok());
  std::vector<StreamWindowResult> results = session->TakeResults();
  ASSERT_EQ(results.size(), 1u);
  // The retried window is bit-identical to the unobstructed path.
  StreamRun want = FeedSeries(rig.manager.get(), options, series, 60);
  EXPECT_TRUE(BitEqual(results[0].logits, want.results[0].logits));
  EXPECT_TRUE(manager.Close(id).ok());
}

// A sticky engine failure (shutdown mid-stream) fails the session closed:
// later appends return the first error, and Close() still frees the
// manager's cap slot while reporting it.
TEST(StreamSessionTest, EngineFailureIsStickyButCloseFreesCapSlot) {
  Rig rig;
  serve::InferenceEngineOptions eopts;
  eopts.cache_bytes = 0;
  serve::InferenceEngine engine(rig.frozen.get(), eopts);
  StreamManager::Options mopts;
  mopts.max_sessions = 1;
  StreamManager manager(&engine, mopts);
  StreamOptions options;
  options.task = StreamTask::kClassify;
  options.window_length = 60;
  options.hop = 60;
  const int64_t id = manager.Open(options).ValueOrDie();

  engine.Shutdown();
  Status failed = manager.Append(id, MakeSeries(60, 2, 42));
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(failed.code(), StatusCode::kOutOfMemory);  // not retryable
  EXPECT_EQ(manager.Append(id, MakeSeries(1, 2, 43)).code(), failed.code());

  // Close reports the sticky error but the slot frees up.
  EXPECT_FALSE(manager.Close(id).ok());
  EXPECT_TRUE(manager.Find(id)->closed());
  EXPECT_EQ(manager.open_sessions(), 0);
}

TEST(StreamManagerTest, ValidatesOptionsAgainstModel) {
  Rig rig;
  StreamOptions unknown_model;
  unknown_model.model_id = 7;
  EXPECT_EQ(rig.manager->Open(unknown_model).status().code(),
            StatusCode::kInvalidArgument);

  StreamOptions bad_window;
  bad_window.window_length = 61;  // > input_length
  EXPECT_EQ(rig.manager->Open(bad_window).status().code(),
            StatusCode::kInvalidArgument);

  StreamOptions bad_hop;
  bad_hop.window_length = 60;
  bad_hop.hop = 61;
  EXPECT_EQ(rig.manager->Open(bad_hop).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(rig.manager->Append(99, MakeSeries(5, 2, 1)).code(),
            StatusCode::kNotFound);
}

TEST(StreamManagerTest, AggregateStatsSpanSessionsAndSurviveRelease) {
  Rig rig;
  StreamOptions options;
  options.task = StreamTask::kClassify;
  options.window_length = 60;
  options.hop = 60;
  const Tensor series = MakeSeries(120, 2, 12);  // 2 windows each

  FeedSeries(rig.manager.get(), options, series, 60);  // released inside
  const int64_t id = rig.manager->Open(options).ValueOrDie();
  ASSERT_TRUE(rig.manager->Append(id, series).ok());

  const StreamStats aggregate = rig.manager->stats();
  EXPECT_EQ(aggregate.windows_emitted, 4u);     // 2 retired + 2 live
  EXPECT_EQ(aggregate.samples_ingested, 240u);  // retired counters survive
  EXPECT_EQ(aggregate.sessions_opened, 2u);
  EXPECT_EQ(aggregate.sessions_closed, 1u);
  EXPECT_GT(aggregate.latency_p50_ms, 0.0);
  EXPECT_GE(aggregate.latency_p99_ms, aggregate.latency_p50_ms);
  EXPECT_TRUE(rig.manager->Close(id).ok());
}

// ---------------------------------------------------------------------------
// Concurrency: 8 sessions on one engine (TSan acceptance)
// ---------------------------------------------------------------------------

TEST(StreamManagerTest, EightConcurrentSessionsReproduceSoloRuns) {
  constexpr int kSessions = 8;
  const int64_t n = 150;
  StreamOptions options;
  options.task = StreamTask::kClassify;
  options.window_length = 60;
  options.hop = 30;
  options.carry_context = true;

  // Solo references, one stream at a time.
  std::vector<Tensor> series;
  std::vector<StreamRun> want;
  {
    Rig rig;
    for (int s = 0; s < kSessions; ++s) {
      series.push_back(MakeSeries(n, 2, 1000 + s));
      want.push_back(FeedSeries(rig.manager.get(), options, series[s], 7));
    }
  }

  // The same streams concurrently: shared engine + pool, one thread each.
  Rig rig;
  ThreadPool pool(4);
  ExecutionContext context(&pool);
  serve::InferenceEngineOptions eopts;
  eopts.num_workers = 3;
  eopts.max_micro_batch = 8;
  eopts.context = &context;
  serve::InferenceEngine engine(rig.frozen.get(), eopts);
  StreamManager manager(&engine);

  std::vector<StreamRun> got(kSessions);
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      got[s] = FeedSeries(&manager, options, series[s], 7);
    });
  }
  for (auto& thread : threads) thread.join();

  for (int s = 0; s < kSessions; ++s) {
    ASSERT_EQ(got[s].results.size(), want[s].results.size());
    for (size_t i = 0; i < want[s].results.size(); ++i) {
      EXPECT_TRUE(BitEqual(got[s].results[i].logits, want[s].results[i].logits))
          << "session " << s << " window " << i
          << " diverged under concurrency (micro_batch="
          << got[s].results[i].micro_batch << ")";
      EXPECT_EQ(got[s].results[i].score, want[s].results[i].score);
    }
  }
}

// ---------------------------------------------------------------------------
// Satellites: deadline-miss accounting + compute telemetry
// ---------------------------------------------------------------------------

TEST(StreamSessionTest, LateWindowsCountedSessionAndEngineSide) {
  Rig rig;
  StreamOptions options;
  options.task = StreamTask::kClassify;
  options.window_length = 60;
  options.hop = 60;
  options.deadline_ms = 1e-6;  // every window resolves late
  const Tensor series = MakeSeries(180, 2, 13);

  const StreamRun run = FeedSeries(rig.manager.get(), options, series, 60);
  ASSERT_EQ(run.results.size(), 3u);
  for (const StreamWindowResult& result : run.results) EXPECT_TRUE(result.late);
  EXPECT_EQ(run.stats.late_windows, 3u);
  EXPECT_EQ(rig.engine->stats().deadline_missed, 3u);
  EXPECT_EQ(rig.engine->model_stats(0).deadline_missed, 3u);
}

TEST(StreamManagerTest, ComputeTelemetryPopulatedAndMonotone) {
  Rig rig;
  StreamOptions options;
  options.task = StreamTask::kReconstruct;
  options.window_length = 60;
  options.hop = 60;
  const Tensor series = MakeSeries(120, 2, 14);

  FeedSeries(rig.manager.get(), options, series, 60);
  const serve::InferenceEngineStats first = rig.engine->stats();
  EXPECT_GT(first.batches, 0u);
  EXPECT_GT(first.total_compute_ms, 0.0);
  EXPECT_GT(first.AvgComputeMs(), 0.0);
  EXPECT_GE(first.max_compute_ms, first.AvgComputeMs());

  FeedSeries(rig.manager.get(), options, series, 60);
  const serve::InferenceEngineStats second = rig.engine->stats();
  EXPECT_GT(second.batches, first.batches);
  EXPECT_GT(second.total_compute_ms, first.total_compute_ms);
  EXPECT_GE(second.max_compute_ms, first.max_compute_ms);

  // Per-model telemetry mirrors the aggregate on a single-model engine.
  const serve::InferenceEngineStats per_model = rig.engine->model_stats(0);
  EXPECT_EQ(per_model.batches, second.batches);
  EXPECT_DOUBLE_EQ(per_model.total_compute_ms, second.total_compute_ms);
}

// Carry-free pipelining: pipeline_depth > 1 keeps several windows in flight
// but harvests them in submission order, so results, scores and the stitched
// timeline are bit-identical to the sequential (depth 1) session — across
// ingestion chunk sizes, with the cache off so every window truly computes.
TEST(StreamSessionTest, PipelinedWindowsBitIdenticalToSequential) {
  Rig rig(/*cache_bytes=*/0, /*num_workers=*/2);
  const Tensor series = MakeSeries(150, 2, 21);
  for (StreamTask task : {StreamTask::kReconstruct, StreamTask::kClassify,
                          StreamTask::kAnomaly}) {
    StreamOptions options;
    options.task = task;
    options.window_length = 60;
    options.hop = 30;
    options.carry_context = false;  // pipelining precondition

    options.pipeline_depth = 1;
    const StreamRun sequential = FeedSeries(rig.manager.get(), options, series, 7);

    options.pipeline_depth = 4;
    const StreamRun pipelined = FeedSeries(rig.manager.get(), options, series, 7);
    const StreamRun chunked = FeedSeries(rig.manager.get(), options, series, 150);

    ASSERT_EQ(sequential.results.size(), pipelined.results.size());
    for (size_t i = 0; i < sequential.results.size(); ++i) {
      EXPECT_EQ(sequential.results[i].start, pipelined.results[i].start) << i;
      EXPECT_TRUE(BitEqual(sequential.results[i].logits, pipelined.results[i].logits))
          << i;
      EXPECT_EQ(sequential.results[i].raw_score, pipelined.results[i].raw_score) << i;
      EXPECT_EQ(sequential.results[i].score, chunked.results[i].score) << i;
    }
    EXPECT_TRUE(BitEqual(sequential.timeline, pipelined.timeline));
    EXPECT_TRUE(BitEqual(sequential.timeline, chunked.timeline));
  }
}

TEST(StreamManagerTest, PipeliningRequiresCarryFreeSessions) {
  Rig rig;
  StreamOptions options;
  options.carry_context = true;
  options.pipeline_depth = 4;
  Result<int64_t> opened = rig.manager->Open(options);
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);

  options.pipeline_depth = 0;
  options.carry_context = false;
  EXPECT_FALSE(rig.manager->Open(options).ok());

  options.pipeline_depth = 4;
  EXPECT_TRUE(rig.manager->Open(options).ok());
}

}  // namespace
}  // namespace stream
}  // namespace rita
