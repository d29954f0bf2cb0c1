// Streaming: pretrain a small RITA reconstruction model on clean sensor
// behaviour, then watch an unbounded simulated feed through rita::stream —
// chunks of samples arrive as a sensor would emit them, the StreamManager
// slides overlapping windows through the serving engine with [CLS] context
// carried between windows, and every window yields an online anomaly score
// (EWMA-smoothed reconstruction error). A vibration burst injected mid-feed
// shows up as a score spike. The README "Streaming" walkthrough as a
// runnable program.
//
//   ./build/example_streaming
#include <cmath>
#include <cstdio>
#include <vector>

#include "data/dataset.h"
#include "serve/inference_engine.h"
#include "stream/stream_manager.h"
#include "train/trainer.h"
#include "util/logging.h"

using namespace rita;  // NOLINT: example brevity

namespace {

constexpr int64_t kChannels = 2;
constexpr int64_t kWindow = 80;

/// One sample of the simulated two-channel sensor (smooth multi-sine plus
/// mild noise); `burst` superimposes a high-frequency vibration.
void Emit(int64_t t, bool burst, Rng* rng, float* out) {
  const double x = static_cast<double>(t);
  out[0] = static_cast<float>(0.6 * std::sin(x * 0.11) +
                              0.3 * std::sin(x * 0.031 + 1.0)) +
           0.05f * static_cast<float>(rng->Normal());
  out[1] = static_cast<float>(0.5 * std::cos(x * 0.07)) +
           0.05f * static_cast<float>(rng->Normal());
  if (burst) {
    out[0] += static_cast<float>(0.8 * std::sin(x * 1.9));
    out[1] += static_cast<float>(0.7 * std::cos(x * 2.3));
  }
}

Tensor EmitChunk(int64_t start, int64_t n, int64_t burst_from, int64_t burst_to,
                 Rng* rng) {
  Tensor chunk({n, kChannels});
  for (int64_t i = 0; i < n; ++i) {
    const int64_t t = start + i;
    Emit(t, t >= burst_from && t < burst_to, rng, chunk.data() + i * kChannels);
  }
  return chunk;
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kWarning);

  // 1. Pretrain a reconstruction model on windows of CLEAN sensor behaviour
  //    (mask-and-predict): normal windows reconstruct well, anomalous ones
  //    poorly — reconstruction error is the online anomaly score.
  data::TimeseriesDataset normal;
  normal.name = "sensor-normal";
  const int64_t train_windows = 160;
  normal.series = Tensor({train_windows, kWindow, kChannels});
  Rng data_rng(11);
  for (int64_t w = 0; w < train_windows; ++w) {
    Tensor window = EmitChunk(w * 17, kWindow, -1, -1, &data_rng);
    std::copy(window.data(), window.data() + kWindow * kChannels,
              normal.series.data() + w * kWindow * kChannels);
  }

  model::RitaConfig config;
  config.input_channels = kChannels;
  config.input_length = kWindow;
  config.window = 5;
  config.stride = 5;
  config.encoder.dim = 32;
  config.encoder.num_layers = 2;
  config.encoder.num_heads = 2;
  config.encoder.ffn_hidden = 64;
  config.encoder.attention.kind = attn::AttentionKind::kGroup;
  config.encoder.attention.group.num_groups = 8;
  Rng model_rng(3);
  model::RitaModel model(config, &model_rng);
  train::TrainOptions topts;
  topts.epochs = 3;
  topts.batch_size = 16;
  topts.adamw.lr = 2e-3f;
  train::Trainer trainer(&model, topts);
  train::TrainResult trained = trainer.TrainImputation(normal);
  std::printf("pretrained on clean sensor data: final loss %.4f\n",
              trained.FinalLoss());

  // 2. Freeze + serve + stream: one engine, one StreamManager, one session
  //    sliding a 50%-overlap window with [CLS] context carry and an online
  //    EWMA anomaly score per window.
  serve::FrozenModel frozen(model);
  serve::InferenceEngineOptions eopts;
  eopts.num_workers = 2;
  serve::InferenceEngine engine(&frozen, eopts);
  stream::StreamManager manager(&engine);

  stream::StreamOptions sopts;
  sopts.task = stream::StreamTask::kAnomaly;
  sopts.window_length = kWindow;
  sopts.hop = kWindow / 2;
  sopts.carry_context = true;
  sopts.ewma_alpha = 0.4;
  const int64_t session = manager.Open(sopts).ValueOrDie();

  // 3. The unbounded feed: 2000 samples in sensor-sized chunks of 23, with a
  //    vibration burst over samples [900, 1200).
  const int64_t total = 2000, burst_from = 900, burst_to = 1200;
  Rng feed_rng(29);
  for (int64_t at = 0; at < total; at += 23) {
    const int64_t n = std::min<int64_t>(23, total - at);
    Status appended =
        manager.Append(session, EmitChunk(at, n, burst_from, burst_to, &feed_rng));
    if (!appended.ok()) {
      std::printf("append failed: %s\n", appended.ToString().c_str());
      return 1;
    }
    // Results stream out as windows complete — a dashboard would poll this.
    for (const stream::StreamWindowResult& r :
         manager.Find(session)->TakeResults()) {
      const bool overlaps_burst =
          r.start < burst_to && r.start + r.valid_length > burst_from;
      std::printf("  window %2lld  samples [%4lld, %4lld)  score %.4f%s\n",
                  static_cast<long long>(r.window_index),
                  static_cast<long long>(r.start),
                  static_cast<long long>(r.start + r.valid_length), r.score,
                  overlaps_burst ? "  <-- burst" : "");
    }
  }

  // 4. Close: the ragged tail flushes as a final edge-padded window.
  if (!manager.Close(session).ok()) return 1;
  for (const stream::StreamWindowResult& r : manager.Find(session)->TakeResults()) {
    std::printf("  window %2lld  samples [%4lld, %4lld)  score %.4f  (tail)\n",
                static_cast<long long>(r.window_index),
                static_cast<long long>(r.start),
                static_cast<long long>(r.start + r.valid_length), r.score);
  }

  // 5. Session + engine observability: windows, latency percentiles, and the
  //    engine-side compute and deadline-miss counters.
  const stream::StreamStats stats = manager.session_stats(session).ValueOrDie();
  const serve::InferenceEngineStats estats = engine.stats();
  std::printf(
      "streamed %llu samples -> %llu windows (p50 %.2f ms, p99 %.2f ms "
      "sample->result; engine avg compute %.2f ms/batch)\n",
      static_cast<unsigned long long>(stats.samples_ingested),
      static_cast<unsigned long long>(stats.windows_emitted),
      stats.latency_p50_ms, stats.latency_p99_ms, estats.AvgComputeMs());
  return 0;
}
