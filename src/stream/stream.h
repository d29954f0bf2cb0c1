// rita::stream — windowed streaming inference over unbounded series.
//
// The serving stack (rita::serve) answers one-shot requests of length up to
// the model's input_length; analytics workloads are streams that never stop
// emitting. This subsystem turns the request/response engine into an online
// service by sliding the model's window over each stream:
//
//   StreamManager::Open(StreamOptions)          (session cap -> typed reject)
//     |
//   StreamSession::Append(samples)              (chunks of any size)
//     |
//   WindowAssembler                             (ring buffer, hop-aligned
//     |                                          windows, buffered-sample
//     v                                          budget -> typed reject)
//   InferenceEngine::Submit <- previous window's [CLS] carried as a
//     |                        position-free context token (FrozenModel::Encode)
//     v
//   stitching: overlap-averaged timeline (reconstruct) or per-window
//   logits/EWMA scores (classify / anomaly)
//     |
//   StreamSession::Close()                      (ragged tail flushed as a
//                                                final edge-padded window)
//
// Determinism contract: a session's stitched output is a pure function of
// the ingested sample sequence — feeding the same samples in chunks of 1, 7
// or a whole window yields bit-identical results, because window boundaries
// are hop-aligned from the stream's first sample, windows finalize in
// emission order (sequentially under the context chain; carry-free sessions
// may pipeline several windows in flight, harvested strictly in order), and
// frozen forwards are deterministic and batch-position-invariant.
// Concurrency comes from running many sessions — their same-length windows
// coalesce into shared micro-batches — and, carry-free, from pipelining.
#ifndef RITA_STREAM_STREAM_H_
#define RITA_STREAM_STREAM_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace rita {
namespace stream {

/// Online analytics task of a stream session.
enum class StreamTask {
  kClassify = 0,     // per-window logits + EWMA-smoothed top-1 confidence
  kReconstruct = 1,  // overlap-averaged contiguous reconstruction timeline
  kAnomaly = 2       // per-window reconstruction error + EWMA-smoothed score
};

const char* StreamTaskName(StreamTask task);

struct StreamOptions {
  StreamTask task = StreamTask::kClassify;
  /// Which registered model serves this stream.
  int64_t model_id = 0;
  /// Samples per window; 0 = the model's input_length. Must lie in
  /// [config.window, config.input_length] (Linformer: exactly input_length).
  int64_t window_length = 0;
  /// Hop between consecutive window starts (overlap = window_length - hop);
  /// 0 = window_length (tumbling windows, no overlap).
  int64_t hop = 0;
  /// Carry the previous window's [CLS] embedding into the next window as a
  /// position-free context token. Not supported on Linformer models.
  bool carry_context = true;
  /// EWMA factor for classify/anomaly scores: s_k = a*raw_k + (1-a)*s_{k-1}.
  double ewma_alpha = 0.25;
  /// Per-window deadline in ms after submission; 0 = none. Late windows
  /// still complete but count into StreamStats::late_windows (session side)
  /// and InferenceEngineStats::deadline_missed (engine side).
  double deadline_ms = 0.0;
  /// Windows kept in flight through the engine at once. Every window, the
  /// Close tail included, is submitted and then the oldest is harvested
  /// while this many are in flight. Depth 1 (default) therefore resolves
  /// each window before the next request is built: the strictly sequential
  /// path. Depths > 1 pipeline carry-free windows — window k+1 submits while
  /// window k still computes, at most depth - 1 windows stay pending between
  /// calls (Close drains them), and the in-order harvest keeps stitching
  /// (hence the stream's output bits) identical to sequential execution.
  /// Requires carry_context == false: the [CLS] chain forces sequential
  /// windows. Validated at StreamManager::Open.
  int64_t pipeline_depth = 1;
};

/// One assembled window's finalized result.
struct StreamWindowResult {
  int64_t window_index = 0;  // 0-based emission index within the session
  int64_t start = 0;         // absolute sample index of the window start
  int64_t length = 0;        // submitted window length
  int64_t valid_length = 0;  // ingested samples (< length only for the tail)
  Tensor logits;             // kClassify: [num_classes]; undefined otherwise
  double raw_score = 0.0;    // classify: top-1 softmax; anomaly: valid-MSE
  double score = 0.0;        // EWMA-smoothed raw_score
  double latency_ms = 0.0;   // completing Append()/Close() -> result stitched
  bool late = false;         // resolved past the per-window deadline
  int64_t micro_batch = 0;   // how many requests rode the window's forward
};

/// Per-session counters, or the manager-wide aggregate (which also fills the
/// sessions_* fields). Latency percentiles are over a bounded reservoir of
/// recent per-window sample-to-result latencies.
struct StreamStats {
  uint64_t windows_emitted = 0;
  uint64_t samples_ingested = 0;
  uint64_t late_windows = 0;            // resolved past their deadline
  uint64_t rejected_backpressure = 0;   // retryable rejects: buffer budget
                                        // or engine admission (window kept)
  int64_t samples_buffered = 0;         // snapshot: ingested, not yet windowed
  int64_t samples_in_flight = 0;        // snapshot: buffered + stitch-pending
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;

  // Manager-level lifecycle counters (zero on per-session stats).
  uint64_t sessions_opened = 0;
  uint64_t sessions_closed = 0;
  uint64_t sessions_rejected = 0;  // Open refused: session cap
};

}  // namespace stream
}  // namespace rita

#endif  // RITA_STREAM_STREAM_H_
