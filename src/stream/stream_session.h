// Per-stream state machine: ingests sample chunks through a WindowAssembler,
// runs each hop-aligned window through the serving engine as a kInteractive
// request (carrying the previous window's [CLS] embedding as the next
// window's context token), and stitches per-window outputs back into a
// contiguous result timeline:
//
//   kReconstruct — overlap-average: every sample position's value is the
//     mean over all windows covering it. A position finalizes as soon as no
//     future window can cover it (it falls before the next window's start),
//     so the stitched timeline streams out incrementally.
//   kClassify    — per-window logits plus an EWMA-smoothed top-1 confidence.
//   kAnomaly     — per-window reconstruction error over the window's valid
//     samples, EWMA-smoothed into an online anomaly score.
//
// Windows run strictly sequentially within a session when carry_context is
// on: the context chain (window k's [CLS] feeds window k+1) makes that the
// semantics, not just an implementation choice. Carry-free sessions may set
// pipeline_depth > 1 to keep several windows in flight through the engine at
// once; the harvest is strictly in submission order, so the stitched output
// stays bit-identical to sequential execution. Cross-stream throughput comes
// from many sessions: their same-length windows coalesce into shared engine
// micro-batches.
//
// Errors: an engine failure mid-stream (e.g. shutdown) breaks the context
// chain, so it is sticky — the session fails closed and every later call
// returns the first error. Backpressure is NOT sticky, in either form: a
// buffer-budget reject refuses the chunk whole (retry after draining), and
// an engine admission reject leaves the refused window buffered (peek-then-
// advance), so retrying the Append — even with an empty chunk — resumes
// exactly where the stream left off.
//
// Thread-safe: every public method locks the session. Distinct sessions
// proceed fully in parallel.
#ifndef RITA_STREAM_STREAM_SESSION_H_
#define RITA_STREAM_STREAM_SESSION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "serve/inference_engine.h"
#include "stream/stream.h"
#include "stream/window_assembler.h"

namespace rita {
namespace stream {

class StreamSession {
 public:
  /// Built by StreamManager::Open, which validates `options` against the
  /// model and resolves window_length/hop defaults. `engine` is borrowed and
  /// must outlive the session.
  StreamSession(serve::InferenceEngine* engine, const StreamOptions& options,
                int64_t channels, int64_t max_buffered_samples);

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  /// Ingests a chunk ([n, channels], or [n] when channels == 1) and runs
  /// every window it completes. Typed rejects, both retryable: kOutOfMemory
  /// when the chunk would exceed the buffered-sample budget (chunk
  /// untouched) or when engine admission refuses a window (window retained —
  /// retry with any Append, an empty chunk suffices). Any other engine
  /// error is sticky.
  Status Append(const Tensor& samples);

  /// Flushes the ragged tail as a final window — real samples first, then
  /// edge-padded (last sample repeated) up to window_length, with
  /// valid_length marking the real prefix — finalizes all pending stitch
  /// state, and closes the session. Idempotent once closed; an engine
  /// backpressure reject during the flush leaves the session open for a
  /// retried Close(). A sticky-failed session closes immediately (tail
  /// lost), returning the sticky error.
  Status Close();

  /// Lock-free (atomic): safe to poll while another thread's Append holds
  /// the session busy inside an engine forward.
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Moves out the per-window results finalized since the last call.
  std::vector<StreamWindowResult> TakeResults();

  /// kReconstruct: moves out the stitched samples finalized since the last
  /// call as [n, channels]; `start` (optional) receives the absolute sample
  /// index of row 0. Undefined tensor when nothing finalized.
  Tensor TakeTimeline(int64_t* start);

  StreamStats stats() const;
  /// Accumulates this session's latency histogram into `out` (manager
  /// aggregate percentiles — bucket merge, not sample pooling).
  void MergeLatencies(obs::Histogram* out) const;

  const StreamOptions& options() const { return options_; }

 private:
  /// One submitted-but-unfinished window. Finished strictly in submission
  /// order so the stitch/EWMA state and the [CLS] chain — hence the
  /// stream's output bits — match sequential execution.
  struct PendingWindow {
    std::future<serve::InferenceResponse> future;
    bool resolved = false;  // response already harvested (instant cache hit)
    serve::InferenceResponse response;
    Tensor series;  // shallow alias of the submitted window (anomaly MSE)
    int64_t start = 0;
    int64_t valid_length = 0;
    serve::ServeClock::time_point arrival;
    serve::ServeClock::time_point deadline = serve::kNoDeadline;
  };

  /// Runs every complete buffered window; `arrival` stamps their latency.
  Status ProcessReady(serve::ServeClock::time_point arrival);
  /// Submits one window (`valid_length` < length only for the flushed
  /// tail), then harvests the oldest while pipeline_depth windows are in
  /// flight. A backpressure reject submits nothing: the caller keeps the
  /// window buffered for the retry.
  Status SubmitWindow(Tensor window, int64_t start, int64_t valid_length,
                      serve::ServeClock::time_point arrival);
  /// The engine request for one window (consumes it).
  serve::InferenceRequest BuildRequest(Tensor window,
                                       serve::ServeClock::time_point* deadline);
  /// Post-forward half of a window: [CLS] carry, scoring, stitching, result
  /// emission.
  Status FinishWindow(serve::InferenceResponse response, const Tensor& series,
                      int64_t start, int64_t valid_length,
                      serve::ServeClock::time_point arrival,
                      serve::ServeClock::time_point deadline);
  /// Blocks on the oldest in-flight window and finishes it.
  Status HarvestFront();
  /// Harvests every in-flight window in order (sticky on the first error).
  Status DrainInflight();
  /// Overlap-average accumulation for rows [start, start + valid) of
  /// `reconstruction`, then finalization of rows before `final_before`.
  void Stitch(const Tensor& reconstruction, int64_t start, int64_t valid,
              int64_t final_before);
  void RecordLatency(double ms);

  serve::InferenceEngine* engine_;
  StreamOptions options_;
  const int64_t channels_;

  mutable std::mutex mu_;
  WindowAssembler assembler_;
  Tensor context_;       // previous window's [CLS]; undefined before window 0
  std::atomic<bool> closed_{false};
  Status failed_;        // sticky first engine error (OK = healthy)
  // Submitted windows awaiting their in-order harvest; at most
  // options_.pipeline_depth - 1 between calls, so always empty at depth 1.
  std::deque<PendingWindow> inflight_;

  // Per-window results pending TakeResults().
  std::vector<StreamWindowResult> results_;
  int64_t windows_emitted_ = 0;
  double ewma_score_ = 0.0;

  // Overlap-average stitch state (kReconstruct): unfinalized rows.
  std::vector<double> stitch_sum_;   // row-major [pending, channels]
  std::vector<int32_t> stitch_count_;
  int64_t stitch_base_ = 0;          // absolute index of stitch row 0
  // Finalized timeline pending TakeTimeline().
  std::vector<float> timeline_;
  int64_t timeline_start_ = 0;

  // Counters + sample->result latency distribution. The obs histogram
  // replaces the old 4096-sample reservoir: bounded memory, mergeable across
  // sessions, and the same log-linear quantiles the engine reports.
  uint64_t late_windows_ = 0;
  uint64_t rejected_backpressure_ = 0;
  obs::Histogram latency_ms_;
};

}  // namespace stream
}  // namespace rita

#endif  // RITA_STREAM_STREAM_SESSION_H_
