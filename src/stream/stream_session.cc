#include "stream/stream_session.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "linalg/kernels/kernels.h"

namespace rita {
namespace stream {

namespace {

double MsSince(serve::ServeClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(serve::ServeClock::now() - t0)
      .count();
}

/// Top-1 softmax probability of a logits vector, accumulated in double so
/// the score is a deterministic function of the logits alone.
double TopSoftmax(const Tensor& logits) {
  const float* data = logits.data();
  const int64_t n = logits.numel();
  double max_logit = data[0];
  for (int64_t i = 1; i < n; ++i) max_logit = std::max<double>(max_logit, data[i]);
  double denom = 0.0;
  for (int64_t i = 0; i < n; ++i) denom += std::exp(data[i] - max_logit);
  return 1.0 / denom;
}

/// Mean squared error over the first `valid` rows (double accumulation).
double ValidMse(const Tensor& input, const Tensor& reconstruction, int64_t valid,
                int64_t channels) {
  double sum = 0.0;
  const float* a = input.data();
  const float* b = reconstruction.data();
  const int64_t count = valid * channels;
  for (int64_t i = 0; i < count; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

WindowAssembler::Options AssemblerOptions(const StreamOptions& options,
                                          int64_t channels,
                                          int64_t max_buffered_samples) {
  WindowAssembler::Options assembler;
  assembler.channels = channels;
  assembler.window_length = options.window_length;
  assembler.hop = options.hop;
  assembler.max_buffered = max_buffered_samples;
  return assembler;
}

}  // namespace

StreamSession::StreamSession(serve::InferenceEngine* engine,
                             const StreamOptions& options, int64_t channels,
                             int64_t max_buffered_samples)
    : engine_(engine),
      options_(options),
      channels_(channels),
      assembler_(AssemblerOptions(options, channels, max_buffered_samples)) {
  RITA_CHECK(engine_ != nullptr);
  RITA_CHECK_GT(options_.window_length, 0) << "manager must resolve defaults";
  RITA_CHECK_GT(options_.hop, 0);
}

Status StreamSession::Append(const Tensor& samples) {
  const serve::ServeClock::time_point arrival = serve::ServeClock::now();
  std::lock_guard<std::mutex> lock(mu_);
  if (!failed_.ok()) return failed_;
  if (closed_) return Status::InvalidArgument("stream session is closed");
  Status admitted = assembler_.Append(samples);
  if (!admitted.ok()) {
    if (admitted.code() == StatusCode::kOutOfMemory) ++rejected_backpressure_;
    return admitted;  // retryable, not sticky
  }
  return ProcessReady(arrival);
}

Status StreamSession::ProcessReady(serve::ServeClock::time_point arrival) {
  while (assembler_.HasWindow()) {
    int64_t start = 0;
    Tensor window = assembler_.PeekWindow(&start);
    // Peek-then-advance: engine backpressure leaves the window buffered, so
    // a retried (possibly empty) Append picks it up again — nothing is lost.
    RITA_RETURN_NOT_OK(
        SubmitWindow(std::move(window), start, options_.window_length, arrival));
    assembler_.AdvanceWindow();
  }
  return Status::OK();
}

Status StreamSession::SubmitWindow(Tensor window, int64_t start,
                                   int64_t valid_length,
                                   serve::ServeClock::time_point arrival) {
  PendingWindow pending;
  pending.series = window;  // shallow alias for anomaly scoring
  pending.start = start;
  pending.valid_length = valid_length;
  pending.arrival = arrival;
  pending.future =
      engine_->Submit(BuildRequest(std::move(window), &pending.deadline));
  // Admission verdicts resolve before Submit returns; peek at them now so a
  // backpressure reject leaves the window with the caller.
  if (pending.future.wait_for(std::chrono::seconds(0)) ==
      std::future_status::ready) {
    pending.response = pending.future.get();
    pending.resolved = true;
    if (!pending.response.status.ok()) {
      if (pending.response.status.code() == StatusCode::kOutOfMemory) {
        // A transient overload must not kill the stream: drain older windows
        // first (harvest order), then report the retryable reject with the
        // context chain intact.
        ++rejected_backpressure_;
        Status drained = DrainInflight();
        return drained.ok() ? pending.response.status : drained;
      }
      // Any other failure breaks the context chain; fail closed so no later
      // window computes against a hole in the stream.
      failed_ = pending.response.status;
      inflight_.clear();  // abandoned futures resolve with the engine
      return failed_;
    }
  }
  // Harvest strictly in submission order, so the stitch / EWMA state and the
  // [CLS] chain advance exactly as under sequential execution. At depth 1
  // this resolves the window before the next request is built.
  inflight_.push_back(std::move(pending));
  while (static_cast<int64_t>(inflight_.size()) >= options_.pipeline_depth) {
    RITA_RETURN_NOT_OK(HarvestFront());
  }
  return Status::OK();
}

Status StreamSession::HarvestFront() {
  RITA_CHECK(!inflight_.empty());
  PendingWindow pending = std::move(inflight_.front());
  inflight_.pop_front();
  serve::InferenceResponse response =
      pending.resolved ? std::move(pending.response) : pending.future.get();
  if (!response.status.ok()) {
    // Backpressure is decided at admission (handled at submit time); any
    // failure surfacing here — e.g. engine shutdown — breaks the stream.
    failed_ = response.status;
    inflight_.clear();
    return failed_;
  }
  return FinishWindow(std::move(response), pending.series, pending.start,
                      pending.valid_length, pending.arrival, pending.deadline);
}

Status StreamSession::DrainInflight() {
  while (!inflight_.empty()) {
    RITA_RETURN_NOT_OK(HarvestFront());
  }
  return Status::OK();
}

Status StreamSession::Close() {
  const serve::ServeClock::time_point arrival = serve::ServeClock::now();
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return Status::OK();
  if (!failed_.ok()) {
    // A failed session still closes (freeing its manager cap slot); the
    // sticky error is reported so the caller knows the tail was lost.
    closed_ = true;
    return failed_;
  }
  // Appends can leave complete windows behind only after an engine
  // backpressure reject; run them now, then the ragged tail as one more
  // window, then drain everything still in flight.
  Status flushed = ProcessReady(arrival);
  if (flushed.ok()) {
    // The ragged tail flushes as a final window: real samples first, then
    // the last sample repeated up to the full window length, so the request
    // stays in the session's length bucket (and satisfies Linformer's
    // full-length lock). Peek-then-discard: on engine backpressure the tail
    // stays buffered and Close() can be retried.
    int64_t start = 0;
    Tensor tail = assembler_.PeekTail(&start);
    if (tail.defined() && tail.size(0) > 0) {
      const int64_t m = tail.size(0);
      Tensor padded({options_.window_length, channels_});
      std::copy(tail.data(), tail.data() + m * channels_, padded.data());
      const float* last_row = tail.data() + (m - 1) * channels_;
      for (int64_t row = m; row < options_.window_length; ++row) {
        std::copy(last_row, last_row + channels_, padded.data() + row * channels_);
      }
      flushed = SubmitWindow(std::move(padded), start, m, arrival);
      if (flushed.ok()) assembler_.DiscardTail();
    }
  }
  if (flushed.ok()) flushed = DrainInflight();
  if (!flushed.ok()) {
    if (flushed.code() == StatusCode::kOutOfMemory) return flushed;  // retry
    closed_ = true;
    return flushed;  // sticky: tail lost, fail closed
  }
  // Finalize every still-pending stitched row.
  if (!stitch_sum_.empty()) {
    Stitch(Tensor(), stitch_base_, 0,
           stitch_base_ + static_cast<int64_t>(stitch_sum_.size()) / channels_);
  }
  closed_ = true;
  return Status::OK();
}

serve::InferenceRequest StreamSession::BuildRequest(
    Tensor window, serve::ServeClock::time_point* deadline) {
  serve::InferenceRequest request;
  request.series = std::move(window);
  request.task = options_.task == StreamTask::kClassify
                     ? serve::ServeTask::kClassify
                     : serve::ServeTask::kReconstruct;
  request.priority = serve::Priority::kInteractive;
  request.model_id = options_.model_id;
  if (options_.deadline_ms > 0.0) {
    request.deadline =
        serve::ServeClock::now() +
        std::chrono::duration_cast<serve::ServeClock::duration>(
            std::chrono::duration<double, std::milli>(options_.deadline_ms));
  }
  if (options_.carry_context) {
    request.want_context = true;
    if (context_.defined()) request.context = context_;
  }
  *deadline = request.deadline;
  return request;
}

Status StreamSession::FinishWindow(serve::InferenceResponse response,
                                   const Tensor& series, int64_t start,
                                   int64_t valid_length,
                                   serve::ServeClock::time_point arrival,
                                   serve::ServeClock::time_point deadline) {
  if (options_.carry_context) context_ = response.context;
  StreamWindowResult result;
  result.window_index = windows_emitted_;
  result.start = start;
  result.length = options_.window_length;
  result.valid_length = valid_length;
  result.micro_batch = response.micro_batch;
  result.latency_ms = MsSince(arrival);
  result.late = deadline != serve::kNoDeadline &&
                serve::ServeClock::now() > deadline;
  if (result.late) ++late_windows_;

  double raw = 0.0;
  switch (options_.task) {
    case StreamTask::kClassify:
      result.logits = response.output;
      raw = TopSoftmax(response.output);
      break;
    case StreamTask::kAnomaly:
      raw = ValidMse(series, response.output, valid_length, channels_);
      break;
    case StreamTask::kReconstruct:
      Stitch(response.output, start, valid_length, start + options_.hop);
      break;
  }
  if (options_.task != StreamTask::kReconstruct) {
    ewma_score_ = windows_emitted_ == 0
                      ? raw
                      : options_.ewma_alpha * raw +
                            (1.0 - options_.ewma_alpha) * ewma_score_;
    result.raw_score = raw;
    result.score = ewma_score_;
  }

  ++windows_emitted_;
  RecordLatency(result.latency_ms);
  results_.push_back(std::move(result));
  return Status::OK();
}

void StreamSession::Stitch(const Tensor& reconstruction, int64_t start,
                           int64_t valid, int64_t final_before) {
  // Accumulate rows [start, start + valid) into the pending sum/count
  // arrays. Windows arrive in emission order regardless of ingestion chunk
  // sizes, so the accumulation order — hence the float result — is a pure
  // function of the sample stream.
  if (stitch_sum_.empty()) stitch_base_ = std::max(stitch_base_, start);
  if (valid > 0) {
    const int64_t end = start + valid;
    const int64_t have =
        stitch_base_ + static_cast<int64_t>(stitch_sum_.size()) / channels_;
    if (end > have) {
      stitch_sum_.resize((end - stitch_base_) * channels_, 0.0);
      stitch_count_.resize(end - stitch_base_, 0);
    }
    // The [valid, channels] source block and its destination rows are both
    // contiguous, so the whole accumulation is one vectorizable sweep; the
    // per-element add order is unchanged (element-independent f64 adds).
    const float* src = reconstruction.data();
    kernels::AccumulateF64(stitch_sum_.data() + (start - stitch_base_) * channels_,
                           src, valid * channels_);
    for (int64_t row = start; row < end; ++row) ++stitch_count_[row - stitch_base_];
  }
  // Finalize rows no future window can cover (before the next window start).
  const int64_t pending = static_cast<int64_t>(stitch_count_.size());
  const int64_t done_rows =
      std::min(pending, std::max<int64_t>(0, final_before - stitch_base_));
  if (done_rows == 0) return;
  if (timeline_.empty()) timeline_start_ = stitch_base_;
  for (int64_t row = 0; row < done_rows; ++row) {
    const double count = static_cast<double>(stitch_count_[row]);
    for (int64_t ch = 0; ch < channels_; ++ch) {
      timeline_.push_back(
          static_cast<float>(stitch_sum_[row * channels_ + ch] / count));
    }
  }
  stitch_sum_.erase(stitch_sum_.begin(), stitch_sum_.begin() + done_rows * channels_);
  stitch_count_.erase(stitch_count_.begin(), stitch_count_.begin() + done_rows);
  stitch_base_ += done_rows;
}

std::vector<StreamWindowResult> StreamSession::TakeResults() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(results_);
}

Tensor StreamSession::TakeTimeline(int64_t* start) {
  std::lock_guard<std::mutex> lock(mu_);
  if (start != nullptr) *start = timeline_start_;
  if (timeline_.empty()) return Tensor();
  const int64_t rows = static_cast<int64_t>(timeline_.size()) / channels_;
  Tensor out({rows, channels_});
  std::copy(timeline_.begin(), timeline_.end(), out.data());
  timeline_.clear();
  timeline_start_ += rows;
  return out;
}

void StreamSession::RecordLatency(double ms) { latency_ms_.Observe(ms); }

void StreamSession::MergeLatencies(obs::Histogram* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out->MergeFrom(latency_ms_);
}

StreamStats StreamSession::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  StreamStats stats;
  stats.windows_emitted = static_cast<uint64_t>(windows_emitted_);
  stats.samples_ingested = static_cast<uint64_t>(assembler_.total_ingested());
  stats.late_windows = late_windows_;
  stats.rejected_backpressure = rejected_backpressure_;
  stats.samples_buffered = assembler_.buffered();
  stats.samples_in_flight =
      assembler_.buffered() + static_cast<int64_t>(stitch_count_.size()) +
      static_cast<int64_t>(inflight_.size()) * options_.window_length;
  if (latency_ms_.Count() > 0) {
    const obs::HistogramSnapshot latency = latency_ms_.Snapshot();
    stats.latency_p50_ms = latency.Quantile(0.5);
    stats.latency_p99_ms = latency.Quantile(0.99);
  }
  return stats;
}

}  // namespace stream
}  // namespace rita
