// Admission layer of the serving stack (request types + RequestQueue).
//
// The engine's request path is three explicit layers:
//
//   Submit() -> [result cache] -> RequestQueue (admission) -> Scheduler
//            -> executor workers -> FrozenModel forward
//
// This header owns the request/response types and the admission layer: a
// RequestQueue holds admitted-but-unscheduled requests in per-(model, task,
// length) buckets — the unit of micro-batch coalescing, since only requests
// with the same model, task and series length can share one [B, T, C]
// forward — and enforces backpressure with *split* accounting: the kBatch
// class has its own, lower cap so bulk traffic can never occupy the slots an
// interactive burst needs.
//
// The queue is a passive data structure: the engine serializes every call
// under its queue mutex (admission from Submit(), draining from the
// Scheduler). Keeping the synchronization in one place (the engine) avoids
// lock-order hazards between admission, scheduling, pause and shutdown.
#ifndef RITA_SERVE_REQUEST_QUEUE_H_
#define RITA_SERVE_REQUEST_QUEUE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.h"
#include "util/hash.h"
#include "util/status.h"

namespace rita {
namespace serve {

/// What a request asks of the model.
enum class ServeTask {
  kClassify = 0,    // logits [num_classes]
  kEmbed = 1,       // [CLS] embedding [dim]
  kReconstruct = 2  // reconstruction [T, C] (imputation on masked input)
};

const char* ServeTaskName(ServeTask task);

/// Scheduling class. Interactive requests overtake queued batch requests;
/// batch requests are protected from starvation by aging (see Scheduler).
enum class Priority {
  kInteractive = 0,  // latency-sensitive (alerts, dashboards) — the default
  kBatch = 1         // bulk re-scoring; yields to interactive traffic
};

const char* PriorityName(Priority priority);

using ServeClock = std::chrono::steady_clock;

/// Sentinel for "no deadline": sorts after every real deadline.
inline constexpr ServeClock::time_point kNoDeadline = ServeClock::time_point::max();

struct InferenceRequest {
  Tensor series;  // [T, C], window <= T <= model input_length
  ServeTask task = ServeTask::kClassify;
  /// Scheduling class (see Priority).
  Priority priority = Priority::kInteractive;
  /// Optional deadline: within a priority class the scheduler sweeps
  /// earliest-deadline-first, so tighter deadlines run sooner. A deadline is
  /// a scheduling hint, not a drop policy — late requests still complete.
  ServeClock::time_point deadline = kNoDeadline;
  /// Which registered model serves this request (0 = the first/only model).
  int64_t model_id = 0;
  /// Optional context summary [dim] — typically the previous window's [CLS]
  /// from a streaming session, prepended by the model as a position-free
  /// token (the `context` argument of the FrozenModel forwards). Context-bearing requests coalesce
  /// only with other context-bearing requests (the token changes the
  /// encoder's sequence length) and bypass the result cache.
  Tensor context;
  /// When true, the response carries this window's [CLS] embedding
  /// (`InferenceResponse::context`) extracted from the same forward — the
  /// streaming session feeds it to the next window. Such requests bypass the
  /// result cache (a cached entry has no embedding to return).
  bool want_context = false;
  /// Per-request trace id (see obs/trace.h). 0 = untraced; the engine stamps
  /// sampled requests at admission when RITA_TRACE arms tracing. A caller may
  /// pre-stamp a non-zero id to force-trace one request.
  uint64_t trace_id = 0;
};

struct InferenceResponse {
  Status status;     // non-OK => output undefined
  Tensor output;     // per-task shape, see ServeTask
  double queue_ms = 0.0;    // Submit() -> micro-batch assembly (0 on cache hit)
  double compute_ms = 0.0;  // model forward of the carrying micro-batch
  int64_t micro_batch = 0;  // how many requests rode the same forward (0 = hit)
  bool cache_hit = false;   // answered from the result cache, no forward ran
  int64_t model_id = 0;     // which model produced the output
  Tensor context;           // [CLS] embedding [dim] when want_context was set
};

/// A request in flight between admission and execution.
struct ScheduledRequest {
  InferenceRequest request;
  std::promise<InferenceResponse> promise;
  ServeClock::time_point enqueued{};  // stamped by the engine at Submit()
  uint64_t sequence = 0;              // admission order (assigned by Admit)
  /// Result-cache key, precomputed at Submit() so the executor can insert
  /// the computed output without rehashing the series. lo==hi==0 => no cache.
  uint64_t cache_key_lo = 0;
  uint64_t cache_key_hi = 0;
};

/// Coalescing unit: requests sharing a key can ride one [B, T, C] forward.
/// Context-bearing requests run the encoder over one extra token, so they
/// can never share a forward with context-free peers — `with_context` splits
/// the bucket.
struct BucketKey {
  int64_t model_id = 0;
  ServeTask task = ServeTask::kClassify;
  int64_t length = 0;
  bool with_context = false;

  bool operator==(const BucketKey& other) const {
    return model_id == other.model_id && task == other.task &&
           length == other.length && with_context == other.with_context;
  }
};

struct BucketKeyHash {
  size_t operator()(const BucketKey& key) const {
    uint64_t h = HashCombine(static_cast<uint64_t>(key.model_id),
                             static_cast<uint64_t>(key.task));
    h = HashCombine(h, static_cast<uint64_t>(key.length));
    return static_cast<size_t>(
        HashCombine(h, static_cast<uint64_t>(key.with_context ? 1 : 0)));
  }
};

class RequestQueue {
 public:
  struct Options {
    /// Total admitted-request cap across both classes.
    int64_t max_queue = 1 << 14;
    /// Cap for the kBatch class alone; -1 derives 7/8 of max_queue, keeping
    /// an interactive-only reserve even when bulk traffic floods the queue.
    int64_t max_batch_queue = -1;
  };

  using Bucket = std::deque<ScheduledRequest>;
  using BucketMap = std::unordered_map<BucketKey, Bucket, BucketKeyHash>;

  explicit RequestQueue(const Options& options);

  /// Admits or rejects (backpressure) a request whose `enqueued` stamp is
  /// already set. On OK the queue takes ownership and assigns the admission
  /// sequence number; on rejection the caller still owns `request` (its
  /// promise is untouched). NOT thread-safe — the engine holds its queue
  /// mutex.
  Status Admit(ScheduledRequest&& request);

  bool empty() const { return depth_[0] + depth_[1] == 0; }
  int64_t depth() const { return depth_[0] + depth_[1]; }
  int64_t depth(Priority priority) const {
    return depth_[static_cast<int>(priority)];
  }
  /// Queued requests for one model (stats; O(buckets)).
  int64_t DepthForModel(int64_t model_id) const;

  /// Scheduler-side view of the buckets (const: selection never mutates).
  const BucketMap& buckets() const { return buckets_; }

  /// Removes the requests at `indices` (ascending order) from a bucket and
  /// returns them in that order; drops the bucket when it empties.
  std::vector<ScheduledRequest> Take(const BucketKey& key,
                                     const std::vector<size_t>& indices);

  /// Drains everything (shutdown failure path); buckets iterate in admission
  /// order within a bucket but unspecified order across buckets.
  std::vector<ScheduledRequest> TakeAll();

 private:
  Options options_;
  uint64_t next_sequence_ = 0;
  int64_t depth_[2] = {0, 0};  // indexed by Priority
  BucketMap buckets_;
};

}  // namespace serve
}  // namespace rita

#endif  // RITA_SERVE_REQUEST_QUEUE_H_
