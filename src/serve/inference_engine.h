// Execution layer of the serving stack, and its public face. The engine
// wires the layers together:
//
//   Submit()                                   stats()/model_stats()
//     |  validate (per-model config checks)         ^
//     v                                             |
//   ResultCache ---- hit: resolve immediately ------+   (content-hash LRU;
//     | miss                                            sound because frozen
//     v                                                 forwards are
//   RequestQueue  admission: per-(model, task, length)  deterministic and
//     |           buckets, split backpressure           batch-invariant)
//     v
//   Scheduler     policy: priority class, EDF within class, bulk aging,
//     |           planner-capped micro-batch assembly
//     v
//   executor workers -> FrozenModel forward on the shared ExecutionContext
//
// Requests default to priority kInteractive, no deadline, model 0, so the
// pre-layering Submit/Run/Pause/Resume/Shutdown call sites compile and
// behave as before; a ModelRegistry multiplexes several FrozenModels
// (per-tenant / A/B) through one engine with per-model queues and counters.
#ifndef RITA_SERVE_INFERENCE_ENGINE_H_
#define RITA_SERVE_INFERENCE_ENGINE_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/batch_planner.h"
#include "obs/metrics.h"
#include "serve/frozen_model.h"
#include "serve/model_registry.h"
#include "serve/request_queue.h"
#include "serve/result_cache.h"
#include "serve/scheduler.h"
#include "util/status.h"

namespace rita {
namespace serve {

struct InferenceEngineStats;

struct InferenceEngineOptions {
  /// Executor threads draining the request queue. Each runs whole
  /// micro-batches; intra-batch parallelism comes from `context`'s pool.
  int num_workers = 1;
  /// Hard cap on the micro-batch size.
  int64_t max_micro_batch = 32;
  /// Backpressure: Submit() rejects when this many requests are queued.
  int64_t max_queue = 1 << 14;
  /// kBatch-class admission cap; -1 = 7/8 of max_queue (interactive reserve).
  int64_t max_batch_queue = -1;
  /// Queued kBatch requests older than this compete as interactive with an
  /// elapsed deadline — bulk traffic yields to bursts but is never starved.
  double bulk_aging_ms = 500.0;
  /// Result-cache byte budget; 0 disables the cache entirely. The cache
  /// keeps ResultCache::Options' default shard count.
  int64_t cache_bytes = 32 << 20;
  /// Optional calibrated planner; caps each micro-batch at
  /// PredictBatchSize(length, model.num_groups()) so coalescing can never
  /// exceed the memory budget the planner was calibrated for.
  const core::BatchPlanner* planner = nullptr;
  /// Execution resources for the forwards (null = ExecutionContext::Default()).
  ExecutionContext* context = nullptr;
  /// Start with the executors paused: requests queue but nothing runs until
  /// Resume(). Lets callers pre-fill the queue (warmup, deterministic
  /// batching tests) or delay serving until the model is ready.
  bool start_paused = false;
  /// Test-only fault injection: when set, invoked immediately before every
  /// micro-batch forward. A throwing hook exercises the clean-failure path —
  /// every rider resolves with an Internal status, the worker slot frees,
  /// and the engine keeps serving.
  std::function<void()> forward_fault_for_testing;
  /// Metrics registry backing EngineStats and the Prometheus export. Null =
  /// the engine owns a private registry (the default, so co-hosted engines
  /// and tests never alias counters); pass obs::MetricsRegistry::Default()
  /// to publish into the process-wide registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// > 0 starts a background snapshot logger: every interval it assembles
  /// stats() and hands the snapshot to `stats_log_hook` (or RITA_LOG(Info)
  /// when no hook is set). One final snapshot is emitted at Shutdown.
  double stats_log_interval_ms = 0.0;
  std::function<void(const InferenceEngineStats&)> stats_log_hook;
};

/// Serving counters, assembled on demand from the engine's obs metrics
/// (lock-free sharded counters + log-linear histograms — see obs/metrics.h).
/// Cumulative since construction or the last ResetStatsWindow(), except the
/// `queue_depth*` / `in_flight_batches` fields, which are an instantaneous
/// snapshot taken under the queue mutex — stats() observes a consistent
/// load picture, not counters racing the queue.
struct InferenceEngineStats {
  uint64_t completed = 0;        // requests answered OK (incl. cache hits)
  uint64_t rejected_invalid = 0;       // failed validation / unknown model /
                                       // submitted after shutdown
  uint64_t rejected_backpressure = 0;  // admission refused: queue caps hit
  uint64_t batches = 0;          // model forwards executed
  uint64_t cache_hits = 0;       // answered from the result cache
  uint64_t cache_misses = 0;     // looked up, not found (cache enabled only)
  uint64_t deadline_missed = 0;  // computed requests resolved past their deadline
  int64_t max_micro_batch = 0;   // largest coalesced batch observed
  double total_queue_ms = 0.0;   // summed over computed requests
  // Measured per-batch forward time (sum here, count in `batches`; kept per
  // model too).
  double total_compute_ms = 0.0; // summed over batches
  double max_compute_ms = 0.0;   // slowest single batch observed
  uint64_t forward_failures = 0; // micro-batches whose forward threw (all
                                 // riders resolved with Internal status)

  // Instantaneous load snapshot (consistent: taken under the queue mutex).
  int64_t queue_depth = 0;
  int64_t queue_depth_interactive = 0;
  int64_t queue_depth_batch = 0;
  int64_t in_flight_batches = 0;  // micro-batches currently executing

  // Precision identity of the model (model_stats() only; aggregate stats()
  // leaves the defaults): the serving weight format, the bytes its weights
  // actually occupy, and the GEMM-matrix footprint relative to fp32
  // (FrozenModel::QuantizedBytesRatio — the metric BENCH_quant gates). A
  // registry serving `m` next to `m@bf16` shows the two variants' footprints
  // side by side here and in bench_table8.
  Precision precision = Precision::kFp32;
  int64_t weight_bytes = 0;
  double weight_bytes_ratio = 1.0;

  /// Requests that went through a forward. Saturates at 0: counters read at
  /// slightly different instants can show more hits than completions.
  uint64_t Computed() const {
    return completed - std::min(completed, cache_hits);
  }
  double AvgQueueMs() const {
    const uint64_t computed = Computed();
    return computed == 0 ? 0.0 : total_queue_ms / static_cast<double>(computed);
  }
  /// Mean measured forward time per micro-batch.
  double AvgComputeMs() const {
    return batches == 0 ? 0.0
                        : total_compute_ms / static_cast<double>(batches);
  }
  double AvgBatchSize() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(Computed()) /
                              static_cast<double>(batches);
  }
  double CacheHitRatio() const {
    const uint64_t lookups = cache_hits + cache_misses;
    return lookups == 0
               ? 0.0
               : static_cast<double>(cache_hits) / static_cast<double>(lookups);
  }
};

/// The one reader of engine stats, over a registry snapshot (or several
/// replicas' snapshots concatenated): counters, histogram sums, queue-depth
/// and in-flight gauges add; the max-gauges take their maximum. `model_id`
/// >= 0 reads only the {model="<id>"} instances, -1 reads all.
/// Model-identity fields keep their defaults.
InferenceEngineStats ReadEngineStats(
    const std::vector<obs::MetricsRegistry::FamilySnapshot>& families,
    int64_t model_id = -1);

class InferenceEngine {
 public:
  /// Single-model engine: `model` becomes model_id 0. `model`,
  /// `options.planner` and `options.context` are borrowed and must outlive
  /// the engine.
  InferenceEngine(const FrozenModel* model, const InferenceEngineOptions& options);
  /// Multi-model engine over a borrowed registry (frozen on attach; register
  /// every model first). Requests route by `InferenceRequest::model_id`.
  InferenceEngine(const ModelRegistry* registry,
                  const InferenceEngineOptions& options);
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Thread-safe. Invalid requests (a NaN or Inf sample among them) resolve
  /// immediately with a non-OK status;
  /// cache hits resolve immediately with the cached output; admitted
  /// requests resolve when their micro-batch completes. A miss enters the
  /// cache only on its key's second sighting (ResultCache::Admit), so the
  /// third identical submit is the first that can hit.
  std::future<InferenceResponse> Submit(InferenceRequest request);

  /// Convenience: Submit and block for the response.
  InferenceResponse Run(InferenceRequest request);

  /// Pauses the executors after their in-flight micro-batches finish:
  /// requests keep queueing (maintenance window, model swap prep) until
  /// Resume(). Shutdown overrides a pause.
  void Pause();
  /// Releases paused executors (no-op when already running).
  void Resume();

  /// Stops accepting new requests, drains the queue, joins the workers.
  /// Overrides a paused state so queued work is never stranded. Idempotent
  /// and safe against concurrent calls (late callers block until the first
  /// completes); the destructor calls it.
  void Shutdown();

  /// Engine-wide counters (every model's instances summed) + instantaneous
  /// queue/in-flight snapshot.
  InferenceEngineStats stats() const;
  /// Per-model counters (queue_depth = that model's queued requests;
  /// in-flight and class-split depths are engine-wide and left 0).
  InferenceEngineStats model_stats(int64_t model_id) const;

  /// Starts a fresh reporting window: subsequent stats()/model_stats() count
  /// from here (per-interval rates for long-running processes), and the
  /// high-water marks (max_micro_batch, max_compute_ms) restart from zero
  /// instead of sticking at lifetime maxima. The underlying metrics stay cumulative for Prometheus.
  void ResetStatsWindow();

  /// The registry backing this engine's metrics (engine-owned unless
  /// options.metrics supplied one). Queue/cache/model gauges are refreshed
  /// on PrometheusText(); histogram and counter families are always live.
  obs::MetricsRegistry& metrics() const { return *metrics_; }
  /// Prometheus text exposition of every engine metric (refreshes the
  /// instantaneous gauges first). Serve it from a debug endpoint or dump it.
  std::string PrometheusText() const;
  /// Gauge-refreshed family snapshots of every engine metric — the
  /// structured form PrometheusText() renders. A dist::ReplicaServer ships
  /// these over the wire so routers can merge replica registries (histogram
  /// snapshots are mergeable) into one fleet-wide exposition.
  std::vector<obs::MetricsRegistry::FamilySnapshot> CollectMetrics() const;

  const ModelRegistry& registry() const { return *registry_; }

 private:
  enum class RejectKind { kInvalid, kBackpressure };

  /// The metric instances one model writes on the hot path, all labelled
  /// {model="<id>"}. Raw pointers into the registry, resolved once in
  /// Start(); workers never touch the registry mutex.
  struct ScopeMetrics {
    obs::Counter* completed = nullptr;
    obs::Counter* rejected_invalid = nullptr;
    obs::Counter* rejected_backpressure = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* deadline_missed = nullptr;
    obs::Counter* forward_failures = nullptr;
    obs::Histogram* queue_ms = nullptr;
    obs::Histogram* compute_ms = nullptr;
    obs::Histogram* batch_size = nullptr;
    obs::MaxGauge* max_micro_batch = nullptr;
    obs::MaxGauge* max_compute_ms = nullptr;
  };

  /// Shared constructor tail: checks, freezes the registry, builds the
  /// cache, registers the metrics, spawns the workers.
  void Start();
  Status Validate(const InferenceRequest& request,
                  const FrozenModel** model) const;
  void WorkerLoop();
  void ExecuteBatch(std::vector<ScheduledRequest> batch);
  void CountRejection(int64_t model_id, RejectKind kind);
  ScopeMetrics RegisterScope(const obs::LabelSet& labels);
  /// ReadEngineStats over the registry since the last ResetStatsWindow().
  InferenceEngineStats ReadWindow(int64_t model_id) const;
  /// Pushes the instantaneous queue/cache/model gauges into the
  /// registry (export-time only; EngineStats reads them directly).
  void RefreshExportGauges() const;
  void StatsLoggerLoop();
  void EmitStatsSnapshot();

  const ModelRegistry* registry_;  // set before Start(); fixed afterwards
  ModelRegistry own_registry_;     // backs the single-model constructor
  InferenceEngineOptions options_;
  Scheduler scheduler_;
  std::unique_ptr<ResultCache> cache_;  // null when cache_bytes == 0

  mutable std::mutex mu_;
  std::condition_variable cv_;
  RequestQueue queue_;
  int64_t in_flight_batches_ = 0;
  bool stopping_ = false;
  bool paused_ = false;
  std::once_flag shutdown_once_;

  // Metrics backing store. Workers write lock-free through the cached
  // ScopeMetrics pointers, once per event; stats()/exporters read snapshots.
  // No stats mutex on the request path.
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::vector<ScopeMetrics> per_model_;  // indexed by model id
  // Invalid rejections of a model_id no model owns: the one engine counter
  // without a model label, rita_requests_rejected_total{reason="invalid"}.
  obs::Counter* rejected_unknown_model_ = nullptr;

  // Reporting window: stats() subtracts the Collect() captured at the last
  // ResetStatsWindow() (empty = since construction). Guarded by window_mu_
  // (independent of mu_; never held while taking mu_).
  mutable std::mutex window_mu_;
  std::vector<obs::MetricsRegistry::FamilySnapshot> window_base_;

  // Periodic snapshot logger (options_.stats_log_interval_ms > 0).
  std::thread logger_;
  std::mutex log_mu_;
  std::condition_variable log_cv_;
  bool log_stop_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace rita

#endif  // RITA_SERVE_INFERENCE_ENGINE_H_
