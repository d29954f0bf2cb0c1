#include "serve/inference_engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/prometheus.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace rita {
namespace serve {

namespace {

double MsBetween(ServeClock::time_point t0, ServeClock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

Scheduler::Options SchedulerOptions(const InferenceEngineOptions& options) {
  Scheduler::Options sched;
  sched.max_micro_batch = options.max_micro_batch;
  sched.bulk_aging_ms = options.bulk_aging_ms;
  sched.planner = options.planner;
  return sched;
}

RequestQueue::Options QueueOptions(const InferenceEngineOptions& options) {
  RequestQueue::Options queue;
  queue.max_queue = options.max_queue;
  queue.max_batch_queue = options.max_batch_queue;
  return queue;
}

// Engine metric families that RegisterScope (or the export-gauge refresh)
// writes and ReadEngineStats reads back.
constexpr char kCompletedFamily[] = "rita_requests_completed_total";
constexpr char kRejectedFamily[] = "rita_requests_rejected_total";
constexpr char kRejectedHelp[] = "Requests refused at admission, by reason";
constexpr char kBatchesFamily[] = "rita_batches_total";
constexpr char kCacheHitsFamily[] = "rita_cache_hits_total";
constexpr char kCacheMissesFamily[] = "rita_cache_misses_total";
constexpr char kDeadlineMissedFamily[] = "rita_deadline_missed_total";
constexpr char kForwardFailuresFamily[] = "rita_forward_failures_total";
constexpr char kQueueLatencyFamily[] = "rita_queue_latency_ms";
constexpr char kComputeLatencyFamily[] = "rita_compute_latency_ms";
constexpr char kMicroBatchMaxFamily[] = "rita_micro_batch_max";
constexpr char kComputeMaxFamily[] = "rita_compute_latency_max_ms";
constexpr char kQueueDepthFamily[] = "rita_queue_depth";
constexpr char kInFlightFamily[] = "rita_in_flight_batches";

// Value of `key` in `labels`, or "" when the instance has no such label.
const std::string& LabelValue(const obs::LabelSet& labels,
                              const std::string& key) {
  static const std::string kNone;
  for (const auto& [k, v] : labels) {
    if (k == key) return v;
  }
  return kNone;
}

}  // namespace

InferenceEngine::InferenceEngine(const ModelRegistry* registry,
                                 const InferenceEngineOptions& options)
    : registry_(registry),
      options_(options),
      scheduler_(SchedulerOptions(options)),
      queue_(QueueOptions(options)),
      paused_(options.start_paused) {
  RITA_CHECK(registry_ != nullptr);
  Start();
}

InferenceEngine::InferenceEngine(const FrozenModel* model,
                                 const InferenceEngineOptions& options)
    : registry_(nullptr),
      options_(options),
      scheduler_(SchedulerOptions(options)),
      queue_(QueueOptions(options)),
      paused_(options.start_paused) {
  RITA_CHECK(model != nullptr);
  own_registry_.Register("default", model);
  registry_ = &own_registry_;
  Start();
}

void InferenceEngine::Start() {
  RITA_CHECK_GT(registry_->size(), 0) << "registry has no models";
  RITA_CHECK_GT(options_.num_workers, 0);
  registry_->Freeze();
  if (options_.cache_bytes > 0) {
    ResultCache::Options cache_options;
    cache_options.byte_budget = options_.cache_bytes;
    cache_ = std::make_unique<ResultCache>(cache_options);
  }
  // Metrics: an engine-owned registry unless the caller supplied one. Every
  // EngineStats field is backed here, per model ({model="<id>"}); the engine
  // totals are read by summing the instances, never written separately.
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    own_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = own_metrics_.get();
  }
  per_model_.reserve(static_cast<size_t>(registry_->size()));
  for (int64_t id = 0; id < registry_->size(); ++id) {
    per_model_.push_back(RegisterScope({{"model", std::to_string(id)}}));
  }
  rejected_unknown_model_ = metrics_->GetCounter(
      kRejectedFamily, kRejectedHelp, {{"reason", "invalid"}});
  workers_.reserve(options_.num_workers);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (options_.stats_log_interval_ms > 0.0) {
    logger_ = std::thread([this] { StatsLoggerLoop(); });
  }
}

InferenceEngine::ScopeMetrics InferenceEngine::RegisterScope(
    const obs::LabelSet& labels) {
  const auto with = [&labels](const char* key, const char* value) {
    obs::LabelSet extended = labels;
    extended.emplace_back(key, value);
    return extended;
  };
  ScopeMetrics m;
  m.completed = metrics_->GetCounter(
      kCompletedFamily, "Requests answered OK, including cache hits", labels);
  m.rejected_invalid = metrics_->GetCounter(kRejectedFamily, kRejectedHelp,
                                            with("reason", "invalid"));
  m.rejected_backpressure = metrics_->GetCounter(
      kRejectedFamily, kRejectedHelp, with("reason", "backpressure"));
  m.batches = metrics_->GetCounter(
      kBatchesFamily, "Micro-batch model forwards executed", labels);
  m.cache_hits = metrics_->GetCounter(
      kCacheHitsFamily, "Requests answered from the result cache", labels);
  m.cache_misses = metrics_->GetCounter(
      kCacheMissesFamily, "Result-cache lookups that missed", labels);
  m.deadline_missed = metrics_->GetCounter(
      kDeadlineMissedFamily, "Computed requests resolved past their deadline",
      labels);
  m.forward_failures = metrics_->GetCounter(
      kForwardFailuresFamily,
      "Micro-batches whose forward threw (riders resolved Internal)", labels);
  m.queue_ms = metrics_->GetHistogram(
      kQueueLatencyFamily,
      "Per-request wait from Submit() to micro-batch assembly (ms)", labels);
  m.compute_ms = metrics_->GetHistogram(
      kComputeLatencyFamily, "Per-micro-batch forward time (ms)", labels);
  m.batch_size = metrics_->GetHistogram(
      "rita_micro_batch_size", "Coalesced micro-batch sizes", labels);
  m.max_micro_batch = metrics_->GetMaxGauge(
      kMicroBatchMaxFamily, "Largest coalesced micro-batch this stats window",
      labels);
  m.max_compute_ms = metrics_->GetMaxGauge(
      kComputeMaxFamily,
      "Slowest single micro-batch forward this stats window (ms)", labels);
  return m;
}

InferenceEngine::~InferenceEngine() { Shutdown(); }

Status InferenceEngine::Validate(const InferenceRequest& request,
                                 const FrozenModel** model) const {
  *model = registry_->Get(request.model_id);
  if (*model == nullptr) {
    return Status::InvalidArgument("unknown model_id " +
                                   std::to_string(request.model_id) + " (" +
                                   std::to_string(registry_->size()) +
                                   " models registered)");
  }
  const model::RitaConfig& config = (*model)->config();
  if (!request.series.defined() || request.series.dim() != 2) {
    return Status::InvalidArgument("request series must be a [T, C] tensor");
  }
  const int64_t t = request.series.size(0), c = request.series.size(1);
  if (c != config.input_channels) {
    return Status::InvalidArgument("request has " + std::to_string(c) +
                                   " channels; model expects " +
                                   std::to_string(config.input_channels));
  }
  if (t < config.window || t > config.input_length) {
    return Status::InvalidArgument(
        "request length " + std::to_string(t) + " outside the model's [" +
        std::to_string(config.window) + ", " + std::to_string(config.input_length) +
        "] range");
  }
  // Linformer's length projection is locked to the configured token count; a
  // shorter series would trip a fatal check deep in the forward, so reject it
  // here as a recoverable error instead.
  if (config.encoder.attention.kind == attn::AttentionKind::kLinformer &&
      t != config.input_length) {
    return Status::InvalidArgument(
        "Linformer models serve only full-length series (" +
        std::to_string(config.input_length) + "), got " + std::to_string(t));
  }
  // A NaN or Inf sample would flow through the forward into a cached OK
  // response; refuse it here, the one check every local, remote and stream
  // request passes.
  if (!request.series.AllFinite()) {
    return Status::InvalidArgument("request series has a non-finite sample");
  }
  if (request.task == ServeTask::kClassify && config.num_classes <= 0) {
    return Status::InvalidArgument("model has no classification head");
  }
  if (request.context.defined()) {
    if (request.context.dim() != 1 ||
        request.context.size(0) != config.encoder.dim) {
      return Status::InvalidArgument(
          "request context must be a [dim] embedding (dim " +
          std::to_string(config.encoder.dim) + "), got " +
          ShapeToString(request.context.shape()));
    }
    if (!request.context.AllFinite()) {
      return Status::InvalidArgument("request context has a non-finite value");
    }
    // The context token raises the encoder's sequence length by one, which
    // Linformer's locked length projection cannot absorb.
    if (config.encoder.attention.kind == attn::AttentionKind::kLinformer) {
      return Status::NotSupported(
          "Linformer models cannot serve context-conditioned requests "
          "(the extra token exceeds the locked token count)");
    }
  }
  return Status::OK();
}

void InferenceEngine::CountRejection(int64_t model_id, RejectKind kind) {
  // Count BEFORE resolving the promise (same invariant as ExecuteBatch): a
  // client reading stats() after its future resolves must see its own
  // request counted — the relaxed add is sequenced before the promise's
  // releasing store, and the client's get() acquires it.
  if (model_id < 0 || model_id >= static_cast<int64_t>(per_model_.size())) {
    // Only validation rejects a model_id no model owns.
    rejected_unknown_model_->Add(1);
    return;
  }
  const ScopeMetrics& m = per_model_[static_cast<size_t>(model_id)];
  switch (kind) {
    case RejectKind::kInvalid:
      m.rejected_invalid->Add(1);
      break;
    case RejectKind::kBackpressure:
      m.rejected_backpressure->Add(1);
      break;
  }
}

std::future<InferenceResponse> InferenceEngine::Submit(InferenceRequest request) {
  std::promise<InferenceResponse> promise;
  std::future<InferenceResponse> future = promise.get_future();
  const int64_t model_id = request.model_id;

  const FrozenModel* model = nullptr;
  Status invalid = Validate(request, &model);
  RejectKind reject_kind = RejectKind::kInvalid;

  // Trace sampling at admission: a sampled request carries a non-zero id all
  // the way through the scheduler, executor and kernel calls.
  // One relaxed load when tracing is off; never touches request data.
  if (invalid.ok() && request.trace_id == 0) {
    request.trace_id = obs::SampleTrace();
  }
  const uint64_t trace_id = request.trace_id;
  const double trace_submit_us = trace_id != 0 ? obs::TraceNowUs() : 0.0;

  // Result cache, in front of admission: deterministic, batch-invariant
  // forwards make a replay bit-identical to a cold compute, so a hit skips
  // the queue entirely. Streaming requests bypass it: a context-bearing
  // output is keyed on more than (model, task, series), and a want_context
  // hit would have no [CLS] embedding to return.
  ResultCache::Key key;
  const bool cacheable = !request.context.defined() && !request.want_context;
  if (invalid.ok() && cache_ != nullptr && cacheable) {
    key = ResultCache::MakeKey(model->Fingerprint(), request.task, request.series);
    Tensor cached;
    if (cache_->Lookup(key, &cached)) {
      const ScopeMetrics& pm = per_model_[static_cast<size_t>(model_id)];
      pm.completed->Add(1);
      pm.cache_hits->Add(1);
      obs::RecordSpan(trace_id, "cache_hit", "serve", trace_submit_us,
                      obs::TraceNowUs() - trace_submit_us);
      InferenceResponse response;
      response.status = Status::OK();
      response.output = std::move(cached);
      response.cache_hit = true;
      response.model_id = model_id;
      promise.set_value(std::move(response));
      return future;
    }
    per_model_[static_cast<size_t>(model_id)].cache_misses->Add(1);
    // Second-sighting admission: a first-time key computes but is not
    // inserted, so one-off requests never occupy the cache.
    if (!cache_->Admit(key)) key = ResultCache::Key{};
  }

  if (invalid.ok()) {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) {
      invalid = Status::Internal("engine is shut down");
    } else {
      ScheduledRequest pending;
      pending.request = std::move(request);
      pending.promise = std::move(promise);
      pending.enqueued = ServeClock::now();
      pending.cache_key_lo = key.lo;
      pending.cache_key_hi = key.hi;
      Status admitted = queue_.Admit(std::move(pending));
      if (admitted.ok()) {
        lock.unlock();
        cv_.notify_one();
        obs::RecordSpan(trace_id, "admission", "serve", trace_submit_us,
                        obs::TraceNowUs() - trace_submit_us);
        return future;
      }
      // Rejected by backpressure: the queue did not take ownership, so the
      // promise is still ours to resolve.
      promise = std::move(pending.promise);
      invalid = std::move(admitted);
      reject_kind = RejectKind::kBackpressure;
    }
  }

  CountRejection(model_id, reject_kind);
  InferenceResponse response;
  response.status = std::move(invalid);
  response.model_id = model_id;
  promise.set_value(std::move(response));
  return future;
}

InferenceResponse InferenceEngine::Run(InferenceRequest request) {
  return Submit(std::move(request)).get();
}

void InferenceEngine::WorkerLoop() {
  // The planner's micro-batch cap depends on the carrier model's group count.
  const Scheduler::GroupsFn groups = [this](int64_t model_id) {
    return registry_->NumGroups(model_id);
  };
  for (;;) {
    std::vector<ScheduledRequest> batch;
    bool more = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Paused executors sit out until Resume(); Shutdown overrides the pause
      // so queued work is always drained before the workers exit.
      cv_.wait(lock,
               [this] { return stopping_ || (!paused_ && !queue_.empty()); });
      if (queue_.empty() && stopping_) return;
      if (queue_.empty()) continue;
      batch = scheduler_.Assemble(queue_, ServeClock::now(), groups);
      if (batch.empty()) continue;
      ++in_flight_batches_;
      more = !queue_.empty();
    }
    if (more) cv_.notify_one();
    // ExecuteBatch decrements in_flight_batches_ itself, BEFORE it fulfils
    // any rider's promise: a client that reads stats() the instant its
    // future resolves must not see its own finished batch still in flight.
    ExecuteBatch(std::move(batch));
  }
}

void InferenceEngine::ExecuteBatch(std::vector<ScheduledRequest> batch) {
  const int64_t b = static_cast<int64_t>(batch.size());
  const int64_t model_id = batch[0].request.model_id;
  const FrozenModel* model = registry_->Get(model_id);
  RITA_CHECK(model != nullptr);
  const int64_t t = batch[0].request.series.size(0);
  const int64_t c = batch[0].request.series.size(1);
  const ServeTask task = batch[0].request.task;

  // Stack [T, C] requests into one [B, T, C] micro-batch; context-bearing
  // buckets additionally stack their per-request summaries into [B, dim]
  // (admission splits buckets on context presence, so it is all-or-none).
  Tensor stacked({b, t, c});
  float* dst = stacked.data();
  for (int64_t i = 0; i < b; ++i) {
    const Tensor& series = batch[i].request.series;
    std::copy(series.data(), series.data() + t * c, dst + i * t * c);
  }
  const bool with_context = batch[0].request.context.defined();
  const int64_t dim = model->config().encoder.dim;
  Tensor stacked_context;
  if (with_context) {
    stacked_context = Tensor({b, dim});
    float* ctx_dst = stacked_context.data();
    for (int64_t i = 0; i < b; ++i) {
      const Tensor& context = batch[i].request.context;
      std::copy(context.data(), context.data() + dim, ctx_dst + i * dim);
    }
  }
  bool want_cls = false;
  for (int64_t i = 0; i < b; ++i) want_cls |= batch[i].request.want_context;
  const Tensor* context_ptr = with_context ? &stacked_context : nullptr;

  // Close the traced riders' queue spans: enqueued -> assembled-here. The
  // whole batch's forward runs under the first traced rider's context, so
  // kernel spans attach to that id.
  uint64_t batch_trace = 0;
  bool any_trace = false;
  for (int64_t i = 0; i < b; ++i) {
    const uint64_t id = batch[i].request.trace_id;
    if (id == 0) continue;
    any_trace = true;
    if (batch_trace == 0) batch_trace = id;
  }
  if (any_trace) {
    const double assembled_us = obs::TraceNowUs();
    for (int64_t i = 0; i < b; ++i) {
      const uint64_t id = batch[i].request.trace_id;
      if (id == 0) continue;
      const double enqueued_us = obs::TraceUsAt(batch[i].enqueued);
      obs::RecordSpan(id, "queue", "serve", enqueued_us,
                      assembled_us - enqueued_us);
    }
  }

  Stopwatch compute;
  Tensor output;  // rows are per-request results
  Tensor cls;     // [B, dim] when any rider wants its [CLS] back
  Status forward_status = Status::OK();
  {
    // Install the trace context for the forward: ExecutionContext::ParallelFor
    // re-installs it in every shard, so kernel spans on pool threads attach
    // to this batch's id too.
    obs::ScopedTrace batch_trace_scope(batch_trace);
    obs::Span forward_span(batch_trace, "batch_forward", "serve");
    try {
      if (options_.forward_fault_for_testing) options_.forward_fault_for_testing();
      switch (task) {
        case ServeTask::kClassify:
          output = model->ClassLogits(stacked, context_ptr,
                                      want_cls ? &cls : nullptr, options_.context);
          break;
        case ServeTask::kEmbed:
          output = model->Embed(stacked, context_ptr, options_.context);
          if (want_cls) cls = output;  // the embedding IS the [CLS] row
          break;
        case ServeTask::kReconstruct:
          output = model->Reconstruct(stacked, context_ptr,
                                      want_cls ? &cls : nullptr, options_.context);
          break;
      }
    } catch (const std::exception& e) {
      forward_status = Status::Internal(std::string("forward failed: ") + e.what());
    } catch (...) {
      forward_status = Status::Internal("forward failed with an unknown exception");
    }
  }

  if (!forward_status.ok()) {
    // Fail the whole micro-batch cleanly: every rider resolves with the
    // error, nothing enters the cache, and the worker slot frees as usual
    // when this frame returns — the engine keeps serving subsequent requests.
    per_model_[static_cast<size_t>(model_id)].forward_failures->Add(1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_batches_;
    }
    for (int64_t i = 0; i < b; ++i) {
      InferenceResponse response;
      response.status = forward_status;
      response.micro_batch = b;
      response.model_id = model_id;
      batch[i].promise.set_value(std::move(response));
    }
    return;
  }
  const double compute_ms = compute.ElapsedMillis();
  const ServeClock::time_point resolved_at = ServeClock::now();

  std::vector<InferenceResponse> responses(static_cast<size_t>(b));
  uint64_t missed_deadlines = 0;
  uint64_t non_finite = 0;
  for (int64_t i = 0; i < b; ++i) {
    InferenceResponse& response = responses[static_cast<size_t>(i)];
    response.compute_ms = compute_ms;
    response.micro_batch = b;
    response.model_id = model_id;
    // Row i of the output, with the batch axis dropped.
    Tensor row = ops::Slice(output, 0, i, 1);
    Shape row_shape(output.shape().begin() + 1, output.shape().end());
    row = row.Reshape(std::move(row_shape));
    Tensor context;
    if (batch[i].request.want_context) {
      context = ops::Slice(cls, 0, i, 1).Reshape({dim});
    }
    // Finite input can still overflow (3e38 does). Rows are independent, so
    // the rider fails alone and its batch-mates keep their bits; it is never
    // cached.
    if (!row.AllFinite() || !context.AllFinite()) {
      response.status = Status::InvalidArgument("non-finite output");
      ++non_finite;
      continue;
    }
    response.status = Status::OK();
    response.output = std::move(row);
    response.context = std::move(context);
    // From the batch's one resolve stamp, so rider i's wait does not absorb
    // the per-rider work above for riders 0..i-1.
    response.queue_ms = MsBetween(batch[i].enqueued, resolved_at) - compute_ms;
    if (batch[i].request.deadline != kNoDeadline &&
        resolved_at > batch[i].request.deadline) {
      ++missed_deadlines;
    }

    // Populate the cache before resolving the promise so a client replaying
    // its own completed request tends to hit. Deterministic forwards make
    // racing duplicate inserts idempotent.
    if (cache_ != nullptr &&
        (batch[i].cache_key_lo != 0 || batch[i].cache_key_hi != 0)) {
      ResultCache::Key key;
      key.lo = batch[i].cache_key_lo;
      key.hi = batch[i].cache_key_hi;
      cache_->Insert(key, batch[i].request.task, response.output);
    }
  }

  // Commit the metrics BEFORE fulfilling any promise: a client that reads
  // stats() right after its future resolves must see its own request counted
  // (the relaxed adds are sequenced before the promise's releasing store).
  {
    const ScopeMetrics& pm = per_model_[static_cast<size_t>(model_id)];
    pm.completed->Add(static_cast<uint64_t>(b) - non_finite);
    if (non_finite != 0) pm.rejected_invalid->Add(non_finite);
    pm.batches->Add(1);
    for (const InferenceResponse& response : responses) {
      if (response.status.ok()) pm.queue_ms->Observe(response.queue_ms);
    }
    pm.compute_ms->Observe(compute_ms);
    pm.batch_size->Observe(static_cast<double>(b));
    pm.max_micro_batch->Observe(static_cast<double>(b));
    pm.max_compute_ms->Observe(compute_ms);
    if (missed_deadlines != 0) pm.deadline_missed->Add(missed_deadlines);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_batches_;
  }
  if (any_trace) {
    // Each traced rider's end-to-end span: enqueued -> resolved.
    const double resolved_us = obs::TraceUsAt(resolved_at);
    for (int64_t i = 0; i < b; ++i) {
      const uint64_t id = batch[i].request.trace_id;
      if (id == 0) continue;
      const double enqueued_us = obs::TraceUsAt(batch[i].enqueued);
      obs::RecordSpan(id, "request", "serve", enqueued_us,
                      resolved_us - enqueued_us);
    }
  }
  for (int64_t i = 0; i < b; ++i) {
    batch[i].promise.set_value(std::move(responses[static_cast<size_t>(i)]));
  }
}

void InferenceEngine::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void InferenceEngine::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!paused_) return;
    paused_ = false;
  }
  cv_.notify_all();
}

void InferenceEngine::Shutdown() {
  // call_once makes concurrent Shutdown()s safe: one caller drains and
  // joins, any other blocks until that is complete, later calls are no-ops.
  std::call_once(shutdown_once_, [this] {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    workers_.clear();
    // Workers exit only on an empty queue, so this is a belt-and-braces
    // failure path: never strand a promise.
    std::vector<ScheduledRequest> orphans;
    {
      std::lock_guard<std::mutex> lock(mu_);
      orphans = queue_.TakeAll();
    }
    for (ScheduledRequest& orphan : orphans) {
      InferenceResponse response;
      response.status = Status::Internal("engine shut down before execution");
      response.model_id = orphan.request.model_id;
      orphan.promise.set_value(std::move(response));
    }
    if (logger_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(log_mu_);
        log_stop_ = true;
      }
      log_cv_.notify_all();
      logger_.join();
      // A final snapshot so short-lived engines still report once.
      EmitStatsSnapshot();
    }
  });
}

void InferenceEngine::StatsLoggerLoop() {
  const auto interval = std::chrono::duration<double, std::milli>(
      options_.stats_log_interval_ms);
  std::unique_lock<std::mutex> lock(log_mu_);
  while (!log_stop_) {
    if (log_cv_.wait_for(lock, interval, [this] { return log_stop_; })) break;
    lock.unlock();
    EmitStatsSnapshot();
    lock.lock();
  }
}

void InferenceEngine::EmitStatsSnapshot() {
  const InferenceEngineStats s = stats();
  if (options_.stats_log_hook) {
    options_.stats_log_hook(s);
    return;
  }
  RITA_LOG(Info) << "engine stats: completed=" << s.completed
                 << " batches=" << s.batches << " queue_depth=" << s.queue_depth
                 << " in_flight=" << s.in_flight_batches
                 << " avg_queue_ms=" << s.AvgQueueMs()
                 << " avg_compute_ms=" << s.AvgComputeMs()
                 << " cache_hit_ratio=" << s.CacheHitRatio()
                 << " rejected="
                 << s.rejected_invalid + s.rejected_backpressure;
}

InferenceEngineStats ReadEngineStats(
    const std::vector<obs::MetricsRegistry::FamilySnapshot>& families,
    int64_t model_id) {
  const std::string model = std::to_string(model_id);
  InferenceEngineStats s;
  for (const auto& family : families) {
    const std::string& name = family.name;
    for (const auto& inst : family.instances) {
      if (model_id >= 0 && LabelValue(inst.labels, "model") != model) continue;
      const auto count = static_cast<uint64_t>(inst.value);
      if (name == kCompletedFamily) {
        s.completed += count;
      } else if (name == kRejectedFamily) {
        const std::string& reason = LabelValue(inst.labels, "reason");
        if (reason == "invalid") s.rejected_invalid += count;
        if (reason == "backpressure") s.rejected_backpressure += count;
      } else if (name == kBatchesFamily) {
        s.batches += count;
      } else if (name == kCacheHitsFamily) {
        s.cache_hits += count;
      } else if (name == kCacheMissesFamily) {
        s.cache_misses += count;
      } else if (name == kDeadlineMissedFamily) {
        s.deadline_missed += count;
      } else if (name == kForwardFailuresFamily) {
        s.forward_failures += count;
      } else if (name == kQueueLatencyFamily) {
        s.total_queue_ms += inst.hist.Sum();
      } else if (name == kComputeLatencyFamily) {
        s.total_compute_ms += inst.hist.Sum();
      } else if (name == kMicroBatchMaxFamily) {
        s.max_micro_batch =
            std::max(s.max_micro_batch, static_cast<int64_t>(inst.value));
      } else if (name == kComputeMaxFamily) {
        s.max_compute_ms = std::max(s.max_compute_ms, inst.value);
      } else if (name == kQueueDepthFamily) {
        const std::string& cls = LabelValue(inst.labels, "class");
        const auto depth = static_cast<int64_t>(inst.value);
        if (cls == "all") s.queue_depth += depth;
        if (cls == "interactive") s.queue_depth_interactive += depth;
        if (cls == "batch") s.queue_depth_batch += depth;
      } else if (name == kInFlightFamily) {
        s.in_flight_batches += static_cast<int64_t>(inst.value);
      }
    }
  }
  return s;
}

InferenceEngineStats InferenceEngine::ReadWindow(int64_t model_id) const {
  std::vector<obs::MetricsRegistry::FamilySnapshot> families =
      metrics_->Collect();
  {
    std::lock_guard<std::mutex> lock(window_mu_);
    families = obs::SubtractBase(std::move(families), window_base_);
  }
  return ReadEngineStats(families, model_id);
}

void InferenceEngine::ResetStatsWindow() {
  std::lock_guard<std::mutex> lock(window_mu_);
  window_base_ = metrics_->Collect();
  // High-water marks restart from zero rather than subtracting (a maximum
  // cannot be windowed by subtraction). A batch completing concurrently may
  // land its observation on either side of the boundary.
  for (const ScopeMetrics& m : per_model_) {
    m.max_micro_batch->Reset();
    m.max_compute_ms->Reset();
  }
}

InferenceEngineStats InferenceEngine::stats() const {
  InferenceEngineStats snapshot = ReadWindow(/*model_id=*/-1);
  // The queue snapshot lands in one consistent view under the queue mutex
  // (instantaneous load, not counters racing the queue).
  {
    std::lock_guard<std::mutex> queue_lock(mu_);
    snapshot.queue_depth = queue_.depth();
    snapshot.queue_depth_interactive = queue_.depth(Priority::kInteractive);
    snapshot.queue_depth_batch = queue_.depth(Priority::kBatch);
    snapshot.in_flight_batches = in_flight_batches_;
  }
  return snapshot;
}

InferenceEngineStats InferenceEngine::model_stats(int64_t model_id) const {
  InferenceEngineStats snapshot;
  if (model_id >= 0 && model_id < static_cast<int64_t>(per_model_.size())) {
    snapshot = ReadWindow(model_id);
  }
  {
    std::lock_guard<std::mutex> queue_lock(mu_);
    snapshot.queue_depth = queue_.DepthForModel(model_id);
  }
  if (const FrozenModel* model = registry_->Get(model_id)) {
    snapshot.precision = model->precision();
    snapshot.weight_bytes = model->WeightBytes();
    snapshot.weight_bytes_ratio = model->QuantizedBytesRatio();
  }
  return snapshot;
}

void InferenceEngine::RefreshExportGauges() const {
  obs::MetricsRegistry* r = metrics_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    r->GetGauge(kQueueDepthFamily, "Queued requests", {{"class", "all"}})
        ->Set(static_cast<double>(queue_.depth()));
    r->GetGauge(kQueueDepthFamily, "Queued requests",
                {{"class", "interactive"}})
        ->Set(static_cast<double>(queue_.depth(Priority::kInteractive)));
    r->GetGauge(kQueueDepthFamily, "Queued requests", {{"class", "batch"}})
        ->Set(static_cast<double>(queue_.depth(Priority::kBatch)));
    r->GetGauge(kInFlightFamily, "Micro-batches currently executing")
        ->Set(static_cast<double>(in_flight_batches_));
  }
  {
    // Exported even with the cache disabled (all zeros, like EngineStats):
    // scrape targets must not appear and vanish with a config knob.
    const ResultCacheStats cs =
        cache_ != nullptr ? cache_->stats() : ResultCacheStats{};
    r->GetGauge("rita_cache_bytes", "Result-cache resident payload bytes")
        ->Set(static_cast<double>(cs.bytes));
    r->GetGauge("rita_cache_entries", "Result-cache resident entries")
        ->Set(static_cast<double>(cs.entries));
    r->GetGauge("rita_cache_insertions", "Result-cache insertions")
        ->Set(static_cast<double>(cs.insertions));
    r->GetGauge("rita_cache_evictions", "Result-cache evictions")
        ->Set(static_cast<double>(cs.evictions));
  }
  for (int64_t id = 0; id < registry_->size(); ++id) {
    const FrozenModel* model = registry_->Get(id);
    if (model == nullptr) continue;
    const obs::LabelSet labels{{"model", std::to_string(id)}};
    r->GetGauge("rita_model_weight_bytes", "Serving weight footprint", labels)
        ->Set(static_cast<double>(model->WeightBytes()));
    r->GetGauge("rita_model_weight_bytes_ratio",
                "GEMM-matrix bytes relative to fp32", labels)
        ->Set(model->QuantizedBytesRatio());
    r->GetGauge("rita_model_precision",
                "Serving weight format (0=fp32, 2=bf16)", labels)
        ->Set(static_cast<double>(model->precision()));
  }
}

std::string InferenceEngine::PrometheusText() const {
  RefreshExportGauges();
  return obs::PrometheusText(*metrics_);
}

std::vector<obs::MetricsRegistry::FamilySnapshot> InferenceEngine::CollectMetrics()
    const {
  RefreshExportGauges();
  return metrics_->Collect();
}

}  // namespace serve
}  // namespace rita
