// Scheduler-layer invariants for the layered serving stack, at two levels.
//
// Unit level (RequestQueue + Scheduler are passive, with time injected, so
// every policy decision is replayed deterministically): interactive requests
// overtake queued bulk, aged bulk is promoted past fresh interactive traffic
// (starvation-freedom), EDF ordering within a class, and the split
// backpressure accounting that reserves queue slots for interactive bursts.
//
// Engine level (run under RITA_SANITIZE=thread in CI): the priority policy
// holds through the real concurrent engine, result-cache hits are
// bit-identical to cold computes across 8 client threads, and one engine
// multiplexes two models with correct routing, per-model stats and
// fingerprint-separated cache entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "serve/inference_engine.h"

namespace rita {
namespace serve {
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

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

// ---------------------------------------------------------------------------
// Unit level: the queue and scheduler as passive policy, time injected.
// ---------------------------------------------------------------------------

/// A schedulable request whose series[0] is a recognizable marker.
ScheduledRequest MakeScheduled(float marker, Priority priority,
                               ServeClock::time_point enqueued,
                               ServeClock::time_point deadline = kNoDeadline,
                               int64_t length = 60, int64_t model_id = 0) {
  ScheduledRequest scheduled;
  scheduled.request.series = Tensor::Zeros({length, 2});
  scheduled.request.series.data()[0] = marker;
  scheduled.request.priority = priority;
  scheduled.request.deadline = deadline;
  scheduled.request.model_id = model_id;
  scheduled.enqueued = enqueued;
  return scheduled;
}

float Marker(const ScheduledRequest& scheduled) {
  return scheduled.request.series.data()[0];
}

std::set<float> Markers(const std::vector<ScheduledRequest>& batch) {
  std::set<float> markers;
  for (const ScheduledRequest& scheduled : batch) markers.insert(Marker(scheduled));
  return markers;
}

TEST(SchedulerTest, InteractiveOvertakesQueuedBulkSameBucket) {
  RequestQueue queue{RequestQueue::Options()};
  const auto now = ServeClock::now();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(queue.Admit(MakeScheduled(100.0f + i, Priority::kBatch, now)).ok());
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(
        queue.Admit(MakeScheduled(200.0f + i, Priority::kInteractive, now)).ok());
  }

  Scheduler::Options options;
  options.max_micro_batch = 4;
  options.bulk_aging_ms = 1e9;  // aging out of the picture
  Scheduler scheduler(options);

  // One bucket (same model/task/length): the batch must carry both
  // interactive requests although six bulk requests were queued ahead.
  std::vector<ScheduledRequest> batch = scheduler.Assemble(queue, now, {});
  ASSERT_EQ(batch.size(), 4u);
  const std::set<float> markers = Markers(batch);
  EXPECT_TRUE(markers.count(200.0f) && markers.count(201.0f))
      << "interactive requests did not overtake queued bulk";
  EXPECT_EQ(queue.depth(Priority::kInteractive), 0);
  EXPECT_EQ(queue.depth(Priority::kBatch), 4);
}

TEST(SchedulerTest, InteractiveBucketPreemptsBulkBucket) {
  RequestQueue queue{RequestQueue::Options()};
  const auto now = ServeClock::now();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        queue.Admit(MakeScheduled(100.0f + i, Priority::kBatch, now, kNoDeadline, 60))
            .ok());
  }
  // Different length => different bucket: no coalescing with bulk possible.
  ASSERT_TRUE(
      queue.Admit(MakeScheduled(200.0f, Priority::kInteractive, now, kNoDeadline, 35))
          .ok());

  Scheduler::Options options;
  options.bulk_aging_ms = 1e9;
  Scheduler scheduler(options);
  std::vector<ScheduledRequest> batch = scheduler.Assemble(queue, now, {});
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(Marker(batch[0]), 200.0f);
}

TEST(SchedulerTest, AgedBulkIsPromotedPastFreshInteractive) {
  RequestQueue queue{RequestQueue::Options()};
  const auto now = ServeClock::now();
  const auto old_enqueue = now - std::chrono::milliseconds(1000);
  ASSERT_TRUE(queue.Admit(MakeScheduled(1.0f, Priority::kBatch, old_enqueue)).ok());
  ASSERT_TRUE(queue.Admit(MakeScheduled(2.0f, Priority::kInteractive, now)).ok());

  // Aging threshold exceeded: the bulk request competes as interactive with
  // an elapsed deadline, so it wins over the fresh interactive request.
  Scheduler::Options aged;
  aged.max_micro_batch = 1;
  aged.bulk_aging_ms = 500.0;
  std::vector<ScheduledRequest> first = Scheduler(aged).Assemble(queue, now, {});
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(Marker(first[0]), 1.0f) << "aged bulk request was starved";

  // Same shape, aging not yet reached: interactive wins.
  RequestQueue queue2{RequestQueue::Options()};
  ASSERT_TRUE(queue2.Admit(MakeScheduled(1.0f, Priority::kBatch, old_enqueue)).ok());
  ASSERT_TRUE(queue2.Admit(MakeScheduled(2.0f, Priority::kInteractive, now)).ok());
  Scheduler::Options fresh;
  fresh.max_micro_batch = 1;
  fresh.bulk_aging_ms = 1e9;
  std::vector<ScheduledRequest> second = Scheduler(fresh).Assemble(queue2, now, {});
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(Marker(second[0]), 2.0f);
}

TEST(SchedulerTest, EarliestDeadlineFirstWithinClass) {
  RequestQueue queue{RequestQueue::Options()};
  const auto now = ServeClock::now();
  ASSERT_TRUE(queue.Admit(MakeScheduled(0.5f, Priority::kInteractive, now)).ok());
  ASSERT_TRUE(queue
                  .Admit(MakeScheduled(3.0f, Priority::kInteractive, now,
                                       now + std::chrono::milliseconds(300)))
                  .ok());
  ASSERT_TRUE(queue
                  .Admit(MakeScheduled(1.0f, Priority::kInteractive, now,
                                       now + std::chrono::milliseconds(100)))
                  .ok());
  ASSERT_TRUE(queue
                  .Admit(MakeScheduled(2.0f, Priority::kInteractive, now,
                                       now + std::chrono::milliseconds(200)))
                  .ok());

  Scheduler::Options options;
  options.max_micro_batch = 1;
  Scheduler scheduler(options);
  // Deadline-bearing requests run earliest-first; the no-deadline request
  // (admitted first!) runs last within the class.
  for (float expected : {1.0f, 2.0f, 3.0f, 0.5f}) {
    std::vector<ScheduledRequest> batch = scheduler.Assemble(queue, now, {});
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(Marker(batch[0]), expected);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(RequestQueueTest, SplitBackpressureKeepsInteractiveReserve) {
  RequestQueue::Options options;
  options.max_queue = 8;
  options.max_batch_queue = 6;
  RequestQueue queue(options);
  const auto now = ServeClock::now();

  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(queue.Admit(MakeScheduled(1.0f + i, Priority::kBatch, now)).ok());
  }
  // Bulk hits its own cap while the queue still has room...
  ScheduledRequest overflow = MakeScheduled(99.0f, Priority::kBatch, now);
  Status status = queue.Admit(std::move(overflow));
  EXPECT_EQ(status.code(), StatusCode::kOutOfMemory);
  // ...and the promise is returned intact on rejection (resolvable).
  overflow.promise.set_value(InferenceResponse{});

  // ...which the interactive class can still use.
  ASSERT_TRUE(queue.Admit(MakeScheduled(50.0f, Priority::kInteractive, now)).ok());
  ASSERT_TRUE(queue.Admit(MakeScheduled(51.0f, Priority::kInteractive, now)).ok());
  EXPECT_EQ(queue.depth(), 8);
  EXPECT_EQ(queue.depth(Priority::kInteractive), 2);
  EXPECT_EQ(queue.depth(Priority::kBatch), 6);

  // Total cap now binds for everyone.
  ScheduledRequest full = MakeScheduled(52.0f, Priority::kInteractive, now);
  EXPECT_EQ(queue.Admit(std::move(full)).code(), StatusCode::kOutOfMemory);
}

TEST(RequestQueueTest, BucketsPerModelTaskLength) {
  RequestQueue queue{RequestQueue::Options()};
  const auto now = ServeClock::now();
  ASSERT_TRUE(
      queue.Admit(MakeScheduled(1, Priority::kInteractive, now, kNoDeadline, 60, 0))
          .ok());
  ASSERT_TRUE(
      queue.Admit(MakeScheduled(2, Priority::kInteractive, now, kNoDeadline, 60, 1))
          .ok());
  ASSERT_TRUE(
      queue.Admit(MakeScheduled(3, Priority::kInteractive, now, kNoDeadline, 35, 0))
          .ok());
  ScheduledRequest embed = MakeScheduled(4, Priority::kInteractive, now);
  embed.request.task = ServeTask::kEmbed;
  ASSERT_TRUE(queue.Admit(std::move(embed)).ok());

  EXPECT_EQ(queue.buckets().size(), 4u) << "model/task/length must all split buckets";
  EXPECT_EQ(queue.DepthForModel(0), 3);
  EXPECT_EQ(queue.DepthForModel(1), 1);
}

// ---------------------------------------------------------------------------
// Engine level: the policy through the real concurrent engine (TSan in CI).
// ---------------------------------------------------------------------------

TEST(ServeSchedEngineTest, InteractiveOvertakesBulkThroughEngine) {
  model::RitaConfig config = SmallConfig();
  Rng rng(61);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);

  InferenceEngineOptions options;
  options.num_workers = 1;
  options.max_micro_batch = 8;
  options.start_paused = true;  // deterministic: everything queues first
  options.bulk_aging_ms = 1e9;  // no promotion during this test
  options.cache_bytes = 0;      // all requests must compute
  InferenceEngine engine(&frozen, options);

  // Bulk backlog first (length 60), then an interactive burst in a different
  // length bucket (35) — the scheduler must run the burst first.
  std::vector<std::future<InferenceResponse>> bulk, interactive;
  for (int i = 0; i < 8; ++i) {
    InferenceRequest request;
    request.series = MakeSeries(60, 2, 700 + i);
    request.priority = Priority::kBatch;
    bulk.push_back(engine.Submit(std::move(request)));
  }
  for (int i = 0; i < 4; ++i) {
    InferenceRequest request;
    request.series = MakeSeries(35, 2, 800 + i);
    request.priority = Priority::kInteractive;
    interactive.push_back(engine.Submit(std::move(request)));
  }
  {
    const InferenceEngineStats loaded = engine.stats();
    EXPECT_EQ(loaded.queue_depth, 12);
    EXPECT_EQ(loaded.queue_depth_interactive, 4);
    EXPECT_EQ(loaded.queue_depth_batch, 8);
    EXPECT_EQ(loaded.in_flight_batches, 0);
  }
  engine.Resume();

  double max_interactive_queue = 0.0, min_bulk_queue = 1e18;
  for (auto& future : interactive) {
    InferenceResponse response = future.get();
    ASSERT_TRUE(response.status.ok());
    max_interactive_queue = std::max(max_interactive_queue, response.queue_ms);
  }
  for (auto& future : bulk) {
    InferenceResponse response = future.get();
    ASSERT_TRUE(response.status.ok());
    min_bulk_queue = std::min(min_bulk_queue, response.queue_ms);
  }
  // The single worker ran the interactive batch first, so every bulk request
  // (enqueued earlier, completed later) waited strictly longer.
  EXPECT_LT(max_interactive_queue, min_bulk_queue)
      << "bulk backlog was not overtaken by the interactive burst";
}

TEST(ServeSchedEngineTest, CacheHitsBitIdenticalAcrossEightThreads) {
  model::RitaConfig config = SmallConfig();
  Rng rng(67);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);

  constexpr int kDistinct = 6;
  constexpr int kClients = 8;
  constexpr int kRoundsPerClient = 2;
  const int64_t t = 60, c = 2;

  // Cold references straight through the frozen model, no engine, no cache.
  std::vector<Tensor> series;
  std::vector<Tensor> cold;
  for (int i = 0; i < kDistinct; ++i) {
    series.push_back(MakeSeries(t, c, 900 + i));
    // Drop the batch axis: engine responses are per-request [num_classes].
    cold.push_back(frozen.ClassLogits(series.back().Reshape({1, t, c}))
                       .Reshape({config.num_classes}));
  }

  InferenceEngineOptions options;
  options.num_workers = 2;
  InferenceEngine engine(&frozen, options);

  // Warm the cache with two sequential passes (all misses, all computed):
  // admission is on second sighting, so the second pass inserts...
  constexpr int kWarmPasses = 2;
  for (int pass = 0; pass < kWarmPasses; ++pass) {
    for (int i = 0; i < kDistinct; ++i) {
      InferenceRequest request;
      request.series = series[i];
      InferenceResponse response = engine.Run(std::move(request));
      ASSERT_TRUE(response.status.ok());
      EXPECT_FALSE(response.cache_hit);
      EXPECT_TRUE(BitEqual(response.output, cold[i]));
    }
  }

  // ...then hammer it with duplicates from 8 client threads. Every response
  // must be bit-identical to the cold compute, hit or not.
  constexpr int kTotal = kClients * kRoundsPerClient * kDistinct;
  std::vector<std::future<InferenceResponse>> futures(kTotal);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int client = 0; client < kClients; ++client) {
    clients.emplace_back([&, client] {
      for (int round = 0; round < kRoundsPerClient; ++round) {
        for (int i = 0; i < kDistinct; ++i) {
          const int idx = (client * kRoundsPerClient + round) * kDistinct + i;
          InferenceRequest request;
          request.series = series[i];
          futures[idx] = engine.Submit(std::move(request));
        }
      }
    });
  }
  for (auto& thread : clients) thread.join();

  for (int idx = 0; idx < kTotal; ++idx) {
    InferenceResponse response = futures[idx].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_TRUE(response.cache_hit) << "warmed entry evicted or missed";
    EXPECT_TRUE(BitEqual(response.output, cold[idx % kDistinct]))
        << "cache replay diverged from the cold compute for request " << idx;
  }

  const InferenceEngineStats stats = engine.stats();
  constexpr int kWarmMisses = kWarmPasses * kDistinct;
  EXPECT_EQ(stats.cache_hits, static_cast<uint64_t>(kTotal));
  EXPECT_EQ(stats.cache_misses, static_cast<uint64_t>(kWarmMisses));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kTotal + kWarmMisses));
  EXPECT_DOUBLE_EQ(stats.CacheHitRatio(),
                   static_cast<double>(kTotal) / (kTotal + kWarmMisses));
}

TEST(ServeSchedEngineTest, MultiModelRoutingStatsAndCacheSeparation) {
  model::RitaConfig config = SmallConfig();
  Rng rng_a(71), rng_b(73);
  model::RitaModel source_a(config, &rng_a);
  model::RitaModel source_b(config, &rng_b);
  FrozenModel frozen_a(source_a);
  FrozenModel frozen_b(source_b);

  // Fingerprints separate different weights and agree across equal replicas.
  FrozenModel frozen_a2(source_a);
  EXPECT_NE(frozen_a.Fingerprint(), frozen_b.Fingerprint());
  EXPECT_EQ(frozen_a.Fingerprint(), frozen_a2.Fingerprint());

  ModelRegistry registry;
  const int64_t id_a = registry.Register("prod", &frozen_a);
  const int64_t id_b = registry.Register("canary", &frozen_b);
  EXPECT_EQ(registry.Find("prod"), id_a);
  EXPECT_EQ(registry.Find("canary"), id_b);

  InferenceEngineOptions options;
  options.num_workers = 2;
  InferenceEngine engine(&registry, options);

  constexpr int kRequests = 6;
  const int64_t t = 60, c = 2;
  for (int i = 0; i < kRequests; ++i) {
    Tensor series = MakeSeries(t, c, 1000 + i);
    Tensor want_a = frozen_a.ClassLogits(series.Reshape({1, t, c}))
                        .Reshape({config.num_classes});
    Tensor want_b = frozen_b.ClassLogits(series.Reshape({1, t, c}))
                        .Reshape({config.num_classes});

    InferenceRequest to_a;
    to_a.series = series;
    to_a.model_id = id_a;
    InferenceResponse from_a = engine.Run(std::move(to_a));
    ASSERT_TRUE(from_a.status.ok());
    EXPECT_EQ(from_a.model_id, id_a);
    EXPECT_TRUE(BitEqual(from_a.output, want_a)) << "model A misrouted";

    // Same series bytes, different model: the cache must NOT alias — the
    // fingerprint in the key separates the entries.
    InferenceRequest to_b;
    to_b.series = series;
    to_b.model_id = id_b;
    InferenceResponse from_b = engine.Run(std::move(to_b));
    ASSERT_TRUE(from_b.status.ok());
    EXPECT_TRUE(BitEqual(from_b.output, want_b)) << "model B misrouted";
    EXPECT_FALSE(BitEqual(from_a.output, from_b.output));
  }

  // Replays hit per-model entries and stay separated. Admission is on second
  // sighting: the first replay pass computes and inserts, the second hits.
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kRequests; ++i) {
      InferenceRequest replay;
      replay.series = MakeSeries(t, c, 1000 + i);
      replay.model_id = id_b;
      InferenceResponse response = engine.Run(std::move(replay));
      ASSERT_TRUE(response.status.ok());
      EXPECT_EQ(response.cache_hit, pass == 1);
      EXPECT_TRUE(BitEqual(
          response.output,
          frozen_b.ClassLogits(MakeSeries(t, c, 1000 + i).Reshape({1, t, c}))
              .Reshape({config.num_classes})));
    }
  }

  // Unknown model ids are invalid-rejections, counted in the split.
  InferenceRequest unknown;
  unknown.series = MakeSeries(t, c, 2000);
  unknown.model_id = 7;
  EXPECT_EQ(engine.Run(std::move(unknown)).status.code(),
            StatusCode::kInvalidArgument);

  const InferenceEngineStats total = engine.stats();
  EXPECT_EQ(total.rejected_invalid, 1u);
  EXPECT_EQ(total.completed, static_cast<uint64_t>(4 * kRequests));
  const InferenceEngineStats stats_a = engine.model_stats(id_a);
  const InferenceEngineStats stats_b = engine.model_stats(id_b);
  EXPECT_EQ(stats_a.completed, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats_b.completed, static_cast<uint64_t>(3 * kRequests));
  EXPECT_EQ(stats_b.cache_hits, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats_a.cache_hits, 0u);
  // The unknown model's rejection belongs to no model.
  EXPECT_EQ(stats_a.rejected_invalid, 0u);
  EXPECT_EQ(stats_b.rejected_invalid, 0u);
}

}  // namespace
}  // namespace serve
}  // namespace rita
