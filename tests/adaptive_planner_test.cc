// Tests for the telemetry-driven adaptive batch planner: the robust online
// fit primitive, cold-start seed fidelity, convergence toward a synthetic
// cost model, conservatism (no telemetry can push a plan past the memory
// safety ceiling), hysteresis (a single outlier sample does not move the
// plan), hopeless-deadline shedding at engine admission, and concurrent
// telemetry ingestion during scheduling (run under RITA_SANITIZE=thread in
// CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "serve/adaptive_planner.h"
#include "serve/inference_engine.h"
#include "serve/telemetry.h"
#include "util/rng.h"

namespace rita {
namespace serve {
namespace {

core::EncoderShape SmallShape() {
  core::EncoderShape s;
  s.layers = 4;
  s.dim = 32;
  s.heads = 2;
  s.ffn_hidden = 64;
  s.window = 5;
  s.stride = 5;
  s.channels = 3;
  s.kind = attn::AttentionKind::kGroup;
  return s;
}

/// Analytic seed over a device sized so that the training-accounted plan at
/// (kLength, kGroups) is deliberately small — the conservative baseline the
/// adaptive planner should beat once telemetry confirms capacity.
constexpr int64_t kLength = 100;
constexpr int64_t kGroups = 8;

core::BatchPlannerOptions SeedOptions() {
  core::BatchPlannerOptions opts;
  opts.max_length = 128;
  opts.num_samples = 48;
  return opts;
}

core::MemoryModel TightMemoryModel(int64_t analytic_batch) {
  core::EncoderShape shape = SmallShape();
  core::MemoryModel probe(shape);
  // Capacity chosen so `analytic_batch` is about the feasible training batch
  // at the reference point (0.9 fraction, like the planner default) — but
  // never below what Calibrate needs: every sample point (any L <=
  // max_length, N <= tokens(L)) must fit at batch 1 or the probe aborts.
  const double tight =
      probe.PeakBytes(analytic_batch, kLength, kGroups) / 0.9 * 1.01;
  const int64_t lmax = SeedOptions().max_length;
  const double calibration_floor =
      probe.PeakBytes(1, lmax, shape.Tokens(lmax)) / 0.9 * 1.05;
  core::MemoryModelOptions mm;
  mm.capacity_bytes = std::max(tight, calibration_floor);
  return core::MemoryModel(shape, mm);
}

// -- telemetry primitives ----------------------------------------------------

TEST(TelemetryTest, LengthBucketIsEnclosingPowerOfTwo) {
  EXPECT_EQ(LengthBucket(1), 1);
  EXPECT_EQ(LengthBucket(2), 2);
  EXPECT_EQ(LengthBucket(3), 4);
  EXPECT_EQ(LengthBucket(60), 64);
  EXPECT_EQ(LengthBucket(64), 64);
  EXPECT_EQ(LengthBucket(65), 128);
  EXPECT_EQ(LengthBucket(200), 256);
}

TEST(TelemetryTest, RssProbeReportsPlausibleResidency) {
  const int64_t rss = CurrentRssBytes();
  const int64_t peak = PeakRssBytes();
#if defined(__linux__)
  // The test process certainly holds more than a megabyte and less than a
  // terabyte; peak can never undercut current residency.
  EXPECT_GT(rss, 1 << 20);
  EXPECT_LT(rss, int64_t{1} << 40);
  EXPECT_GE(peak, rss / 2);  // ru_maxrss granularity slack
#else
  EXPECT_GE(rss, 0);
  EXPECT_GE(peak, 0);
#endif
}

TEST(OnlineLinearFitTest, RecoversPlantedLine) {
  OnlineLinearFit fit(/*decay=*/0.05, /*outlier_factor=*/4.0);
  Rng rng(17);
  for (int i = 0; i < 400; ++i) {
    const double x = 1.0 + rng.UniformInt(32);
    fit.Add(x, 3.0 + 0.5 * x);
  }
  ASSERT_TRUE(fit.ready());
  EXPECT_NEAR(fit.slope(), 0.5, 0.02);
  EXPECT_NEAR(fit.intercept(), 3.0, 0.3);
  EXPECT_NEAR(fit.Predict(16.0), 11.0, 0.3);
}

TEST(OnlineLinearFitTest, SingleOutlierIsClampedNotAbsorbed) {
  OnlineLinearFit fit(0.05, 4.0);
  Rng rng(23);
  for (int i = 0; i < 300; ++i) {
    const double x = 1.0 + rng.UniformInt(16);
    fit.Add(x, 2.0 + 1.0 * x + 0.05 * (rng.Uniform() - 0.5));
  }
  const double before = fit.Predict(8.0);
  EXPECT_TRUE(fit.Add(8.0, 500.0)) << "wild sample must be flagged as outlier";
  const double after = fit.Predict(8.0);
  // Unclamped, one 500ms sample at decay 0.05 would drag the prediction by
  // ~0.05 * (500 - 10) = ~25ms. Clamped, the move stays within the robust
  // envelope's epsilon.
  EXPECT_LT(std::fabs(after - before), 1.0);
}

TEST(OnlineLinearFitTest, ConstantXNeverReady) {
  OnlineLinearFit fit(0.05, 4.0);
  for (int i = 0; i < 50; ++i) fit.Add(4.0, 10.0);
  EXPECT_FALSE(fit.ready()) << "slope is indeterminate without distinct x";
}

// -- adaptive planner --------------------------------------------------------

core::BatchTelemetry Sample(int64_t batch, double compute_ms,
                            int64_t rss_bytes = 0, int64_t model_id = 0) {
  core::BatchTelemetry s;
  s.model_id = model_id;
  s.task = 0;
  s.length = kLength;
  s.groups = kGroups;
  s.batch = batch;
  s.compute_ms = compute_ms;
  s.peak_rss_bytes = rss_bytes;
  return s;
}

TEST(AdaptivePlannerTest, ColdStartMatchesAnalyticSeed) {
  core::MemoryModel memory = TightMemoryModel(4);
  core::BatchPlanner seed(memory, SeedOptions());
  Rng rng(31);
  seed.Calibrate(&rng);

  AdaptivePlanner planner(&seed);
  EXPECT_TRUE(planner.calibrated());
  for (int64_t length : {20, 60, 100}) {
    EXPECT_EQ(planner.PlanBatch(0, 0, length, kGroups),
              seed.PredictBatchSize(length, kGroups))
        << "cold planner must answer exactly like its seed at length " << length;
  }
  EXPECT_EQ(planner.EstimateComputeMs(0, 0, kLength, 1), 0.0)
      << "no telemetry, no latency estimate";
}

TEST(AdaptivePlannerTest, ForwardOnlyCeilingExceedsTrainingPlan) {
  core::MemoryModel memory = TightMemoryModel(4);
  core::BatchPlanner seed(memory, SeedOptions());
  Rng rng(31);
  seed.Calibrate(&rng);
  AdaptivePlanner planner(&seed);
  // Forward-only accounting on the same device admits strictly more than the
  // training-accounted analytic plan (backward_multiplier 2.0 => ~3x).
  EXPECT_GT(planner.SafetyCeiling(kLength, kGroups),
            seed.PredictBatchSize(kLength, kGroups));
}

TEST(AdaptivePlannerTest, ConvergesTowardSyntheticCostModel) {
  core::MemoryModel memory = TightMemoryModel(4);
  core::BatchPlanner seed(memory, SeedOptions());
  Rng rng(31);
  seed.Calibrate(&rng);

  // True serving cost: compute_ms = 2 + 0.75 * B. With a 10ms target the
  // optimal batch is floor((10 - 2) / 0.75) = 10.
  const double true_a = 2.0, true_b = 0.75, target_ms = 10.0;
  AdaptivePlannerOptions opts;
  opts.target_batch_ms = target_ms;
  AdaptivePlanner planner(&seed, opts);
  const int64_t ceiling = planner.SafetyCeiling(kLength, kGroups);
  const int64_t expected =
      std::min(ceiling, static_cast<int64_t>((target_ms - true_a) / true_b));

  // Closed loop: each "batch" runs at the planner's current plan, with the
  // natural ragged tail (plan - 1) mixing in distinct batch sizes, and its
  // measured latency is fed back.
  Rng noise(5);
  for (int round = 0; round < 200; ++round) {
    const int64_t plan = planner.PlanBatch(0, 0, kLength, kGroups);
    const int64_t b = (round % 3 == 2) ? std::max<int64_t>(1, plan - 1) : plan;
    const double jitter = 0.05 * (noise.Uniform() - 0.5);
    planner.Observe(Sample(b, true_a + true_b * static_cast<double>(b) + jitter));
  }

  const int64_t converged = planner.PlanBatch(0, 0, kLength, kGroups);
  EXPECT_GT(converged, seed.PredictBatchSize(kLength, kGroups))
      << "telemetry should have lifted the plan above the conservative seed";
  EXPECT_GE(converged, expected - 2);
  EXPECT_LE(converged, expected + 2);
  EXPECT_LE(converged, ceiling);

  // The latency estimate the admission shedder consults matches the truth.
  const double eta = planner.EstimateComputeMs(0, 0, kLength, 1);
  EXPECT_NEAR(eta, true_a + true_b, 1.0);
}

TEST(AdaptivePlannerTest, NeverExceedsSafetyCeiling) {
  core::MemoryModel memory = TightMemoryModel(2);
  core::BatchPlanner seed(memory, SeedOptions());
  Rng rng(31);
  seed.Calibrate(&rng);
  AdaptivePlanner planner(&seed);  // no latency target: plan rises freely
  const int64_t ceiling = planner.SafetyCeiling(kLength, kGroups);

  // Adversarially rosy telemetry: huge batches, microsecond latencies, tiny
  // RSS — everything screams "go bigger".
  for (int round = 0; round < 300; ++round) {
    planner.Observe(Sample(1 + (round % 64), 0.001, /*rss_bytes=*/1 << 20));
  }
  const int64_t plan = planner.PlanBatch(0, 0, kLength, kGroups);
  EXPECT_LE(plan, ceiling) << "no telemetry may push a plan past the ceiling";
  EXPECT_GT(plan, seed.PredictBatchSize(kLength, kGroups))
      << "with confirming telemetry the plan should reach past the seed";

  const AdaptivePlanner::Snapshot snapshot = planner.ModelSnapshot(0);
  EXPECT_LE(snapshot.plan, snapshot.ceiling);
  // Bucket state probes its ceiling at the bucket's UPPER bound — at least
  // as conservative as the raw-length ceiling, and exactly the bound probed
  // at LengthBucket(kLength).
  EXPECT_LE(snapshot.ceiling, ceiling);
  EXPECT_EQ(snapshot.ceiling,
            planner.SafetyCeiling(LengthBucket(kLength), kGroups));
  EXPECT_GE(snapshot.samples, 300u);
}

TEST(AdaptivePlannerTest, SingleOutlierDoesNotMoveThePlan) {
  core::MemoryModel memory = TightMemoryModel(4);
  core::BatchPlanner seed(memory, SeedOptions());
  Rng rng(31);
  seed.Calibrate(&rng);
  AdaptivePlannerOptions opts;
  opts.target_batch_ms = 10.0;
  AdaptivePlanner planner(&seed, opts);

  Rng noise(9);
  for (int round = 0; round < 200; ++round) {
    const int64_t plan = planner.PlanBatch(0, 0, kLength, kGroups);
    const int64_t b = (round % 3 == 2) ? std::max<int64_t>(1, plan - 1) : plan;
    planner.Observe(Sample(b, 2.0 + 0.75 * static_cast<double>(b) +
                                  0.05 * (noise.Uniform() - 0.5)));
  }
  const int64_t settled = planner.PlanBatch(0, 0, kLength, kGroups);
  const uint64_t updates_before = planner.ModelSnapshot(0).plan_updates;

  // One wildly slow batch (host hiccup, page-cache miss storm): clamped by
  // the robust fit and absorbed by the hysteresis dead-band.
  planner.Observe(Sample(settled, 400.0));
  EXPECT_EQ(planner.PlanBatch(0, 0, kLength, kGroups), settled)
      << "a single outlier sample moved the published plan";
  EXPECT_EQ(planner.ModelSnapshot(0).plan_updates, updates_before);
  EXPECT_GE(planner.ModelSnapshot(0).outliers, 1u);
}

TEST(AdaptivePlannerTest, MeasuredRssCapBoundsThePlan) {
  core::MemoryModel memory = TightMemoryModel(4);
  core::BatchPlanner seed(memory, SeedOptions());
  Rng rng(31);
  seed.Calibrate(&rng);

  AdaptivePlannerOptions opts;
  opts.rss_budget_bytes = 100 << 20;  // 100 MB measured-memory budget
  AdaptivePlanner planner(&seed, opts);
  const int64_t ceiling = planner.SafetyCeiling(kLength, kGroups);

  // Measured residency: 40 MB static + 10 MB per batch row => the budget
  // admits floor((100 - 40) / 10) = 6 rows, far below the analytic ceiling.
  Rng noise(13);
  for (int round = 0; round < 200; ++round) {
    const int64_t b = 1 + (round % 8);
    const int64_t rss =
        (int64_t{40} << 20) + b * (int64_t{10} << 20) +
        static_cast<int64_t>(1e5 * (noise.Uniform() - 0.5));
    planner.Observe(Sample(b, 0.5 + 0.1 * static_cast<double>(b), rss));
  }
  const int64_t plan = planner.PlanBatch(0, 0, kLength, kGroups);
  EXPECT_LE(plan, 7) << "measured-RSS budget must bound the plan";
  EXPECT_LE(plan, ceiling);
}

TEST(AdaptivePlannerTest, ConcurrentIngestionDuringPlanning) {
  core::MemoryModel memory = TightMemoryModel(4);
  core::BatchPlanner seed(memory, SeedOptions());
  Rng rng(31);
  seed.Calibrate(&rng);
  AdaptivePlanner planner(&seed);
  const int64_t ceiling = planner.SafetyCeiling(kLength, kGroups);

  // 4 executor-like writers ingest telemetry while 4 scheduler-like readers
  // plan, estimate and snapshot. TSan (CI) proves the synchronization; the
  // assertions prove the invariants hold mid-flight.
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&planner, w] {
      Rng noise(100 + w);
      for (int i = 0; i < 500; ++i) {
        const int64_t b = 1 + noise.UniformInt(16);
        planner.Observe(Sample(b, 1.0 + 0.5 * static_cast<double>(b),
                               (int64_t{30} << 20) + b * (1 << 20),
                               /*model_id=*/w % 2));
      }
    });
  }
  std::atomic<int64_t> max_seen{0};
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&planner, &stop, &max_seen, r] {
      while (!stop.load(std::memory_order_acquire)) {
        const int64_t plan = planner.PlanBatch(r % 2, 0, kLength, kGroups);
        int64_t prev = max_seen.load(std::memory_order_relaxed);
        while (plan > prev &&
               !max_seen.compare_exchange_weak(prev, plan,
                                               std::memory_order_relaxed)) {
        }
        planner.EstimateComputeMs(r % 2, 0, kLength, 1);
        planner.ModelSnapshot(-1);
      }
    });
  }
  for (int w = 0; w < 4; ++w) threads[static_cast<size_t>(w)].join();
  stop.store(true, std::memory_order_release);
  for (size_t i = 4; i < threads.size(); ++i) threads[i].join();

  EXPECT_LE(max_seen.load(), ceiling)
      << "a mid-flight plan escaped the safety ceiling";
  const AdaptivePlanner::Snapshot all = planner.ModelSnapshot(-1);
  EXPECT_EQ(all.samples, 4u * 500u);
}

// -- engine integration ------------------------------------------------------

model::RitaConfig EngineConfig() {
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

struct EngineFixture {
  model::RitaConfig config = EngineConfig();
  std::unique_ptr<model::RitaModel> model;
  std::unique_ptr<FrozenModel> frozen;
  core::MemoryModel memory;
  core::BatchPlanner seed;
  AdaptivePlanner planner;

  explicit EngineFixture(const AdaptivePlannerOptions& opts = {})
      // `config` is declared first, so its MemoryShape() — the canonical
      // config-to-shape mapping — can seed `memory` here.
      : memory(config.MemoryShape()),
        seed(memory, EngineSeedOptions()),
        planner(&seed, opts) {
    Rng rng(77);
    model = std::make_unique<model::RitaModel>(config, &rng);
    frozen = std::make_unique<FrozenModel>(*model);
    Rng calib(3);
    seed.Calibrate(&calib);
  }

  static core::BatchPlannerOptions EngineSeedOptions() {
    core::BatchPlannerOptions opts;
    opts.max_length = 64;
    opts.num_samples = 32;
    return opts;
  }
};

TEST(AdaptiveEngineTest, TelemetryFlowsAndStatsSurfacePlannerState) {
  EngineFixture fx;
  // Calibrate() must run before the engine takes the planner.
  ASSERT_TRUE(fx.planner.calibrated());
  InferenceEngineOptions options;
  options.num_workers = 2;
  options.max_micro_batch = 8;
  options.cache_bytes = 0;  // every request computes => every batch observes
  options.planner = &fx.planner;
  InferenceEngine engine(fx.frozen.get(), options);

  std::vector<std::future<InferenceResponse>> futures;
  for (int i = 0; i < 48; ++i) {
    InferenceRequest request;
    request.series = MakeSeries(60, 2, 1000 + static_cast<uint64_t>(i));
    futures.push_back(engine.Submit(std::move(request)));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());

  const InferenceEngineStats stats = engine.stats();
  EXPECT_GE(stats.planner_samples, stats.batches)
      << "every executed batch must reach the planner";
  EXPECT_GT(stats.planner_ceiling, 0);
  EXPECT_GT(stats.planner_batch, 0);
  EXPECT_LE(stats.planner_batch, stats.planner_ceiling);
  // Per-model view mirrors the aggregate for a single-model engine.
  EXPECT_EQ(engine.model_stats(0).planner_samples, stats.planner_samples);
}

TEST(AdaptiveEngineTest, HopelessDeadlinesShedAtAdmission) {
  EngineFixture fx;
  InferenceEngineOptions options;
  options.num_workers = 1;
  options.max_micro_batch = 4;
  options.cache_bytes = 0;
  options.planner = &fx.planner;
  InferenceEngine engine(fx.frozen.get(), options);

  // Warm the planner's latency estimate for this (model, task, bucket) with
  // VARIED batch sizes (a constant size leaves the latency slope
  // indeterminate). The samples are injected with a fixed cost linear in the
  // batch, so the fit cannot land at <= 0 on a contended host.
  for (int round = 0; round < 12; ++round) {
    core::BatchTelemetry sample;
    sample.model_id = 0;
    sample.task = 0;
    sample.length = 60;
    sample.groups = fx.frozen->num_groups();
    sample.batch = 2 + round % 3;  // 2, 3, 4
    sample.compute_ms = 1.0 + 0.5 * static_cast<double>(sample.batch);
    fx.planner.Observe(sample);
  }
  ASSERT_GT(fx.planner.EstimateComputeMs(0, 0, 60, 1), 0.0)
      << "estimate must be live before the shed can trigger";

  // A deadline already in the past cannot be met by any schedule.
  InferenceRequest hopeless;
  hopeless.series = MakeSeries(60, 2, 3000);
  hopeless.deadline = ServeClock::now() - std::chrono::milliseconds(5);
  const InferenceResponse shed = engine.Run(std::move(hopeless));
  EXPECT_EQ(shed.status.code(), StatusCode::kDeadlineUnmeetable);

  // A comfortably future deadline still serves.
  InferenceRequest fine;
  fine.series = MakeSeries(60, 2, 3001);
  fine.deadline = ServeClock::now() + std::chrono::seconds(30);
  EXPECT_TRUE(engine.Run(std::move(fine)).status.ok());

  const InferenceEngineStats stats = engine.stats();
  EXPECT_EQ(stats.rejected_hopeless, 1u);
  EXPECT_EQ(stats.rejected_invalid, 0u);
  EXPECT_EQ(stats.rejected_backpressure, 0u);
  EXPECT_EQ(engine.model_stats(0).rejected_hopeless, 1u);
}

TEST(AdaptiveEngineTest, NoDeadlineNeverShedsAndColdPlannerNeverSheds) {
  EngineFixture fx;
  InferenceEngineOptions options;
  options.num_workers = 1;
  options.cache_bytes = 0;
  options.planner = &fx.planner;  // cold: no telemetry yet
  InferenceEngine engine(fx.frozen.get(), options);

  // Cold planner => estimate 0 => even a past deadline is admitted (the
  // engine has no evidence it cannot be met; deadlines stay scheduling
  // hints until telemetry says otherwise).
  InferenceRequest cold;
  cold.series = MakeSeries(60, 2, 4000);
  cold.deadline = ServeClock::now() - std::chrono::milliseconds(5);
  EXPECT_TRUE(engine.Run(std::move(cold)).status.ok());
  EXPECT_EQ(engine.stats().rejected_hopeless, 0u);
}

TEST(AdaptiveEngineTest, ConcurrentClientsWithAdaptivePlannerStayCorrect) {
  EngineFixture fx;
  InferenceEngineOptions options;
  options.num_workers = 2;
  options.max_micro_batch = 8;
  options.cache_bytes = 0;
  options.planner = &fx.planner;
  InferenceEngine engine(fx.frozen.get(), options);

  // Reference outputs from a solo engine without a planner.
  const int kDistinct = 8;
  std::vector<Tensor> want(kDistinct);
  {
    InferenceEngineOptions solo;
    solo.num_workers = 1;
    solo.cache_bytes = 0;
    InferenceEngine reference(fx.frozen.get(), solo);
    for (int i = 0; i < kDistinct; ++i) {
      InferenceRequest request;
      request.series = MakeSeries(60, 2, 5000 + static_cast<uint64_t>(i));
      InferenceResponse response = reference.Run(std::move(request));
      ASSERT_TRUE(response.status.ok());
      want[static_cast<size_t>(i)] = response.output;
    }
  }

  // 8 clients hammer the adaptive engine; every output must stay
  // bit-identical to the solo path while telemetry ingestion runs under the
  // executors' feet (TSan-checked in CI).
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 24; ++i) {
        const int64_t idx = (c + i) % kDistinct;
        InferenceRequest request;
        request.series = MakeSeries(60, 2, 5000 + static_cast<uint64_t>(idx));
        const InferenceResponse response = engine.Run(std::move(request));
        if (!response.status.ok() ||
            std::memcmp(response.output.data(),
                        want[static_cast<size_t>(idx)].data(),
                        sizeof(float) * response.output.numel()) != 0) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const InferenceEngineStats stats = engine.stats();
  EXPECT_GE(stats.planner_samples, stats.batches);
  EXPECT_LE(stats.planner_batch, stats.planner_ceiling);
}

}  // namespace
}  // namespace serve
}  // namespace rita
