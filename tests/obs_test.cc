// Tests for rita::obs and its integration with the serving stack: histogram
// quantile accuracy and bucket-boundary behavior, snapshot merge/subtract
// algebra, lock-free counter convergence under threads, the Prometheus
// exposition, per-model vs aggregate EngineStats consistency under
// concurrent multi-model load (run under RITA_SANITIZE=thread in CI),
// ResetStatsWindow semantics, the periodic stats logger, and the trace
// layer: sampling, bounded rings, Chrome dump contents, and bitwise
// neutrality of tracing on the engine's outputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "serve/frozen_model.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "util/execution_context.h"
#include "util/thread_pool.h"

namespace rita {
namespace obs {
namespace {

using serve::FrozenModel;
using serve::InferenceEngine;
using serve::InferenceEngineOptions;
using serve::InferenceEngineStats;
using serve::InferenceRequest;
using serve::InferenceResponse;
using serve::ModelRegistry;
using serve::ServeTask;

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
  config.encoder.dropout = 0.1f;
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
// Histogram core.

TEST(HistogramTest, CountSumAndQuantilesOnUniform) {
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.Observe(static_cast<double>(v));
  EXPECT_EQ(h.Count(), 1000u);
  EXPECT_NEAR(h.Sum(), 500500.0, 1e-6);
  EXPECT_DOUBLE_EQ(h.Max(), 1000.0);
  // Log-linear buckets bound relative error by the sub-bucket width (6.25%);
  // interpolation keeps it well inside that on a uniform distribution.
  EXPECT_NEAR(h.Quantile(0.5), 500.0, 500.0 * 0.08);
  EXPECT_NEAR(h.Quantile(0.95), 950.0, 950.0 * 0.08);
  EXPECT_NEAR(h.Quantile(0.99), 990.0, 990.0 * 0.08);
  EXPECT_LE(h.Quantile(1.0), 1024.0 + 1e-9);  // upper edge of 1000's bucket
  EXPECT_GE(h.Quantile(1.0), 1000.0 * (1.0 - 1e-9));
}

TEST(HistogramTest, BucketEdgesContainTheirValues) {
  // Every representative value must land in a bucket whose [lower, upper)
  // range contains it — including exact bucket-boundary values, which belong
  // to the bucket they open.
  for (int e = -10; e < 21; ++e) {
    for (int sub = 0; sub < 16; ++sub) {
      const double edge = std::ldexp(1.0 + sub / 16.0, e);
      for (double v : {edge, std::nextafter(edge, 1e30), edge * 1.001}) {
        const int idx = HistogramLayout::Index(v);
        EXPECT_GE(v, HistogramLayout::LowerEdge(idx))
            << "v=" << v << " idx=" << idx;
        EXPECT_LT(v, HistogramLayout::UpperEdge(idx))
            << "v=" << v << " idx=" << idx;
      }
    }
  }
  // Zero/negative/NaN land in the zero bucket; tiny underflow clamps into
  // the first finite bucket; overflow lands in the +Inf bucket.
  EXPECT_EQ(HistogramLayout::Index(0.0), 0);
  EXPECT_EQ(HistogramLayout::Index(-3.5), 0);
  EXPECT_EQ(HistogramLayout::Index(std::nan("")), 0);
  EXPECT_EQ(HistogramLayout::Index(1e-9), 1);
  EXPECT_EQ(HistogramLayout::Index(std::ldexp(1.0, 25)),
            HistogramLayout::kNumBuckets - 1);
}

TEST(HistogramTest, BoundaryValueQuantileStaysInItsBucket) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Observe(2.0);  // exact octave boundary
  const double q50 = h.Quantile(0.5);
  EXPECT_GE(q50, 2.0);
  EXPECT_LT(q50, 2.0 * (1.0 + 1.0 / 16.0));
}

TEST(HistogramTest, OverflowAndZeroQuantiles) {
  Histogram h;
  h.Observe(0.0);
  h.Observe(-1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  const double huge = std::ldexp(1.0, 23);  // past the top octave
  h.Observe(huge);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), huge);  // overflow bucket reports max
}

TEST(HistogramTest, MergeEqualsCombinedStream) {
  Histogram odds, evens, combined;
  for (int v = 1; v <= 2000; ++v) {
    combined.Observe(0.25 * v);
    (v % 2 ? odds : evens).Observe(0.25 * v);
  }
  Histogram merged;
  merged.MergeFrom(odds);
  merged.MergeFrom(evens);
  const HistogramSnapshot a = merged.Snapshot();
  const HistogramSnapshot b = combined.Snapshot();
  ASSERT_EQ(a.Count(), b.Count());
  EXPECT_EQ(a.bucket_counts(), b.bucket_counts());
  EXPECT_NEAR(a.Sum(), b.Sum(), 1e-9 * b.Sum());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.Quantile(q), b.Quantile(q)) << "q=" << q;
  }
}

TEST(HistogramTest, SnapshotMergeAndSubtractAlgebra) {
  Histogram h;
  for (int v = 1; v <= 100; ++v) h.Observe(1.0 * v);
  const HistogramSnapshot base = h.Snapshot();
  for (int v = 1; v <= 50; ++v) h.Observe(1000.0);
  HistogramSnapshot now = h.Snapshot();
  now.SubtractBase(base);
  EXPECT_EQ(now.Count(), 50u);
  EXPECT_NEAR(now.Sum(), 50000.0, 1e-6);
  // The windowed view contains only the 1000ms observations.
  EXPECT_GE(now.Quantile(0.01), 1000.0 * (1.0 - 1.0 / 16.0));

  HistogramSnapshot merged = now;
  merged.MergeFrom(base);
  EXPECT_EQ(merged.Count(), 150u);
}

// The registry-level window: SubtractBase over two Collect() snapshots.
TEST(RegistryTest, SubtractBaseWindowsCountersAndHistogramsOnly) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("w_total", "c", {{"model", "0"}});
  Histogram* hist = registry.GetHistogram("w_ms", "h");
  Gauge* gauge = registry.GetGauge("w_depth", "g");
  MaxGauge* max_gauge = registry.GetMaxGauge("w_max", "m");
  counter->Add(5);
  hist->Observe(1.0);
  hist->Observe(2.0);
  gauge->Set(7.0);
  max_gauge->Observe(9.0);
  const auto base = registry.Collect();

  counter->Add(3);
  hist->Observe(1000.0);
  gauge->Set(4.0);
  max_gauge->Observe(11.0);
  // Registered after the base: no base instance, passes through whole.
  registry.GetCounter("w_total", "c", {{"model", "1"}})->Add(6);

  const auto window = SubtractBase(registry.Collect(), base);
  std::map<std::string, const MetricsRegistry::FamilySnapshot*> by_name;
  for (const auto& family : window) by_name[family.name] = &family;
  ASSERT_EQ(by_name.size(), 4u);

  const auto& counters = by_name["w_total"]->instances;
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].labels, (LabelSet{{"model", "0"}}));
  EXPECT_EQ(counters[0].value, 3.0);
  EXPECT_EQ(counters[1].labels, (LabelSet{{"model", "1"}}));
  EXPECT_EQ(counters[1].value, 6.0);

  const HistogramSnapshot& windowed = by_name["w_ms"]->instances[0].hist;
  EXPECT_EQ(windowed.Count(), 1u);
  EXPECT_EQ(windowed.Sum(), 1000.0);
  for (int i = 0; i < HistogramLayout::kNumBuckets; ++i) {
    const uint64_t want = i == HistogramLayout::Index(1000.0) ? 1u : 0u;
    EXPECT_EQ(windowed.bucket_counts()[i], want) << "bucket " << i;
  }

  // Gauges and max-gauges are readings, not totals: they pass through.
  EXPECT_EQ(by_name["w_depth"]->instances[0].value, 4.0);
  EXPECT_EQ(by_name["w_max"]->instances[0].value, 11.0);

  // A base ahead of the current reading saturates at zero.
  const auto ahead = SubtractBase(base, registry.Collect());
  for (const auto& family : ahead) {
    if (family.name == "w_total") {
      EXPECT_EQ(family.instances[0].value, 0.0);
    }
    if (family.name == "w_ms") {
      EXPECT_EQ(family.instances[0].hist.Count(), 0u);
      EXPECT_EQ(family.instances[0].hist.Sum(), 0.0);
    }
  }
}

TEST(CounterTest, ConvergesUnderConcurrentAdds) {
  Counter c;
  Gauge g;
  MaxGauge m;
  constexpr int kThreads = 8;
  constexpr int kAdds = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &m, t] {
      for (int i = 0; i < kAdds; ++i) {
        c.Add(1);
        m.Observe(static_cast<double>(t * kAdds + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  g.Set(3.5);
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kAdds);
  EXPECT_DOUBLE_EQ(m.Value(), static_cast<double>(kThreads * kAdds - 1));
  EXPECT_DOUBLE_EQ(g.Value(), 3.5);
  m.Reset();
  EXPECT_DOUBLE_EQ(m.Value(), 0.0);
}

TEST(RegistryTest, SameNameAndLabelsResolveToOneInstance) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("hits", "h", {{"model", "0"}});
  Counter* b = registry.GetCounter("hits", "h", {{"model", "0"}});
  Counter* other = registry.GetCounter("hits", "h", {{"model", "1"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
  a->Add(2);
  other->Add(5);
  const auto families = registry.Collect();
  ASSERT_EQ(families.size(), 1u);
  EXPECT_EQ(families[0].name, "hits");
  ASSERT_EQ(families[0].instances.size(), 2u);
  EXPECT_DOUBLE_EQ(families[0].instances[0].value +
                       families[0].instances[1].value,
                   7.0);
}

TEST(PrometheusTest, RendersCountersGaugesAndHistograms) {
  MetricsRegistry registry;
  registry.GetCounter("rita_test_total", "a counter", {{"model", "0"}})->Add(4);
  registry.GetGauge("rita_test_depth", "a gauge")->Set(2.5);
  Histogram* h = registry.GetHistogram("rita_test_ms", "a histogram");
  h->Observe(1.0);
  h->Observe(2.0);
  h->Observe(1000000.0);  // overflow bucket: only +Inf covers it
  const std::string text = PrometheusText(registry);
  EXPECT_NE(text.find("# TYPE rita_test_total counter"), std::string::npos);
  EXPECT_NE(text.find("rita_test_total{model=\"0\"} 4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rita_test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("rita_test_depth 2.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rita_test_ms histogram"), std::string::npos);
  // 1.0 opens the [1, 1.0625) bucket, whose upper edge renders as 1.0625.
  EXPECT_NE(text.find("rita_test_ms_bucket{le=\"1.0625\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("rita_test_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("rita_test_ms_count 3"), std::string::npos);
  EXPECT_NE(text.find("rita_test_ms_sum 1000003"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine integration.

// Satellite: sum of model_stats(i) counters equals aggregate stats() under
// concurrent multi-model load. Exact for integer counters; the double sums
// only differ by FP summation order.
TEST(EngineObsTest, PerModelStatsSumToAggregateUnderLoad) {
  model::RitaConfig config = SmallConfig();
  Rng rng_a(11), rng_b(12);
  model::RitaModel source_a(config, &rng_a), source_b(config, &rng_b);
  FrozenModel frozen_a(source_a), frozen_b(source_b);
  ModelRegistry registry;
  registry.Register("a", &frozen_a);
  registry.Register("b", &frozen_b);

  InferenceEngineOptions options;
  options.num_workers = 3;
  options.max_micro_batch = 8;
  InferenceEngine engine(&registry, options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 24;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&engine, &ok, t] {
      for (int i = 0; i < kPerThread; ++i) {
        InferenceRequest request;
        // Some duplicate series (seed modulo) so cache hits are exercised;
        // every completion path must keep the per-model split consistent.
        request.series = MakeSeries(60, 2, static_cast<uint64_t>(i % 16));
        request.task = ServeTask::kClassify;
        request.model_id = (t + i) % 2;
        const InferenceResponse response = engine.Run(std::move(request));
        if (response.status.ok()) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_EQ(ok.load(), kThreads * kPerThread);

  const InferenceEngineStats agg = engine.stats();
  const InferenceEngineStats m0 = engine.model_stats(0);
  const InferenceEngineStats m1 = engine.model_stats(1);
  EXPECT_EQ(agg.completed, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(agg.completed, m0.completed + m1.completed);
  EXPECT_EQ(agg.batches, m0.batches + m1.batches);
  EXPECT_EQ(agg.cache_hits, m0.cache_hits + m1.cache_hits);
  EXPECT_EQ(agg.cache_misses, m0.cache_misses + m1.cache_misses);
  EXPECT_EQ(agg.deadline_missed, m0.deadline_missed + m1.deadline_missed);
  EXPECT_EQ(agg.forward_failures, m0.forward_failures + m1.forward_failures);
  EXPECT_GE(agg.max_micro_batch,
            std::max(m0.max_micro_batch, m1.max_micro_batch));
  const double sum_compute = m0.total_compute_ms + m1.total_compute_ms;
  EXPECT_NEAR(agg.total_compute_ms, sum_compute,
              1e-6 * std::max(1.0, sum_compute));
  const double sum_queue = m0.total_queue_ms + m1.total_queue_ms;
  EXPECT_NEAR(agg.total_queue_ms, sum_queue, 1e-6 * std::max(1.0, sum_queue));
}

TEST(EngineObsTest, PrometheusExportListsEveryEngineMetric) {
  model::RitaConfig config = SmallConfig();
  Rng rng(21);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);
  InferenceEngineOptions options;
  options.num_workers = 2;
  InferenceEngine engine(&frozen, options);
  for (int i = 0; i < 10; ++i) {
    InferenceRequest request;
    request.series = MakeSeries(60, 2, static_cast<uint64_t>(100 + i));
    request.task = ServeTask::kClassify;
    ASSERT_TRUE(engine.Run(std::move(request)).status.ok());
  }
  const std::string text = engine.PrometheusText();
  // Every EngineStats counter/sum/max family plus the new latency
  // histograms and snapshot gauges must appear in the exposition.
  for (const char* family :
       {"rita_requests_completed_total", "rita_requests_rejected_total",
        "rita_batches_total", "rita_cache_hits_total",
        "rita_cache_misses_total", "rita_deadline_missed_total",
        "rita_forward_failures_total", "rita_queue_latency_ms",
        "rita_compute_latency_ms", "rita_micro_batch_size",
        "rita_micro_batch_max", "rita_compute_latency_max_ms",
        "rita_queue_depth",
        "rita_in_flight_batches", "rita_cache_bytes", "rita_cache_entries",
        "rita_model_weight_bytes", "rita_model_precision"}) {
    EXPECT_NE(text.find(family), std::string::npos)
        << "missing metric family: " << family;
  }
  EXPECT_NE(text.find("rita_requests_completed_total{model=\"0\"} 10"),
            std::string::npos);
  // Histogram percentiles over the served load are queryable and sane.
  const HistogramSnapshot compute =
      engine.metrics()
          .GetHistogram("rita_compute_latency_ms", "", {{"model", "0"}})
          ->Snapshot();
  EXPECT_EQ(compute.Count(), 10u);  // one solo batch per sequential request
  EXPECT_GT(compute.Quantile(0.5), 0.0);
  EXPECT_LE(compute.Quantile(0.5), compute.Quantile(0.99));
  const HistogramSnapshot queue =
      engine.metrics()
          .GetHistogram("rita_queue_latency_ms", "", {{"model", "0"}})
          ->Snapshot();
  EXPECT_EQ(queue.Count(), 10u);
  EXPECT_LE(queue.Quantile(0.5), queue.Quantile(0.99));
}

TEST(EngineObsTest, ResetStatsWindowStartsAFreshInterval) {
  model::RitaConfig config = SmallConfig();
  Rng rng(31);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);
  InferenceEngineOptions options;
  options.num_workers = 1;
  InferenceEngine engine(&frozen, options);
  for (int i = 0; i < 5; ++i) {
    InferenceRequest request;
    request.series = MakeSeries(60, 2, static_cast<uint64_t>(200 + i));
    ASSERT_TRUE(engine.Run(std::move(request)).status.ok());
  }
  EXPECT_EQ(engine.stats().completed, 5u);
  EXPECT_EQ(engine.model_stats(0).completed, 5u);
  EXPECT_GT(engine.stats().max_micro_batch, 0);

  engine.ResetStatsWindow();
  const InferenceEngineStats windowed = engine.stats();
  EXPECT_EQ(windowed.completed, 0u);
  EXPECT_EQ(windowed.batches, 0u);
  EXPECT_EQ(windowed.max_micro_batch, 0);  // no longer a lifetime maximum
  EXPECT_DOUBLE_EQ(windowed.total_compute_ms, 0.0);
  EXPECT_EQ(engine.model_stats(0).completed, 0u);

  for (int i = 0; i < 2; ++i) {
    InferenceRequest request;
    request.series = MakeSeries(60, 2, static_cast<uint64_t>(300 + i));
    ASSERT_TRUE(engine.Run(std::move(request)).status.ok());
  }
  EXPECT_EQ(engine.stats().completed, 2u);
  EXPECT_EQ(engine.stats().max_micro_batch, 1);
  // The backing metrics stay cumulative for Prometheus scrapes.
  EXPECT_NE(engine.PrometheusText().find(
                "rita_requests_completed_total{model=\"0\"} 7"),
            std::string::npos);
}

// Each event is written once, to its model's instance: the exposition has no
// label-less aggregate next to the {model="<id>"} series (the one exception
// is the invalid rejection of a model_id no model owns), so summing a family
// over its instances gives the engine total.
TEST(EngineObsTest, ExpositionHasOneInstancePerModelAndSumsToStats) {
  model::RitaConfig config = SmallConfig();
  Rng rng_a(51), rng_b(52);
  model::RitaModel source_a(config, &rng_a), source_b(config, &rng_b);
  FrozenModel frozen_a(source_a), frozen_b(source_b);
  ModelRegistry registry;
  registry.Register("a", &frozen_a);
  registry.Register("b", &frozen_b);
  InferenceEngineOptions options;
  options.num_workers = 2;
  InferenceEngine engine(&registry, options);

  for (int i = 0; i < 6; ++i) {
    InferenceRequest request;
    request.series = MakeSeries(60, 2, static_cast<uint64_t>(500 + i));
    request.model_id = i % 2;
    ASSERT_TRUE(engine.Run(std::move(request)).status.ok());
  }
  for (int i = 0; i < 3; ++i) {  // the third identical submit hits
    InferenceRequest same;
    same.series = MakeSeries(60, 2, 600);
    same.model_id = 1;
    EXPECT_EQ(engine.Run(std::move(same)).cache_hit, i == 2);
  }
  InferenceRequest bad;
  bad.series = MakeSeries(3, 2, 601);  // shorter than one window
  EXPECT_FALSE(engine.Run(std::move(bad)).status.ok());
  InferenceRequest unknown;
  unknown.series = MakeSeries(60, 2, 602);
  unknown.model_id = 9;
  EXPECT_FALSE(engine.Run(std::move(unknown)).status.ok());

  const std::vector<std::string> per_model_families = {
      "rita_requests_completed_total", "rita_requests_rejected_total",
      "rita_batches_total",            "rita_cache_hits_total",
      "rita_cache_misses_total",       "rita_deadline_missed_total",
      "rita_forward_failures_total",   "rita_queue_latency_ms",
      "rita_compute_latency_ms",       "rita_micro_batch_size",
      "rita_micro_batch_max",          "rita_compute_latency_max_ms"};
  const InferenceEngineStats stats = engine.stats();
  const std::map<std::string, uint64_t> counter_totals = {
      {"rita_requests_completed_total", stats.completed},
      {"rita_requests_rejected_total",
       stats.rejected_invalid + stats.rejected_backpressure},
      {"rita_batches_total", stats.batches},
      {"rita_cache_hits_total", stats.cache_hits},
      {"rita_cache_misses_total", stats.cache_misses},
      {"rita_deadline_missed_total", stats.deadline_missed},
      {"rita_forward_failures_total", stats.forward_failures}};
  EXPECT_EQ(stats.completed, 9u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.rejected_invalid, 2u);

  std::map<std::string, double> summed;
  int unlabelled_rejections = 0;
  for (const auto& family : engine.CollectMetrics()) {
    const bool per_model =
        std::find(per_model_families.begin(), per_model_families.end(),
                  family.name) != per_model_families.end();
    if (!per_model) continue;
    for (const auto& inst : family.instances) {
      bool has_model = false;
      for (const auto& label : inst.labels) has_model |= label.first == "model";
      if (!has_model) {
        EXPECT_EQ(family.name, "rita_requests_rejected_total");
        EXPECT_EQ(inst.labels, (LabelSet{{"reason", "invalid"}}));
        EXPECT_EQ(inst.value, 1.0);  // the unknown model_id
        ++unlabelled_rejections;
      }
      summed[family.name] += inst.value;
    }
  }
  EXPECT_EQ(unlabelled_rejections, 1);
  for (const auto& [family, total] : counter_totals) {
    EXPECT_EQ(summed[family], static_cast<double>(total)) << family;
  }
  // The rendered text agrees: no bare aggregate sample line.
  const std::string text = engine.PrometheusText();
  EXPECT_EQ(text.find("\nrita_requests_completed_total "), std::string::npos);
  EXPECT_EQ(text.find("\nrita_batches_total "), std::string::npos);
}

TEST(EngineObsTest, StatsLoggerHookReceivesSnapshots) {
  model::RitaConfig config = SmallConfig();
  Rng rng(41);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);

  std::mutex mu;
  std::vector<InferenceEngineStats> snapshots;
  InferenceEngineOptions options;
  options.num_workers = 1;
  options.stats_log_interval_ms = 2.0;
  options.stats_log_hook = [&mu, &snapshots](const InferenceEngineStats& s) {
    std::lock_guard<std::mutex> lock(mu);
    snapshots.push_back(s);
  };
  {
    InferenceEngine engine(&frozen, options);
    for (int i = 0; i < 6; ++i) {
      InferenceRequest request;
      request.series = MakeSeries(60, 2, static_cast<uint64_t>(400 + i));
      ASSERT_TRUE(engine.Run(std::move(request)).status.ok());
    }
    engine.Shutdown();  // emits one final snapshot after joining the logger
  }
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_GE(snapshots.size(), 1u);
  EXPECT_EQ(snapshots.back().completed, 6u);
}

// ---------------------------------------------------------------------------
// Tracing.

std::vector<Tensor> RunTraceWorkload(const FrozenModel* frozen, int requests) {
  InferenceEngineOptions options;
  options.num_workers = 2;
  InferenceEngine engine(frozen, options);
  std::vector<std::future<InferenceResponse>> futures;
  futures.reserve(requests);
  for (int i = 0; i < requests; ++i) {
    InferenceRequest request;
    request.series = MakeSeries(60, 2, static_cast<uint64_t>(i));
    request.task = ServeTask::kClassify;
    futures.push_back(engine.Submit(std::move(request)));
  }
  std::vector<Tensor> outputs;
  outputs.reserve(requests);
  for (auto& f : futures) {
    InferenceResponse response = f.get();
    EXPECT_TRUE(response.status.ok()) << response.status.message();
    outputs.push_back(std::move(response.output));
  }
  return outputs;
}

// Satellite: tracing must be bitwise-neutral — identical engine outputs with
// tracing off and with every request traced.
TEST(TraceTest, TracingIsBitwiseNeutral) {
  model::RitaConfig config = SmallConfig();
  Rng rng(51);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);

  SetTracingForTesting(0);
  ClearTraceForTesting();
  const std::vector<Tensor> untraced = RunTraceWorkload(&frozen, 12);
  EXPECT_EQ(TraceEventCount(), 0u);

  SetTracingForTesting(1);
  const std::vector<Tensor> traced = RunTraceWorkload(&frozen, 12);
  SetTracingForTesting(0);
  EXPECT_GT(TraceEventCount(), 0u);

  ASSERT_EQ(untraced.size(), traced.size());
  for (size_t i = 0; i < untraced.size(); ++i) {
    EXPECT_TRUE(BitEqual(untraced[i], traced[i])) << "request " << i;
  }

  // The dump shows the whole request lifecycle: admission and queue wait,
  // the batch forward and its kernel spans, nested by containment on their
  // thread tracks.
  std::ostringstream dump;
  DumpTraceTo(dump);
  const std::string json = dump.str();
  for (const char* needle :
       {"\"admission\"", "\"queue\"", "\"batch_forward\"", "\"request\"",
        "\"cat\":\"serve\"", "\"cat\":\"kernel\"",
        "\"kmeans_grouping\"", "\"fused_group_attention\"",
        "\"qkv_projection_gemm\"", "trace_id"}) {
    EXPECT_NE(json.find(needle), std::string::npos)
        << "trace dump missing " << needle;
  }

  // File dump round-trips.
  const std::string path = "obs_trace_test.json";
  ASSERT_TRUE(DumpTrace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream file_contents;
  file_contents << in.rdbuf();
  EXPECT_NE(file_contents.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(file_contents.str().find("\"ph\":\"X\""), std::string::npos);
  ClearTraceForTesting();
}

// One dumped span: DumpTraceTo writes one event per line.
struct DumpedSpan {
  std::string name;
  std::string cat;
  uint64_t trace_id = 0;
};

std::vector<DumpedSpan> ParseTraceDump(const std::string& json) {
  const auto field = [](const std::string& line, const std::string& key) {
    const size_t at = line.find("\"" + key + "\":\"");
    if (at == std::string::npos) return std::string();
    const size_t begin = at + key.size() + 4;
    return line.substr(begin, line.find('"', begin) - begin);
  };
  std::vector<DumpedSpan> spans;
  std::istringstream lines(json);
  for (std::string line; std::getline(lines, line);) {
    const size_t id_at = line.find("\"trace_id\":");
    if (id_at == std::string::npos) continue;
    DumpedSpan span;
    span.name = field(line, "name");
    span.cat = field(line, "cat");
    span.trace_id = std::strtoull(line.c_str() + id_at + 11, nullptr, 10);
    spans.push_back(span);
  }
  return spans;
}

// A sampled request's trace holds its serve spans and every kernel span of
// its forward under its own trace_id. B=1 gives 2 (batch*head) slices on a
// 4-wide pool, so group attention runs narrow, and a 2049-token slice with
// 32-wide heads and 16 groups clears the row-tile grain: four row tiles per
// slice. The slice and tile shards that land on pool workers carry the id
// only because ExecutionContext::ParallelFor re-installs the caller's trace
// in each shard.
TEST(TraceTest, SampledRequestRecordsKernelSpansUnderItsTraceId) {
  model::RitaConfig config = SmallConfig();
  config.input_length = 10240;  // 2048 windows + [CLS] = 2049 tokens
  config.encoder.dim = 64;      // 2 heads of 32
  config.encoder.attention.group.num_groups = 16;
  Rng rng(71);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);
  ThreadPool pool(4);
  ExecutionContext exec(&pool);
  InferenceEngineOptions options;
  options.num_workers = 1;
  options.context = &exec;
  InferenceEngine engine(&frozen, options);

  ClearTraceForTesting();
  SetTracingForTesting(1);
  InferenceRequest request;
  request.series = MakeSeries(10240, 2, 77);
  request.task = ServeTask::kReconstruct;
  ASSERT_TRUE(engine.Run(std::move(request)).status.ok());
  SetTracingForTesting(0);

  std::ostringstream dump;
  DumpTraceTo(dump);
  const std::vector<DumpedSpan> spans = ParseTraceDump(dump.str());
  uint64_t trace_id = 0;
  for (const DumpedSpan& span : spans) {
    if (span.name == "request") trace_id = span.trace_id;
  }
  ASSERT_NE(trace_id, 0u) << "no request span in the dump";

  std::map<std::string, int> serve, kernel;
  for (const DumpedSpan& span : spans) {
    EXPECT_EQ(span.trace_id, trace_id) << span.name << " under a foreign id";
    if (span.cat == "serve") ++serve[span.name];
    if (span.cat == "kernel") ++kernel[span.name];
  }
  for (const char* name : {"admission", "queue", "batch_forward", "request"}) {
    EXPECT_EQ(serve[name], 1) << name;
  }
  const int layers = 2, slices = 2, tiles = 4;
  EXPECT_EQ(kernel["qkv_projection_gemm"], 3 * layers);
  EXPECT_EQ(kernel["kmeans_grouping"], layers * slices);
  EXPECT_EQ(kernel["fused_group_attention"], layers * slices * tiles);
  ClearTraceForTesting();
}

TEST(TraceTest, SamplingTracesOneInN) {
  model::RitaConfig config = SmallConfig();
  Rng rng(61);
  model::RitaModel source(config, &rng);
  FrozenModel frozen(source);

  ClearTraceForTesting();
  SetTracingForTesting(4);
  InferenceEngineOptions options;
  options.num_workers = 1;
  InferenceEngine engine(&frozen, options);
  for (int i = 0; i < 8; ++i) {
    InferenceRequest request;
    request.series = MakeSeries(60, 2, static_cast<uint64_t>(500 + i));
    ASSERT_TRUE(engine.Run(std::move(request)).status.ok());
  }
  SetTracingForTesting(0);

  std::ostringstream dump;
  DumpTraceTo(dump);
  const std::string json = dump.str();
  // Exactly 2 of the 8 sequential admissions sample at 1-in-4, whatever the
  // global admission counter's phase was when the test started.
  size_t request_spans = 0;
  for (size_t pos = json.find("\"name\":\"request\""); pos != std::string::npos;
       pos = json.find("\"name\":\"request\"", pos + 1)) {
    ++request_spans;
  }
  EXPECT_EQ(request_spans, 2u);
  ClearTraceForTesting();
}

TEST(TraceTest, RingBufferIsBounded) {
  ClearTraceForTesting();
  const double now = TraceNowUs();
  for (uint64_t i = 0; i < kTraceRingCapacity + 1000; ++i) {
    RecordSpan(/*trace_id=*/1, "spam", "test", now, 1.0);
  }
  // This thread's ring saturates at its capacity; the oldest events were
  // overwritten rather than growing the buffer.
  EXPECT_EQ(TraceEventCount(), static_cast<uint64_t>(kTraceRingCapacity));
  ClearTraceForTesting();
}

TEST(TraceTest, ScopedTraceNestsAndRestores) {
  EXPECT_EQ(CurrentTrace().trace_id, 0u);
  {
    ScopedTrace outer(7);
    EXPECT_EQ(CurrentTrace().trace_id, 7u);
    {
      ScopedTrace inner(9);
      EXPECT_EQ(CurrentTrace().trace_id, 9u);
    }
    EXPECT_EQ(CurrentTrace().trace_id, 7u);
  }
  EXPECT_EQ(CurrentTrace().trace_id, 0u);
  // Spans constructed with an ambient zero context record nothing.
  ClearTraceForTesting();
  { Span span("noop", "test"); }
  EXPECT_EQ(TraceEventCount(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace rita
