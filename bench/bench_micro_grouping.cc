// Micro-benchmark (google-benchmark): the grouping engine — the fused
// assignment kernel vs naive pairwise distances (the Sec. 4.4 "GPU-friendly"
// reformulation), k-means cost vs (n, N), the scheduler's merge test, and the
// batch planner's probe vs predict latency.
#include <benchmark/benchmark.h>

#include "cluster/kmeans.h"
#include "core/adaptive_scheduler.h"
#include "core/batch_planner.h"
#include "linalg/kernels/kernels.h"

namespace rita {
namespace bench {
namespace {

constexpr int64_t kDim = 16;

Tensor MakePoints(int64_t n, uint64_t seed) {
  Rng rng(seed);
  return Tensor::RandNormal({n, kDim}, &rng);
}

// The fused assignment step (distances reduced to a running argmin inside
// the kernel) against 64 centroids.
void BM_KMeansAssign(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor a = MakePoints(n, 1);
  Tensor b = MakePoints(64, 2);
  std::vector<int64_t> assignment(n);
  std::vector<float> best(n);
  for (auto _ : state) {
    kernels::KMeansAssign(a.data(), b.data(), n, 64, kDim, assignment.data(),
                          best.data());
    benchmark::DoNotOptimize(best.data());
  }
}
BENCHMARK(BM_KMeansAssign)->Arg(256)->Arg(1024)->Arg(4096);

void BM_PairwiseDistNaive(benchmark::State& state) {
  Tensor a = MakePoints(state.range(0), 1);
  Tensor b = MakePoints(64, 2);
  for (auto _ : state) {
    Tensor d = cluster::PairwiseSqDistNaive(a, b);
    benchmark::DoNotOptimize(d.data());
  }
}
BENCHMARK(BM_PairwiseDistNaive)->Arg(256)->Arg(1024)->Arg(4096);

void BM_KMeans(benchmark::State& state) {
  Tensor points = MakePoints(state.range(0), 3);
  cluster::KMeansOptions options;
  options.num_clusters = state.range(1);
  options.max_iters = 2;
  for (auto _ : state) {
    Rng rng(4);
    auto result = cluster::RunKMeans(points, options, &rng);
    benchmark::DoNotOptimize(result.inertia);
  }
}
BENCHMARK(BM_KMeans)
    ->Args({256, 8})
    ->Args({256, 64})
    ->Args({1024, 8})
    ->Args({1024, 64})
    ->Args({4096, 64});

void BM_SchedulerMergeTest(benchmark::State& state) {
  const int64_t groups = state.range(0);
  Tensor points = MakePoints(2048, 5);
  cluster::KMeansOptions options;
  options.num_clusters = groups;
  Rng rng(6);
  auto grouping = cluster::RunKMeans(points, options, &rng);
  core::GroupingSnapshot snap;
  snap.centroids = grouping.centroids;
  snap.counts = grouping.counts;
  snap.radii = cluster::ClusterRadii(points, grouping);
  snap.key_ball_radius = cluster::PointBallRadius(points);
  snap.query_ball_radius = snap.key_ball_radius;

  core::AdaptiveSchedulerOptions sopts;
  sopts.epsilon = 2.0f;
  core::AdaptiveScheduler scheduler(sopts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.CountMergeable(snap));
  }
}
BENCHMARK(BM_SchedulerMergeTest)->Arg(16)->Arg(64)->Arg(256);

void BM_BatchPlannerProbe(benchmark::State& state) {
  core::EncoderShape shape;
  core::MemoryModel model(shape);
  core::BatchPlannerOptions options;
  options.max_length = 10000;
  core::BatchPlanner planner(model, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.ProbeBatchSize(8000, 64));
  }
}
BENCHMARK(BM_BatchPlannerProbe);

void BM_BatchPlannerPredict(benchmark::State& state) {
  core::EncoderShape shape;
  core::MemoryModel model(shape);
  core::BatchPlannerOptions options;
  options.max_length = 10000;
  core::BatchPlanner planner(model, options);
  Rng rng(7);
  planner.Calibrate(&rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.PredictBatchSize(8000, 64));
  }
}
BENCHMARK(BM_BatchPlannerPredict);

}  // namespace
}  // namespace bench
}  // namespace rita

BENCHMARK_MAIN();
