// rita::obs — process-wide metrics registry.
//
// One implementation backs every latency/throughput statistic in the repo:
// the serving engine's EngineStats, the streaming layer's p50/p99, and the
// Prometheus exporter all read the same primitives. The engine's stats are
// not kept anywhere else: stats(), model_stats() and a router's FleetStats()
// are all read from Collect() snapshots of the registry. Three design rules:
//
//   1. Hot-path writes are lock-free. Counters shard across cache-line-padded
//      atomic cells indexed by a per-thread slot, so concurrent workers never
//      contend on one line. Histogram observation is one relaxed fetch_add on
//      a bucket plus a CAS-add into a sharded double sum.
//   2. Reads are cold and exact-enough. Snapshotting sums the shards with
//      relaxed loads; a reader concurrent with writers sees a value that was
//      true at some point during the read — the same guarantee the old
//      mutex-per-batch stats gave across batches.
//   3. Snapshots are mergeable and subtractable. Fleet aggregation merges
//      histograms from N processes; windowed rates subtract a baseline
//      Collect() from the current one (SubtractBase below, behind
//      InferenceEngine::ResetStatsWindow).
//
// Histogram buckets are log-linear: 16 linear sub-buckets per power-of-two
// octave, covering [2^-10, 2^21) plus a zero bucket and an overflow bucket.
// Relative quantile error is bounded by the sub-bucket width (~6.25%) before
// interpolation; in practice interpolation lands well inside that.

#ifndef RITA_OBS_METRICS_H_
#define RITA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rita {
namespace obs {

// Stable per-thread small integer, assigned on first use. Used to pick a
// shard cell; threads beyond the shard count wrap and share.
unsigned ThreadSlot();

// ---------------------------------------------------------------------------
// Counter: monotonically increasing, lock-free sharded.

class Counter {
 public:
  static constexpr unsigned kShards = 16;  // power of two

  void Add(uint64_t n = 1) {
    cells_[ThreadSlot() & (kShards - 1)].v.fetch_add(n,
                                                     std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell cells_[kShards];
};

// ---------------------------------------------------------------------------
// Gauge: last-writer-wins double (queue depths, plan sizes, byte totals).

class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// ---------------------------------------------------------------------------
// MaxGauge: CAS-max high-water mark, resettable for windowed reporting
// (max_micro_batch, max_compute_ms).

class MaxGauge {
 public:
  void Observe(double v) {
    double cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void Reset() { v_.store(0.0, std::memory_order_relaxed); }
  double Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// ---------------------------------------------------------------------------
// Histogram.

// Sharded CAS-add accumulator for the histogram's running sum. C++17 has no
// fetch_add on atomic<double>, so each add CAS-loops on a per-thread cell.
class DoubleAdder {
 public:
  static constexpr unsigned kShards = 8;  // power of two

  void Add(double v) {
    std::atomic<double>& cell = cells_[ThreadSlot() & (kShards - 1)].v;
    double cur = cell.load(std::memory_order_relaxed);
    while (!cell.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
  }
  double Value() const {
    double total = 0.0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<double> v{0.0};
  };
  Cell cells_[kShards];
};

// Bucket layout shared by Histogram and HistogramSnapshot.
struct HistogramLayout {
  static constexpr int kSubBuckets = 16;   // linear sub-buckets per octave
  static constexpr int kMinExp = -10;      // first octave: [2^-10, 2^-9)
  static constexpr int kMaxExp = 21;       // overflow at 2^21 (~35 min in ms)
  static constexpr int kOctaves = kMaxExp - kMinExp;
  // [0] = zero/negative, [1 .. kOctaves*kSub] = finite, [last] = overflow.
  static constexpr int kNumBuckets = 2 + kOctaves * kSubBuckets;

  // Bucket index for a value. Buckets are [lower, upper).
  static int Index(double v);
  // Exclusive upper edge of bucket i (0 for the zero bucket, +inf for the
  // overflow bucket).
  static double UpperEdge(int i);
  // Inclusive lower edge of bucket i.
  static double LowerEdge(int i);
};

// Immutable point-in-time copy of a histogram: mergeable (fleet aggregation),
// subtractable (windowed deltas), and queryable for quantiles.
class HistogramSnapshot {
 public:
  HistogramSnapshot() : counts_(HistogramLayout::kNumBuckets, 0) {}

  uint64_t Count() const { return count_; }
  double Sum() const { return sum_; }
  double Max() const { return max_; }
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }

  // Quantile in [0, 1] by cumulative bucket walk + linear interpolation
  // within the landing bucket. Returns 0 for an empty snapshot.
  double Quantile(double q) const;

  // Element-wise accumulate (fleet / retired-session aggregation).
  void MergeFrom(const HistogramSnapshot& other);
  // Element-wise subtract an earlier snapshot of the same histogram, for
  // windowed rates. Counts saturate at 0; max is NOT windowable and is left
  // as this snapshot's max.
  void SubtractBase(const HistogramSnapshot& base);

  // Rebuilds a snapshot from its parts — the wire-decode hook for fleet
  // aggregation (a router merging replica snapshots it received over the
  // transport). `counts` must have kNumBuckets entries; `count` is
  // recomputed from the buckets when the caller passes the bucket sum.
  static HistogramSnapshot FromParts(std::vector<uint64_t> counts, double sum,
                                     double max);

 private:
  friend class Histogram;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

// Lock-free fixed-bucket log-linear histogram. Observe() is wait-free on the
// bucket counter; the running sum CAS-loops on a sharded cell.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double v) {
    buckets_[HistogramLayout::Index(v)].fetch_add(1,
                                                  std::memory_order_relaxed);
    sum_.Add(v);
    max_.Observe(v);
  }

  uint64_t Count() const;
  double Sum() const { return sum_.Value(); }
  double Max() const { return max_.Value(); }
  double Quantile(double q) const { return Snapshot().Quantile(q); }

  HistogramSnapshot Snapshot() const;

  // Accumulate another histogram's current contents into this one (reader
  // side; the source should be quiescent or externally synchronized).
  void MergeFrom(const Histogram& other);

 private:
  std::atomic<uint64_t> buckets_[HistogramLayout::kNumBuckets] = {};
  DoubleAdder sum_;
  MaxGauge max_;
};

// ---------------------------------------------------------------------------
// Registry.

enum class MetricType { kCounter, kGauge, kMaxGauge, kHistogram };

// Label key/value pairs. Registration sorts them by key, so {a=1,b=2} and
// {b=2,a=1} name the same instance.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

// Owns metric instances keyed by (family name, labels). Get* registers on
// first call and returns the same stable pointer thereafter; callers cache
// the pointer and never touch the registry mutex on the hot path.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help,
                      LabelSet labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  LabelSet labels = {});
  MaxGauge* GetMaxGauge(const std::string& name, const std::string& help,
                        LabelSet labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          LabelSet labels = {});

  // Process-wide default registry. Components default to per-owner registries
  // (each InferenceEngine owns its own) so tests and co-hosted engines don't
  // alias counters; Default() exists for one-engine-per-process deployments.
  static MetricsRegistry* Default();

  struct InstanceSnapshot {
    LabelSet labels;
    double value = 0.0;       // counter / gauge / max-gauge reading
    HistogramSnapshot hist;   // populated for histograms only
  };
  struct FamilySnapshot {
    std::string name;
    std::string help;
    MetricType type = MetricType::kCounter;
    std::vector<InstanceSnapshot> instances;
  };
  // Point-in-time copy of every registered metric, in name order (stable
  // exporter output). Safe to call concurrently with hot-path writes.
  std::vector<FamilySnapshot> Collect() const;

 private:
  struct Instance {
    LabelSet labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<MaxGauge> max_gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string help;
    MetricType type = MetricType::kCounter;
    std::deque<Instance> instances;  // deque: stable element addresses
  };

  Instance* GetInstance(const std::string& name, const std::string& help,
                        MetricType type, LabelSet labels);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

/// Windowed view of `current` since `base` (an earlier Collect() of the same
/// registry). Instances match by (family name, labels). Counters and
/// histograms (buckets, count, sum) subtract, saturating at 0; gauges and
/// max-gauges pass through unchanged, as does any instance `base` lacks.
std::vector<MetricsRegistry::FamilySnapshot> SubtractBase(
    std::vector<MetricsRegistry::FamilySnapshot> current,
    const std::vector<MetricsRegistry::FamilySnapshot>& base);

}  // namespace obs
}  // namespace rita

#endif  // RITA_OBS_METRICS_H_
