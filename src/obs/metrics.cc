#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace rita {
namespace obs {

unsigned ThreadSlot() {
  static std::atomic<unsigned> next{0};
  thread_local unsigned slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

// ---------------------------------------------------------------------------
// HistogramLayout

int HistogramLayout::Index(double v) {
  if (!(v > 0.0)) return 0;  // zero, negative, NaN
  int exp;                   // v = m * 2^exp, m in [0.5, 1)
  const double m = std::frexp(v, &exp);
  const int octave = exp - 1 - kMinExp;  // v in [2^(exp-1), 2^exp)
  if (octave < 0) return 1;              // underflow clamps into first bucket
  if (octave >= kOctaves) return kNumBuckets - 1;  // overflow
  // m in [0.5, 1) maps linearly onto sub-buckets [0, kSubBuckets).
  int sub = static_cast<int>((m * 2.0 - 1.0) * kSubBuckets);
  sub = std::min(sub, kSubBuckets - 1);
  return 1 + octave * kSubBuckets + sub;
}

double HistogramLayout::UpperEdge(int i) {
  if (i <= 0) return 0.0;
  if (i >= kNumBuckets - 1) return std::numeric_limits<double>::infinity();
  const int octave = (i - 1) / kSubBuckets;
  const int sub = (i - 1) % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets,
                    kMinExp + octave);
}

double HistogramLayout::LowerEdge(int i) {
  if (i <= 0) return 0.0;
  if (i >= kNumBuckets - 1) return std::ldexp(1.0, kMaxExp);
  const int octave = (i - 1) / kSubBuckets;
  const int sub = (i - 1) % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets,
                    kMinExp + octave);
}

// ---------------------------------------------------------------------------
// HistogramSnapshot

double HistogramSnapshot::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the target observation, 1-based; q=0 -> first, q=1 -> last.
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * count_)));
  uint64_t cum = 0;
  for (int i = 0; i < HistogramLayout::kNumBuckets; ++i) {
    if (counts_[i] == 0) continue;
    if (cum + counts_[i] >= rank) {
      const double lo = HistogramLayout::LowerEdge(i);
      double hi = HistogramLayout::UpperEdge(i);
      if (std::isinf(hi)) return std::max(lo, max_);  // overflow bucket
      if (i == 0) return 0.0;
      // Linear interpolation by rank position within the bucket.
      const double frac =
          (static_cast<double>(rank - cum) - 0.5) / counts_[i];
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
    }
    cum += counts_[i];
  }
  return max_;
}

void HistogramSnapshot::MergeFrom(const HistogramSnapshot& other) {
  for (int i = 0; i < HistogramLayout::kNumBuckets; ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

void HistogramSnapshot::SubtractBase(const HistogramSnapshot& base) {
  for (int i = 0; i < HistogramLayout::kNumBuckets; ++i) {
    counts_[i] -= std::min(counts_[i], base.counts_[i]);
  }
  count_ -= std::min(count_, base.count_);
  sum_ = std::max(0.0, sum_ - base.sum_);
  // max_ intentionally untouched: a high-water mark cannot be windowed by
  // subtraction. Engines reset their MaxGauges instead.
}

HistogramSnapshot HistogramSnapshot::FromParts(std::vector<uint64_t> counts,
                                               double sum, double max) {
  RITA_CHECK_EQ(static_cast<int>(counts.size()), HistogramLayout::kNumBuckets)
      << "histogram wire payload has the wrong bucket count";
  HistogramSnapshot snap;
  snap.counts_ = std::move(counts);
  for (uint64_t c : snap.counts_) snap.count_ += c;
  snap.sum_ = sum;
  snap.max_ = max;
  return snap;
}

// ---------------------------------------------------------------------------
// Histogram

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (int i = 0; i < HistogramLayout::kNumBuckets; ++i) {
    snap.counts_[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count_ += snap.counts_[i];
  }
  snap.sum_ = sum_.Value();
  snap.max_ = max_.Value();
  return snap;
}

void Histogram::MergeFrom(const Histogram& other) {
  for (int i = 0; i < HistogramLayout::kNumBuckets; ++i) {
    const uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  sum_.Add(other.sum_.Value());
  max_.Observe(other.max_.Value());
}

// ---------------------------------------------------------------------------
// MetricsRegistry

namespace {

const char* TypeName(MetricType t) {
  switch (t) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kMaxGauge:
      return "max_gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

}  // namespace

MetricsRegistry::Instance* MetricsRegistry::GetInstance(
    const std::string& name, const std::string& help, MetricType type,
    LabelSet labels) {
  std::sort(labels.begin(), labels.end());
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = families_.try_emplace(name);
  Family& family = it->second;
  if (inserted) {
    family.help = help;
    family.type = type;
  } else {
    RITA_CHECK(family.type == type)
        << "metric '" << name << "' registered as " << TypeName(family.type)
        << ", requested as " << TypeName(type);
  }
  for (Instance& inst : family.instances) {
    if (inst.labels == labels) return &inst;
  }
  family.instances.emplace_back();
  Instance& inst = family.instances.back();
  inst.labels = std::move(labels);
  switch (type) {
    case MetricType::kCounter:
      inst.counter = std::make_unique<Counter>();
      break;
    case MetricType::kGauge:
      inst.gauge = std::make_unique<Gauge>();
      break;
    case MetricType::kMaxGauge:
      inst.max_gauge = std::make_unique<MaxGauge>();
      break;
    case MetricType::kHistogram:
      inst.histogram = std::make_unique<Histogram>();
      break;
  }
  return &inst;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     LabelSet labels) {
  return GetInstance(name, help, MetricType::kCounter, std::move(labels))
      ->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help, LabelSet labels) {
  return GetInstance(name, help, MetricType::kGauge, std::move(labels))
      ->gauge.get();
}

MaxGauge* MetricsRegistry::GetMaxGauge(const std::string& name,
                                       const std::string& help,
                                       LabelSet labels) {
  return GetInstance(name, help, MetricType::kMaxGauge, std::move(labels))
      ->max_gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         LabelSet labels) {
  return GetInstance(name, help, MetricType::kHistogram, std::move(labels))
      ->histogram.get();
}

MetricsRegistry* MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return registry;
}

std::vector<MetricsRegistry::FamilySnapshot> MetricsRegistry::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FamilySnapshot> out;
  out.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    FamilySnapshot fam;
    fam.name = name;
    fam.help = family.help;
    fam.type = family.type;
    fam.instances.reserve(family.instances.size());
    for (const Instance& inst : family.instances) {
      InstanceSnapshot snap;
      snap.labels = inst.labels;
      switch (family.type) {
        case MetricType::kCounter:
          snap.value = static_cast<double>(inst.counter->Value());
          break;
        case MetricType::kGauge:
          snap.value = inst.gauge->Value();
          break;
        case MetricType::kMaxGauge:
          snap.value = inst.max_gauge->Value();
          break;
        case MetricType::kHistogram:
          snap.hist = inst.histogram->Snapshot();
          break;
      }
      fam.instances.push_back(std::move(snap));
    }
    out.push_back(std::move(fam));
  }
  return out;
}

std::vector<MetricsRegistry::FamilySnapshot> SubtractBase(
    std::vector<MetricsRegistry::FamilySnapshot> current,
    const std::vector<MetricsRegistry::FamilySnapshot>& base) {
  for (MetricsRegistry::FamilySnapshot& family : current) {
    if (family.type != MetricType::kCounter &&
        family.type != MetricType::kHistogram) {
      continue;
    }
    const auto base_family =
        std::find_if(base.begin(), base.end(),
                     [&family](const MetricsRegistry::FamilySnapshot& f) {
                       return f.name == family.name;
                     });
    if (base_family == base.end()) continue;
    for (MetricsRegistry::InstanceSnapshot& inst : family.instances) {
      for (const MetricsRegistry::InstanceSnapshot& from :
           base_family->instances) {
        if (from.labels != inst.labels) continue;
        if (family.type == MetricType::kHistogram) {
          inst.hist.SubtractBase(from.hist);
        } else {
          inst.value = std::max(0.0, inst.value - from.value);
        }
        break;
      }
    }
  }
  return current;
}

}  // namespace obs
}  // namespace rita
