#include "serve/result_cache.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/hash.h"

namespace rita {
namespace serve {

namespace {

int RoundUpPowerOfTwo(int n) {
  int p = 1;
  while (p < n) p <<= 1;
  return p;
}

int64_t PayloadBytes(const Tensor& output) {
  return static_cast<int64_t>(sizeof(float)) * output.numel();
}

}  // namespace

ResultCache::ResultCache(const Options& options) {
  RITA_CHECK_GT(options.byte_budget, 0);
  RITA_CHECK_GT(options.num_shards, 0);
  const int shards = RoundUpPowerOfTwo(options.num_shards);
  shards_.reserve(shards);
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  const int64_t shard_budget = std::max<int64_t>(1, options.byte_budget / shards);
  // Normalize the split so misconfigured fractions degrade gracefully rather
  // than silently over- or under-committing the budget.
  double fractions[kNumTasks] = {options.classify_fraction,
                                 options.embed_fraction,
                                 options.reconstruct_fraction};
  double total = 0.0;
  for (double f : fractions) total += std::max(0.0, f);
  for (int t = 0; t < kNumTasks; ++t) {
    const double f =
        total > 0.0 ? std::max(0.0, fractions[t]) / total : 1.0 / kNumTasks;
    task_budget_[t] = std::max<int64_t>(
        1, static_cast<int64_t>(static_cast<double>(shard_budget) * f));
  }
}

ResultCache::Key ResultCache::MakeKey(uint64_t model_fingerprint, ServeTask task,
                                      const Tensor& series) {
  // FNV seeds the two halves with the short header; the series bytes, the
  // bulk of the key, then go through one striped pass.
  uint64_t seeds[2] = {kFnv1a64OffsetBasis, kFnv1a64AltOffsetBasis};
  for (uint64_t& h : seeds) {
    h = Fnv1a64Value(model_fingerprint, h);
    h = Fnv1a64Value(static_cast<int32_t>(task), h);
    // Shape feeds the digest so [6] and [2, 3] payloads cannot alias.
    h = Fnv1a64Value<int64_t>(series.dim(), h);
    for (int64_t d = 0; d < series.dim(); ++d) {
      h = Fnv1a64Value<int64_t>(series.size(d), h);
    }
  }
  const Digest128 digest = StripeDigest128(
      series.data(), sizeof(float) * static_cast<size_t>(series.numel()),
      seeds[0], seeds[1]);
  Key key{digest.lo, digest.hi};
  // {0, 0} is the "no key" sentinel; nudge the pathological digest off it.
  if (key.lo == 0 && key.hi == 0) key.lo = 1;
  return key;
}

bool ResultCache::Admit(const Key& key) {
  Shard& shard = ShardFor(key);
  const uint64_t bit = key.lo & (kDoorkeeperBits - 1);
  const uint64_t mask = uint64_t{1} << (bit % 64);
  std::lock_guard<std::mutex> lock(shard.mu);
  uint64_t& word = shard.doorkeeper[bit / 64];
  if ((word & mask) != 0) return true;
  word |= mask;
  // Clear when half full: a set bit then means "seen since the last reset",
  // which keeps one-hit keys from saturating the filter into admit-all.
  if (++shard.doorkeeper_set >= kDoorkeeperBits / 2) {
    std::fill(std::begin(shard.doorkeeper), std::end(shard.doorkeeper), 0);
    shard.doorkeeper_set = 0;
  }
  return false;
}

bool ResultCache::Lookup(const Key& key, Tensor* output) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key.lo);
  if (it == shard.index.end() || it->second->hi != key.hi) {
    ++shard.stats.misses;
    return false;
  }
  std::list<Entry>& lru = shard.lru[it->second->task];
  lru.splice(lru.begin(), lru, it->second);
  *output = it->second->output.Clone();
  ++shard.stats.hits;
  return true;
}

void ResultCache::Insert(const Key& key, ServeTask task, const Tensor& output) {
  const int task_id = static_cast<int>(task);
  RITA_CHECK(task_id >= 0 && task_id < kNumTasks);
  const int64_t budget = task_budget_[task_id];
  const int64_t bytes = PayloadBytes(output);
  if (bytes > budget) return;  // would evict the whole slice for one entry
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key.lo);
  if (it != shard.index.end()) {
    // Refresh (or replace a lo-collision victim): deterministic forwards mean
    // same-key payloads are identical, so replacing is always sound.
    shard.bytes[it->second->task] -= it->second->bytes;
    shard.lru[it->second->task].erase(it->second);
    shard.index.erase(it);
  }
  // Admission is per task: evict least-recently-used entries of THIS task
  // only, so another task's working set is untouchable no matter how large
  // or hot this task's payloads are.
  std::list<Entry>& lru = shard.lru[task_id];
  while (shard.bytes[task_id] + bytes > budget && !lru.empty()) {
    const Entry& victim = lru.back();
    shard.bytes[task_id] -= victim.bytes;
    shard.index.erase(victim.lo);
    lru.pop_back();
    ++shard.stats.evictions;
  }
  Entry entry;
  entry.lo = key.lo;
  entry.hi = key.hi;
  entry.task = task_id;
  // Clone: the cache must not alias executor-owned storage.
  entry.output = output.Clone();
  entry.bytes = bytes;
  lru.push_front(std::move(entry));
  shard.index[key.lo] = lru.begin();
  shard.bytes[task_id] += bytes;
  ++shard.stats.insertions;
}

ResultCacheStats ResultCache::stats() const {
  ResultCacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.insertions += shard->stats.insertions;
    total.evictions += shard->stats.evictions;
    for (int t = 0; t < kNumTasks; ++t) {
      total.bytes += shard->bytes[t];
      total.entries += static_cast<int64_t>(shard->lru[t].size());
      total.bytes_by_task[t] += shard->bytes[t];
      total.entries_by_task[t] += static_cast<int64_t>(shard->lru[t].size());
    }
  }
  return total;
}

}  // namespace serve
}  // namespace rita
