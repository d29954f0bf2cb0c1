// Content-hash result cache sitting in front of admission. Sound because
// FrozenModel forwards are deterministic (pinned RNG stream) and
// batch-position-invariant: the output for (model, task, series) is a pure
// function of its key, so replaying a cached tensor is bit-identical to
// recomputing it. A key is a 128-bit digest of (model fingerprint, task,
// series shape, series bytes): FNV-1a seeds two halves with the header, then
// one striped pass over the series bytes finishes both (StripeDigest128 in
// util/hash.h). Distinct requests colliding is not a practical concern, so
// the cache need not retain request bytes for verification.
//
// Admission is on second sighting: the engine inserts a miss's output only
// when Admit() has seen the key before. Each shard keeps a 65,536-bit
// doorkeeper (one bit per key.lo, cleared when half full), so a stream of
// one-time requests costs a bit each instead of a resident entry.
//
// Sharded LRU under a byte budget: the key's high digest picks a shard (the
// low digest indexes within it, keeping the two uses decorrelated), each
// shard has its own mutex and one LRU list PER TASK, and inserts evict
// least-recently-used entries of the same task until that task's slice of
// the budget fits — a burst of large kReconstruct payloads can never flush
// the many small kClassify/kEmbed entries. Lookup/Insert are thread-safe and
// called outside the engine's queue mutex, so cache traffic never contends
// with admission or scheduling.
#ifndef RITA_SERVE_RESULT_CACHE_H_
#define RITA_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "serve/request_queue.h"
#include "tensor/tensor.h"

namespace rita {
namespace serve {

struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  int64_t bytes = 0;    // currently resident payload bytes
  int64_t entries = 0;  // currently resident entries
  // Residency split by ServeTask (indexed by the enum value): lets tests and
  // telemetry verify that one task's large payloads never displace another's.
  int64_t bytes_by_task[3] = {0, 0, 0};
  int64_t entries_by_task[3] = {0, 0, 0};

  double HitRatio() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class ResultCache {
 public:
  struct Options {
    /// Total payload budget across all shards (0 disables construction at
    /// the engine level; the cache itself requires a positive budget).
    int64_t byte_budget = 32 << 20;
    /// Shard count (rounded up to a power of two) — one mutex + LRU each.
    int num_shards = 8;
    /// Admission split of the byte budget by task (normalized internally).
    /// Each task evicts only within its own slice, so a burst of large
    /// kReconstruct outputs ([T, C] floats) can never flush the many small
    /// kClassify / kEmbed entries sharing the cache — the failure mode of a
    /// single LRU under a byte budget.
    double classify_fraction = 0.25;
    double embed_fraction = 0.25;
    double reconstruct_fraction = 0.5;
  };

  /// 128-bit content key; {0, 0} is reserved as "no key".
  struct Key {
    uint64_t lo = 0;
    uint64_t hi = 0;
  };

  explicit ResultCache(const Options& options);

  /// Digests (model fingerprint, task, shape, series bytes) into a key. The
  /// series bytes are read once.
  static Key MakeKey(uint64_t model_fingerprint, ServeTask task,
                     const Tensor& series);

  /// Doorkeeper for second-sighting admission: records `key` and returns
  /// true if it was already recorded since the shard's last reset (false on
  /// a first sighting). Aliasing keys share a bit, so a false "seen" is
  /// possible; a false "unseen" only after a reset. Thread-safe.
  bool Admit(const Key& key);

  /// On hit, copies the cached output into `*output` (a private clone — the
  /// caller may mutate it freely) and refreshes recency. Thread-safe.
  bool Lookup(const Key& key, Tensor* output);

  /// Inserts (or refreshes) the output for `key` under `task`'s budget
  /// slice, evicting LRU entries of the SAME task until the slice fits.
  /// Outputs larger than the slice are skipped. Thread-safe.
  void Insert(const Key& key, ServeTask task, const Tensor& output);

  ResultCacheStats stats() const;

 private:
  static constexpr int kNumTasks = 3;  // ServeTask cardinality
  static constexpr uint64_t kDoorkeeperBits = 65536;  // per shard

  struct Entry {
    uint64_t lo = 0;  // map key, repeated here so eviction can unindex
    uint64_t hi = 0;  // collision guard: the map below keys on `lo` alone
    int task = 0;     // which per-task LRU owns this entry
    Tensor output;
    int64_t bytes = 0;
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru[kNumTasks];  // front = most recent, one per task
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index;  // by lo
    int64_t bytes[kNumTasks] = {0, 0, 0};
    uint64_t doorkeeper[kDoorkeeperBits / 64] = {};  // bit per key.lo
    uint64_t doorkeeper_set = 0;                      // bits set since reset
    ResultCacheStats stats;
  };

  Shard& ShardFor(const Key& key) {
    return *shards_[key.hi & (shards_.size() - 1)];
  }

  int64_t task_budget_[kNumTasks] = {0, 0, 0};  // per shard, per task
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace serve
}  // namespace rita

#endif  // RITA_SERVE_RESULT_CACHE_H_
