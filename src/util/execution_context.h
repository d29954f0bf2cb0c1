// Execution resources threaded through the attention/grouping stack: a thread
// pool handle for the per-(batch*head) slice loops, counter-based derivation
// of per-slice RNG streams (so stochastic grouping is bit-identical no matter
// how slices are scheduled or how wide the pool is), and a reusable scratch
// arena that lets hot loops recycle temporary buffers instead of reallocating
// them every slice. Trainer/RitaModel pass one context down through
// TransformerEncoder -> MultiHeadAttention -> AttentionMechanism -> KMeans.
#ifndef RITA_UTIL_EXECUTION_CONTEXT_H_
#define RITA_UTIL_EXECUTION_CONTEXT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace rita {

/// Pool of reusable scratch buffers. Thread-safe: concurrent slices each
/// Acquire() their own lease; a lease's buffers are recycled (not freed) when
/// it is released, so steady-state hot loops allocate nothing. Retention is
/// bounded: when the free chunks' total footprint exceeds
/// `max_retained_bytes`, released chunks are emptied instead of cached, so a
/// one-off large lease (e.g. an O(n^2) naive-attention backward) cannot pin
/// its buffers for the process lifetime of a shared arena.
class ScratchArena {
 public:
  /// Default retention cap: generous for per-slice group-attention scratch
  /// (hundreds of KB per chunk), small enough that quadratic one-offs are
  /// returned to the allocator.
  static constexpr size_t kDefaultMaxRetainedBytes = 64u << 20;  // 64 MiB

  explicit ScratchArena(size_t max_retained_bytes = kDefaultMaxRetainedBytes)
      : max_retained_bytes_(max_retained_bytes) {}
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

 private:
  // One checked-out bundle of buffers. Buffers are handed out by sequence
  // position (first Floats() call gets buffer 0, ...), so a loop that makes
  // the same allocation sequence every iteration reuses storage after a
  // Reset(). Individual buffers never move once handed out within a cycle.
  struct Chunk {
    std::deque<std::vector<float>> buffers;
    size_t next = 0;
  };

 public:
  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : arena_(other.arena_), chunk_(other.chunk_) {
      other.arena_ = nullptr;
      other.chunk_ = nullptr;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease();

    /// A float buffer of at least `n` elements. Contents are undefined.
    float* Floats(int64_t n);

    /// Recycles every buffer handed out since Acquire()/the last Reset().
    /// Pointers obtained before the Reset are invalidated.
    void Reset() { chunk_->next = 0; }

   private:
    friend class ScratchArena;
    Lease(ScratchArena* arena, Chunk* chunk) : arena_(arena), chunk_(chunk) {}
    ScratchArena* arena_;
    Chunk* chunk_;
  };

  /// Checks out a buffer bundle (creating one if none is free).
  Lease Acquire();

 private:
  void Release(Chunk* chunk);

  const size_t max_retained_bytes_;
  std::mutex mu_;
  std::vector<std::unique_ptr<Chunk>> chunks_;  // owns every chunk ever made
  std::vector<Chunk*> free_;
  size_t retained_bytes_ = 0;  // footprint of the chunks on the free list
};

/// Bundle of execution resources. Non-owning with respect to the pool; a null
/// pool means "use the process-wide ThreadPool::Global()".
class ExecutionContext {
 public:
  explicit ExecutionContext(ThreadPool* pool = nullptr) : pool_(pool) {}
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Never null.
  ThreadPool* pool() const { return pool_ != nullptr ? pool_ : ThreadPool::Global(); }
  int num_threads() const { return pool()->num_threads(); }

  /// ParallelFor over this context's pool that additionally propagates the
  /// CALLER's autograd grad mode and obs trace context into every shard.
  /// Both are thread_local, so a NoGradGuard held by the caller would
  /// otherwise not apply inside pool workers — an inference pass could
  /// silently record graphs in its parallel shards — and kernel spans on pool
  /// threads would lose the request's trace id. All forward/backward slice
  /// loops go through this wrapper rather than pool()->ParallelFor directly.
  void ParallelFor(int64_t begin, int64_t end,
                   const std::function<void(int64_t, int64_t)>& body,
                   int64_t min_shard = 1) const;

  ScratchArena* arena() { return &arena_; }

  /// Counter-based per-slice RNG stream: depends only on (root, stream,
  /// slice) — typically (component seed, forward-call ordinal, batch*head
  /// index) — never on thread schedule or pool width, which is what makes
  /// parallel stochastic grouping bit-reproducible.
  static Rng SliceRng(uint64_t root, uint64_t stream, uint64_t slice) {
    return Rng(MixSeed(MixSeed(root, stream), slice));
  }

  /// Process-wide default context over ThreadPool::Global().
  static ExecutionContext* Default();

 private:
  ThreadPool* pool_;
  ScratchArena arena_;
};

}  // namespace rita

#endif  // RITA_UTIL_EXECUTION_CONTEXT_H_
