// Fixed-size worker pool with a nest-safe ParallelFor primitive. The tensor
// kernels shard GEMM/softmax loops across this pool, and — via
// ExecutionContext — the group-attention forward/backward and the k-means
// grouping engine shard their per-(batch*head) slice loops across it too.
// ParallelFor tracks each call with its own task group, so nested calls
// (a parallel slice loop whose slices run parallel GEMMs) and concurrent
// callers never wait on each other's work and cannot deadlock: a caller
// whose shards are still pending helps drain the shared queue instead of
// blocking.
#ifndef RITA_UTIL_THREAD_POOL_H_
#define RITA_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rita {

/// Task-queue thread pool with per-call completion tracking.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware concurrency.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a fire-and-forget task; returns immediately. Tasks submitted
  /// here are tracked by a pool-wide group that Wait() drains. Tasks must not
  /// throw; a throwing task's exception is stashed and rethrown from Wait().
  void Submit(std::function<void()> task);

  /// Blocks until every Submit()-ed task has completed. Does NOT wait for
  /// ParallelFor shards — those are tracked per call. Rethrows the first
  /// exception a submitted task raised, if any.
  void Wait();

  /// Splits [begin, end) into contiguous shards and runs
  /// `body(shard_begin, shard_end)` across the pool, blocking until done.
  /// Degenerates to an inline call when the range is small or the pool has a
  /// single worker. Safe to call from inside a pool task (nested parallelism)
  /// and from multiple threads concurrently: each call waits only on its own
  /// shards, and while waiting the calling thread executes queued work so
  /// progress is always possible. If any shard throws, the first exception is
  /// rethrown on the calling thread after all shards have finished.
  void ParallelFor(int64_t begin, int64_t end,
                   const std::function<void(int64_t, int64_t)>& body,
                   int64_t min_shard = 1);

  /// Process-wide pool shared by the tensor kernels.
  static ThreadPool* Global();

 private:
  // Completion state for one ParallelFor call or the pool-wide Submit group.
  struct TaskGroup {
    std::mutex mu;
    std::condition_variable cv;
    int64_t pending = 0;
    std::exception_ptr error;  // first exception raised by a member task
  };

  struct Task {
    std::function<void()> fn;
    TaskGroup* group;
  };

  void WorkerLoop();
  void Enqueue(std::vector<Task> tasks);
  bool TryPop(Task* task);
  // Runs the task, recording any exception in its group, then marks it done.
  static void RunTask(Task* task);

  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  TaskGroup submit_group_;
  bool stop_ = false;
};

}  // namespace rita

#endif  // RITA_UTIL_THREAD_POOL_H_
