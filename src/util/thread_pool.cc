#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace rita {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 2;
  }
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Enqueue(std::vector<Task> tasks) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    RITA_CHECK(!stop_) << "Enqueue on stopped pool";
    for (auto& t : tasks) queue_.push_back(std::move(t));
  }
  if (tasks.size() == 1) {
    cv_task_.notify_one();
  } else {
    cv_task_.notify_all();
  }
}

bool ThreadPool::TryPop(Task* task) {
  std::unique_lock<std::mutex> lock(mu_);
  if (queue_.empty()) return false;
  *task = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

void ThreadPool::RunTask(Task* task) {
  std::exception_ptr error;
  try {
    task->fn();
  } catch (...) {
    error = std::current_exception();
  }
  TaskGroup* group = task->group;
  // Notify under the group lock: the owner frees the group the moment it
  // observes pending == 0, so nothing may touch it after the unlock below.
  std::lock_guard<std::mutex> lock(group->mu);
  if (error && !group->error) group->error = std::move(error);
  if (--group->pending == 0) group->cv.notify_all();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(submit_group_.mu);
    ++submit_group_.pending;
  }
  std::vector<Task> tasks;
  tasks.push_back(Task{std::move(task), &submit_group_});
  Enqueue(std::move(tasks));
}

void ThreadPool::Wait() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(submit_group_.mu);
    submit_group_.cv.wait(lock, [this] { return submit_group_.pending == 0; });
    error = std::exchange(submit_group_.error, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    RunTask(&task);
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end,
                             const std::function<void(int64_t, int64_t)>& body,
                             int64_t min_shard) {
  const int64_t total = end - begin;
  if (total <= 0) return;
  const int threads = num_threads();
  if (threads <= 1 || total <= min_shard) {
    body(begin, end);
    return;
  }
  const int64_t num_shards =
      std::min<int64_t>(threads, std::max<int64_t>(1, total / std::max<int64_t>(1, min_shard)));
  if (num_shards <= 1) {
    body(begin, end);
    return;
  }
  const int64_t shard_size = (total + num_shards - 1) / num_shards;
  std::vector<std::pair<int64_t, int64_t>> shards;
  for (int64_t s = begin; s < end; s += shard_size) {
    shards.emplace_back(s, std::min(end, s + shard_size));
  }

  // This call's own completion tracker; shards of other callers (or of nested
  // calls) belong to their own groups and are never waited on here.
  TaskGroup group;
  group.pending = static_cast<int64_t>(shards.size()) - 1;
  std::vector<Task> tasks;
  tasks.reserve(shards.size() - 1);
  for (size_t i = 1; i < shards.size(); ++i) {
    const auto [s, e] = shards[i];
    tasks.push_back(Task{[&body, s, e] { body(s, e); }, &group});
  }
  Enqueue(std::move(tasks));

  // Run one shard inline to keep the calling thread busy.
  std::exception_ptr inline_error;
  try {
    body(shards[0].first, shards[0].second);
  } catch (...) {
    inline_error = std::current_exception();
  }

  // Help-while-waiting: if our shards are still queued, execute them (or any
  // other queued work) ourselves. We only sleep once every queued task has
  // been claimed, at which point the claiming threads are guaranteed to make
  // progress and eventually drain our group — so nesting cannot deadlock.
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(group.mu);
      if (group.pending == 0) break;
    }
    Task task;
    if (TryPop(&task)) {
      RunTask(&task);
      continue;
    }
    std::unique_lock<std::mutex> lock(group.mu);
    group.cv.wait(lock, [&group] { return group.pending == 0; });
    break;
  }

  if (inline_error) std::rethrow_exception(inline_error);
  if (group.error) std::rethrow_exception(group.error);
}

ThreadPool* ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool();
  return pool;
}

}  // namespace rita
