#include "serve/scheduler.h"

#include <algorithm>
#include <chrono>

namespace rita {
namespace serve {

namespace {

/// Per-request selection key; smaller runs first.
struct SchedKey {
  int effective_class = 1;  // 0 = interactive (native or aged-in), 1 = batch
  ServeClock::time_point effective_deadline = kNoDeadline;
  uint64_t sequence = 0;

  bool operator<(const SchedKey& other) const {
    if (effective_class != other.effective_class) {
      return effective_class < other.effective_class;
    }
    if (effective_deadline != other.effective_deadline) {
      return effective_deadline < other.effective_deadline;
    }
    return sequence < other.sequence;
  }
};

SchedKey KeyFor(const ScheduledRequest& request, ServeClock::time_point now,
                double bulk_aging_ms) {
  SchedKey key;
  key.sequence = request.sequence;
  key.effective_deadline = request.request.deadline;
  if (request.request.priority == Priority::kInteractive) {
    key.effective_class = 0;
    return key;
  }
  const auto aging = std::chrono::duration_cast<ServeClock::duration>(
      std::chrono::duration<double, std::milli>(bulk_aging_ms));
  const ServeClock::time_point promoted_at = request.enqueued + aging;
  if (promoted_at <= now) {
    // Aged bulk: promoted with an already-elapsed deadline so it precedes
    // every fresh request whose deadline still lies in the future.
    key.effective_class = 0;
    key.effective_deadline = std::min(key.effective_deadline, promoted_at);
  }
  return key;
}

}  // namespace

Scheduler::Scheduler(const Options& options) : options_(options) {
  RITA_CHECK_GT(options_.max_micro_batch, 0);
  RITA_CHECK_GE(options_.bulk_aging_ms, 0.0);
}

int64_t Scheduler::BatchBudget(int64_t length, int64_t groups) const {
  int64_t budget = options_.max_micro_batch;
  if (options_.planner != nullptr && options_.planner->calibrated()) {
    budget = std::min(budget, options_.planner->PredictBatchSize(
                                  length, std::max<int64_t>(1, groups)));
  }
  return std::max<int64_t>(1, budget);
}

std::vector<ScheduledRequest> Scheduler::Assemble(RequestQueue& queue,
                                                  ServeClock::time_point now,
                                                  const GroupsFn& groups) const {
  if (queue.empty()) return {};

  // Sweep every queued request for the globally most-urgent one (the
  // "carrier"); its bucket hosts this micro-batch. Queue depth is bounded by
  // admission, and the O(depth) sweep is trivial next to a model forward.
  const BucketKey* carrier_bucket = nullptr;
  SchedKey carrier_key;
  for (const auto& entry : queue.buckets()) {
    for (const ScheduledRequest& request : entry.second) {
      const SchedKey key = KeyFor(request, now, options_.bulk_aging_ms);
      if (carrier_bucket == nullptr || key < carrier_key) {
        carrier_bucket = &entry.first;
        carrier_key = key;
      }
    }
  }
  RITA_CHECK(carrier_bucket != nullptr);

  // Fill the batch from the carrier's bucket in key order: urgent requests
  // first, then the bucket's remaining traffic (same model/task/length, so
  // riding along is free) up to the memory-aware budget.
  const RequestQueue::Bucket& bucket = queue.buckets().at(*carrier_bucket);
  std::vector<size_t> order(bucket.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<SchedKey> keys;
  keys.reserve(bucket.size());
  for (const ScheduledRequest& request : bucket) {
    keys.push_back(KeyFor(request, now, options_.bulk_aging_ms));
  }
  std::sort(order.begin(), order.end(),
            [&keys](size_t a, size_t b) { return keys[a] < keys[b]; });

  const int64_t budget =
      BatchBudget(carrier_bucket->length,
                  groups ? groups(carrier_bucket->model_id) : 0);
  if (static_cast<int64_t>(order.size()) > budget) {
    order.resize(static_cast<size_t>(budget));
  }
  // Take() wants ascending bucket positions; the returned batch order is
  // irrelevant to correctness (all rows share one forward).
  std::sort(order.begin(), order.end());
  return queue.Take(*carrier_bucket, order);
}

}  // namespace serve
}  // namespace rita
