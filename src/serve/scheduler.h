// Policy layer of the serving stack: decides which admitted requests form
// the next micro-batch. Selection is priority-class first (kInteractive
// before kBatch), earliest-deadline-first within a class, FIFO among
// no-deadline peers. Starvation-freedom: a kBatch request older than
// `bulk_aging_ms` is promoted into the interactive class with an *elapsed*
// effective deadline (enqueued + aging), so it beats any fresh request —
// bulk traffic is delayed by interactive bursts but never starved.
//
// Micro-batch assembly stays bucket-shaped (one (model, task, length) bucket
// shares one [B, T, C] forward) and capped by the engine limit and, when a
// calibrated core::BatchPlanner is attached, by its memory-aware
// PredictBatchSize (the paper's Alg. 2/3 plan) — the scheduler can never
// assemble a batch the planner's budget would not admit.
//
// The scheduler is stateless policy over a RequestQueue the engine locks;
// `now` is a parameter (not read internally) so tests can replay any timing.
#ifndef RITA_SERVE_SCHEDULER_H_
#define RITA_SERVE_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/batch_planner.h"
#include "serve/request_queue.h"

namespace rita {
namespace serve {

class Scheduler {
 public:
  struct Options {
    /// Hard cap on the micro-batch size.
    int64_t max_micro_batch = 32;
    /// Age at which a queued kBatch request starts competing as interactive
    /// (with an already-elapsed deadline, so it wins the next sweep).
    double bulk_aging_ms = 500.0;
    /// Optional calibrated planner capping each batch at
    /// PredictBatchSize(length, groups).
    const core::BatchPlanner* planner = nullptr;
  };

  /// Resolves a model id to its group count for the planner cap.
  using GroupsFn = std::function<int64_t(int64_t model_id)>;

  explicit Scheduler(const Options& options);

  /// Pops the next micro-batch from `queue` per the policy above; empty only
  /// when the queue is empty. Caller holds the engine's queue mutex.
  std::vector<ScheduledRequest> Assemble(RequestQueue& queue,
                                         ServeClock::time_point now,
                                         const GroupsFn& groups) const;

  /// Micro-batch budget for requests of `length` on a model with `groups`
  /// groups: planner-capped when one is attached and calibrated.
  int64_t BatchBudget(int64_t length, int64_t groups) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace serve
}  // namespace rita

#endif  // RITA_SERVE_SCHEDULER_H_
