// RITA latency ledger: one end-to-end + per-layer benchmark over four
// paper-shaped serving workloads. See README.md for the metric catalogue.
//
// A run is one workload in one process:
//   setup (x5, median = setup_s) -> [fleet] hot-set priming, untimed ->
//   timed phase (tracing off, end-to-end metrics from the half of its
//   windows with the least vCPU steal) -> correctness checks ->
//   [--trace 1] per-layer phase (tracing on, every layer call inside a
//   bench-owned span).
#ifndef RITA_BENCH_LEDGER_LEDGER_H_
#define RITA_BENCH_LEDGER_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/registry.h"
#include "dist/replica_server.h"
#include "dist/router.h"
#include "model/rita_model.h"
#include "serve/client.h"
#include "serve/frozen_model.h"
#include "serve/inference_engine.h"

namespace rita {
namespace ledger {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
double Mean(const std::vector<double>& v);

/// FNV-1a digest of a tensor's float bytes: the bitwise-equality witness the
/// correctness checks compare (shape differences show up as length changes).
uint64_t Digest(const Tensor& t);

/// The plain FrozenModel forward for one serving task over [B, T, C].
Tensor PlainForward(const serve::FrozenModel& model, serve::ServeTask task,
                    const Tensor& batch);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run measured and checked.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> failures;  // correctness failures (empty = correct)
  int64_t attempted = 0;
  int64_t failed = 0;

  void EndToEnd(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void Fail(const std::string& why) { failures.push_back(why); }
};

enum class Workload { kInteractive, kLongSeries, kBulk, kFleet };

struct TaskShare {
  serve::ServeTask task;
  double share;
};

/// A workload's fixed shape; only the inputs drawn from it depend on --seed.
struct WorkloadSpec {
  Workload kind;
  std::string name;
  data::PaperDataset dataset;
  int64_t window = 0;  // conv window = stride
  int64_t groups = 0;  // group-attention N
  std::vector<TaskShare> mix;
  int warmup = 0;            // setup warm-up requests (fresh series)
  int workers = 0;           // engine executor threads (per replica for fleet)
  int64_t layer_batch = 1;   // B of the per-layer forward shape
  // The timed phase is cut into windows this long, and the end-to-end
  // metrics come from the half of them with the least vCPU steal
  // (latency_p99_ms: the median of those windows' p99s). Each window holds
  // at least ~50 requests (bulk: ~18 micro-batches), and windows are short
  // enough that a burst of steal spoils few of them.
  double window_s = 1.0;
};

const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

/// Deterministic request inputs: series content, task and pool slot depend
/// only on (seed, id), so any request can be rebuilt after the timed phase
/// for checking. Every id stamps a unique value into element 0 of its series,
/// so distinct ids are distinct cache keys.
class Inputs {
 public:
  Inputs(const WorkloadSpec& spec, uint64_t seed);

  serve::ServeTask TaskOf(uint64_t id) const;
  Tensor Series(uint64_t id) const;  // [T, C]
  serve::InferenceRequest Request(uint64_t id) const;
  /// [B, T, C] stack of consecutive ids starting at `first`.
  Tensor Batch(uint64_t first, int64_t b) const;

  int64_t length() const { return pool_.size(1); }
  int64_t channels() const { return pool_.size(2); }
  int64_t num_classes() const { return num_classes_; }

 private:
  const WorkloadSpec& spec_;
  uint64_t seed_;
  Tensor pool_;  // [P, T, C]
  int64_t num_classes_ = 0;
};

// Request-id ranges. Measured requests count up from 0 (fleet reserves
// [0, kHotSetSize) for the hot set); warm-up and probes use disjoint ranges
// so they never pre-warm a measured key.
inline constexpr uint64_t kHotSetSize = 512;
inline constexpr uint64_t kWarmupIdBase = 1u << 21;
inline constexpr uint64_t kProbeIdBase = 1u << 22;

/// A built serving stack for one workload: the source model (eval mode, used
/// by the staged forward), its frozen replica(s), and the client the load
/// generator drives.
class Stack {
 public:
  static std::unique_ptr<Stack> Build(const WorkloadSpec& spec, const Inputs& inputs);
  ~Stack();

  serve::Client* client() { return client_.get(); }
  model::RitaModel* source() { return source_.get(); }
  /// Plain FrozenModel over the same weights, local to this process (built
  /// on first use for the fleet, outside setup timing).
  const serve::FrozenModel& reference();
  /// Engine behind replica 0 (the only engine for local workloads).
  serve::InferenceEngine* engine() { return engines_.front().get(); }
  /// Router (fleet only; null otherwise).
  dist::Router* router() { return router_.get(); }
  /// Port of replica 0's server (fleet only; 0 otherwise).
  int replica0_port() const;

  void Shutdown();

 private:
  Stack() = default;
  std::unique_ptr<model::RitaModel> source_;
  std::vector<std::unique_ptr<serve::FrozenModel>> frozen_;
  std::unique_ptr<serve::FrozenModel> fleet_reference_;
  std::vector<std::unique_ptr<serve::InferenceEngine>> engines_;
  std::vector<std::unique_ptr<dist::ReplicaServer>> servers_;
  std::unique_ptr<dist::Router> router_;
  std::unique_ptr<serve::Client> client_;
  bool shut_down_ = false;
};

/// Runs the workload's timed phase on `stack` for `seconds`, checks the
/// responses, and fills the end-to-end metrics plus the serve-side per-layer
/// metrics (gen.*, engine.*, cache.hit_ratio).
void RunTimedPhase(const WorkloadSpec& spec, const Inputs& inputs, uint64_t seed,
                   double seconds, Stack* stack, Report* report);

/// Per-layer phase (tracing on): staged vs plain forward, the O(nN) sweep,
/// direct ResultCache and dist probes. Always checks the staged forward's
/// bit-identity; with `measure` false only that check runs.
void RunLayerPhase(const WorkloadSpec& spec, const Inputs& inputs, Stack* stack,
                   bool measure, Report* report);

}  // namespace ledger
}  // namespace rita

#endif  // RITA_BENCH_LEDGER_LEDGER_H_
