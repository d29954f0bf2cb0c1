// Client-side router over a replica fleet. Consistent-hashes each request's
// (model_id, content-hash) route key onto a ring of virtual nodes for the
// LIVE replicas, so:
//
//   - identical requests always land on the same replica -> each replica's
//     content-hash result cache (PR 3) holds a disjoint shard of the fleet's
//     working set, no coordination needed;
//   - when a replica dies, only its arc of the ring remaps (to the
//     survivors); the other replicas' cache shards stay hot.
//
// Backpressure and failure stay typed, mirroring local admission:
//
//   kOutOfMemory   the target replica's outstanding-request cap is hit
//                  (the router-side analogue of the engine's queue caps)
//   kUnavailable   no live replicas, a connect/request timed out, or a
//                  replica vanished while this request was on its wire
//                  (retryable: a resubmit re-routes across the rebuilt
//                  ring). Requests a dead replica had queued but never sent
//                  re-route to the survivors transparently — they were
//                  never on the wire, so failover cannot double-execute.
//
// Each replica gets `connections_per_replica` persistent connections, one
// I/O thread each, driving one exchange at a time off a per-replica queue.
// Control-plane pulls (stats, metrics, model sets) use short-lived
// connections so they never queue behind inference traffic.
#ifndef RITA_DIST_ROUTER_H_
#define RITA_DIST_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/transport.h"
#include "serve/client.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"

namespace rita {
namespace dist {

struct RouterOptions {
  /// Persistent data-plane connections (= concurrent in-flight exchanges)
  /// per replica.
  int connections_per_replica = 2;
  /// Router-side cap on requests admitted-but-unanswered per replica; hits
  /// reject with typed kOutOfMemory backpressure, mirroring engine admission.
  int64_t max_outstanding_per_replica = 256;
  double connect_timeout_ms = 2000.0;
  /// End-to-end budget for one exchange (write + replica compute + read).
  double request_timeout_ms = 30000.0;
  /// Ring points per replica; more points = smoother key spread.
  int virtual_nodes = 64;
  /// Start() fails unless every registered replica is reachable. false lets
  /// a fleet come up degraded (unreachable replicas start dead).
  bool require_all_at_start = true;
};

class Router {
 public:
  explicit Router(const RouterOptions& options = RouterOptions());
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Registers a replica endpoint (before Start()); returns its index.
  int AddReplica(const std::string& host, int port);

  /// Connects to every replica and spawns the I/O threads.
  Status Start();

  /// Fails in-flight and queued requests with kUnavailable, closes the
  /// connections, joins the I/O threads. Idempotent. Replica processes are
  /// NOT touched (see ShutdownReplicas).
  void Shutdown();

  /// Best-effort kShutdown frame to every live replica — asks the replica
  /// process to drain and exit (rolling teardown, integration tests).
  void ShutdownReplicas();

  /// Thread-safe. Routes by consistent hash; resolves the future with a
  /// typed status on rejection or replica failure (never throws/hangs past
  /// the configured timeouts).
  std::future<serve::InferenceResponse> Submit(serve::InferenceRequest request);

  /// Merged stats across live replicas, read from their metric families
  /// (counters/sums add, maxima max, queue depths add). Cumulative since
  /// each replica started: a replica's ResetStatsWindow() does not apply.
  serve::InferenceEngineStats FleetStats();

  /// One Prometheus exposition for the whole fleet: every replica's gauge-
  /// refreshed metric families, each instance tagged with a `replica` label
  /// (replica histograms merge upstream in Prometheus by summing buckets),
  /// plus rita_fleet_replicas / rita_fleet_replicas_live gauges.
  std::string FleetPrometheusText();

  /// Pulls each live replica's registered model set (name, fingerprint,
  /// precision) — the ModelRegistry::Snapshot view over the wire.
  Status FleetModelSets(
      std::vector<std::pair<std::string, std::vector<serve::ModelInfo>>>* out);

  /// OK iff every live replica serves the identical model set (names AND
  /// weight fingerprints). A mismatched fleet would break routed cache
  /// sharding and bit-identity, so routers gate deploys on this.
  Status CheckModelSetsConsistent();

  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  int num_live() const;
  bool replica_live(int index) const;
  const std::string& endpoint(int index) const;

  /// Which replica index a request would route to right now (-1 = none
  /// live). Exposed for tests and cache-sharding diagnostics.
  int RouteIndex(const serve::InferenceRequest& request) const;

 private:
  struct Pending {
    serve::InferenceRequest request;
    std::promise<serve::InferenceResponse> promise;
  };
  struct Replica {
    std::string host;
    int port = 0;
    std::string endpoint;  // "host:port" (metric label, messages)
    std::atomic<bool> live{false};
    std::atomic<int64_t> outstanding{0};
    std::mutex mu;  // guards queue + live transitions vs submit
    std::condition_variable cv;
    std::deque<Pending> queue;
    std::vector<std::shared_ptr<Connection>> conns;
    std::vector<std::thread> io_threads;
  };

  void IoLoop(int replica_index, int conn_index);
  /// Routes `pending` onto the ring and parks it in the target replica's
  /// queue; resolves the promise with a typed status on cap rejection or an
  /// empty fleet. Used by Submit and by MarkDead's transparent re-route of
  /// never-sent requests.
  void Enqueue(Pending&& pending);
  /// Marks dead, wakes its threads, rebuilds the ring, re-routes its queued
  /// (never-sent) requests to the survivors. Safe to call repeatedly /
  /// concurrently. Only in-flight exchanges fail with kUnavailable.
  void MarkDead(int replica_index, const Status& why);
  void RebuildRing();
  static void Resolve(Pending&& pending, Status status);
  /// Short-lived control-plane exchange with one replica.
  Status ControlExchange(int replica_index, MessageType pull,
                         MessageType expected_reply,
                         std::vector<uint8_t>* reply_payload);

  RouterOptions options_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::mutex shutdown_mu_;

  mutable std::mutex ring_mu_;
  /// (point, replica index), sorted by point; live replicas only.
  std::vector<std::pair<uint64_t, int>> ring_;
};

/// serve::Client facade over a borrowed Router (must outlive the client):
/// the drop-in remote backend for anything written against the Client
/// interface.
class RemoteClient : public serve::Client {
 public:
  explicit RemoteClient(Router* router);

  std::future<serve::InferenceResponse> Submit(
      serve::InferenceRequest request) override;
  serve::InferenceEngineStats Stats() override;
  void Shutdown() override;

  Router* router() const { return router_; }

 private:
  Router* router_;
};

}  // namespace dist
}  // namespace rita

#endif  // RITA_DIST_ROUTER_H_
