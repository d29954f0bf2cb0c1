// One serving replica: wraps a borrowed InferenceEngine (and through it a
// ModelRegistry) and services framed requests over TCP. Together with the
// Router this is the fleet shape of the serving stack:
//
//   clients -> dist::RemoteClient -> dist::Router --+--> ReplicaServer 0 -> engine
//                (serve::Client)    (consistent     +--> ReplicaServer 1 -> engine
//                                    hashing)       +--> ...
//
// The accept loop hands each connection to its own handler thread; a handler
// runs one exchange at a time (read frame -> dispatch -> write reply), the
// THD CommandChannel shape — routers parallelize by opening several
// connections. Handlers never trust the peer: frame errors and undecodable
// payloads produce a typed reply or a clean connection close, and the engine
// behind the server keeps serving either way.
//
// Served message types:
//   kRequest     -> kResponse    engine Submit + wait (admission errors,
//                                backpressure and all, ride back as the
//                                response's typed Status)
//   kMetricsPull -> kMetricsReply engine CollectMetrics() (mergeable
//                                histogram snapshots — fleet stats and the
//                                fleet Prometheus exposition)
//   kModelsPull  -> kModelsReply registry Snapshot() (model-set diffing)
//   kPing        -> kPong        liveness probe
//   kShutdown    -> kPong        fires options.on_remote_shutdown (replica
//                                processes use it to drain and exit)
#ifndef RITA_DIST_REPLICA_SERVER_H_
#define RITA_DIST_REPLICA_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/transport.h"
#include "serve/inference_engine.h"

namespace rita {
namespace dist {

struct ReplicaServerOptions {
  /// Interface to bind; loopback by default (tests, single-host fleets).
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back from port().
  int port = 0;
  /// Per-chunk I/O timeout once a frame has started; a peer stalled longer
  /// mid-frame forfeits the connection.
  double io_timeout_ms = 30000.0;
  /// Invoked when a peer sends kShutdown (after the kPong reply is written).
  /// Replica processes drain their engine and exit; unset = ignored, so a
  /// stray shutdown frame cannot kill a co-hosted server.
  std::function<void()> on_remote_shutdown;
};

class ReplicaServer {
 public:
  /// `engine` is borrowed and must outlive the server.
  ReplicaServer(serve::InferenceEngine* engine,
                const ReplicaServerOptions& options);
  ~ReplicaServer();

  ReplicaServer(const ReplicaServer&) = delete;
  ReplicaServer& operator=(const ReplicaServer&) = delete;

  /// Binds, listens and spawns the accept loop. Fails (typed) when the port
  /// is taken.
  Status Start();

  /// The bound port (after Start(); ephemeral requests resolve here).
  int port() const { return listener_.port(); }

  /// Stops accepting, closes every live connection, joins the handler
  /// threads. Idempotent. Does NOT shut down the engine — its lifecycle
  /// belongs to the caller.
  void Shutdown();

  // Counters (tests, debugging).
  uint64_t connections_accepted() const { return connections_accepted_.load(); }
  uint64_t requests_served() const { return requests_served_.load(); }
  uint64_t protocol_errors() const { return protocol_errors_.load(); }

 private:
  void AcceptLoop();
  void HandleConnection(std::shared_ptr<Connection> conn);
  /// One read->dispatch->reply exchange. False = close the connection.
  bool HandleOneFrame(Connection& conn);

  serve::InferenceEngine* engine_;
  ReplicaServerOptions options_;
  Listener listener_;
  std::thread accept_thread_;
  std::mutex shutdown_mu_;  // serializes Shutdown(); late callers block
  std::atomic<bool> stopping_{false};

  std::mutex mu_;  // guards handlers_ / conns_
  std::vector<std::thread> handlers_;
  std::vector<std::weak_ptr<Connection>> conns_;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> protocol_errors_{0};
};

}  // namespace dist
}  // namespace rita

#endif  // RITA_DIST_REPLICA_SERVER_H_
