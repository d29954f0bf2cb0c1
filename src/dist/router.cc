#include "dist/router.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <sstream>
#include <utility>

#include "dist/serde.h"
#include "obs/prometheus.h"
#include "util/logging.h"

namespace rita {
namespace dist {

namespace {

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// splitmix64 finalizer. FNV alone has weak avalanche over inputs that differ
// only in a short suffix (endpoint + "#" + vnode), which clusters the ring
// points badly enough that one replica can own almost the whole key space.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

serve::InferenceResponse ErrorResponse(Status status) {
  serve::InferenceResponse response;
  response.status = std::move(status);
  return response;
}

}  // namespace

Router::Router(const RouterOptions& options) : options_(options) {
  RITA_CHECK(options_.connections_per_replica >= 1);
  RITA_CHECK(options_.virtual_nodes >= 1);
}

Router::~Router() { Shutdown(); }

int Router::AddReplica(const std::string& host, int port) {
  RITA_CHECK(!started_.load()) << "AddReplica after Start()";
  auto replica = std::make_unique<Replica>();
  replica->host = host;
  replica->port = port;
  replica->endpoint = host + ":" + std::to_string(port);
  replicas_.push_back(std::move(replica));
  return static_cast<int>(replicas_.size()) - 1;
}

Status Router::Start() {
  RITA_CHECK(!started_.exchange(true)) << "Router::Start called twice";
  if (replicas_.empty()) {
    return Status::InvalidArgument("router has no replicas registered");
  }
  for (auto& replica : replicas_) {
    bool ok = true;
    for (int c = 0; c < options_.connections_per_replica; ++c) {
      Result<Connection> conn = Connection::Connect(
          replica->host, replica->port, options_.connect_timeout_ms);
      if (!conn.ok()) {
        if (options_.require_all_at_start) {
          Shutdown();
          return Status::Unavailable("replica " + replica->endpoint +
                                     " unreachable at router start: " +
                                     conn.status().message());
        }
        ok = false;
        break;
      }
      replica->conns.push_back(
          std::make_shared<Connection>(conn.MoveValueOrDie()));
    }
    replica->live.store(ok, std::memory_order_release);
  }
  RebuildRing();
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (!replicas_[r]->live.load()) continue;
    for (int c = 0; c < options_.connections_per_replica; ++c) {
      replicas_[r]->io_threads.emplace_back(
          [this, r, c] { IoLoop(static_cast<int>(r), c); });
    }
  }
  return Status::OK();
}

void Router::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (stopping_.exchange(true)) return;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    Replica& rep = *replicas_[r];
    std::deque<Pending> drained;
    {
      std::lock_guard<std::mutex> lock(rep.mu);
      rep.live.store(false, std::memory_order_release);
      drained.swap(rep.queue);
    }
    rep.cv.notify_all();
    for (auto& conn : rep.conns) conn->ShutdownBoth();
    for (Pending& pending : drained) {
      rep.outstanding.fetch_sub(1, std::memory_order_relaxed);
      Resolve(std::move(pending), Status::Unavailable("router shutting down"));
    }
  }
  for (auto& replica : replicas_) {
    for (std::thread& t : replica->io_threads) {
      if (t.joinable()) t.join();
    }
    replica->io_threads.clear();
    for (auto& conn : replica->conns) conn->Close();
  }
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    ring_.clear();
  }
}

void Router::ShutdownReplicas() {
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (!replicas_[r]->live.load(std::memory_order_acquire)) continue;
    std::vector<uint8_t> reply;
    // Best effort: a replica that died before the frame lands is already in
    // the state we are asking for.
    (void)ControlExchange(static_cast<int>(r), MessageType::kShutdown,
                          MessageType::kPong, &reply);
  }
}

std::future<serve::InferenceResponse> Router::Submit(
    serve::InferenceRequest request) {
  std::promise<serve::InferenceResponse> promise;
  std::future<serve::InferenceResponse> future = promise.get_future();
  if (!started_.load() || stopping_.load()) {
    promise.set_value(ErrorResponse(Status::Unavailable(
        "router is not running (Start() not called or shut down)")));
    return future;
  }
  Pending pending;
  pending.request = std::move(request);
  pending.promise = std::move(promise);
  Enqueue(std::move(pending));
  return future;
}

void Router::Enqueue(Pending&& pending) {
  // Bounded retry: each iteration only repeats when the routed replica died
  // in the window between RouteIndex and the queue lock, and a dead replica
  // never routes twice (RouteIndex skips non-live points).
  for (int attempt = 0; attempt <= num_replicas(); ++attempt) {
    const int index = RouteIndex(pending.request);
    if (index < 0) {
      Resolve(std::move(pending),
              Status::Unavailable(
                  "no live replicas (retry after fleet recovers)"));
      return;
    }
    Replica& rep = *replicas_[index];
    const int64_t outstanding =
        rep.outstanding.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (outstanding > options_.max_outstanding_per_replica) {
      rep.outstanding.fetch_sub(1, std::memory_order_acq_rel);
      Resolve(std::move(pending),
              Status::OutOfMemory(
                  "replica " + rep.endpoint +
                  " outstanding-request cap reached (" +
                  std::to_string(options_.max_outstanding_per_replica) +
                  "): backpressure"));
      return;
    }
    {
      std::lock_guard<std::mutex> lock(rep.mu);
      // Liveness re-check under the same mutex MarkDead drains with, so a
      // request can never be stranded in a dead replica's queue.
      if (rep.live.load(std::memory_order_acquire)) {
        rep.queue.push_back(std::move(pending));
        rep.cv.notify_one();
        return;
      }
    }
    rep.outstanding.fetch_sub(1, std::memory_order_acq_rel);
  }
  Resolve(std::move(pending),
          Status::Unavailable("fleet churning: routing could not settle"));
}

void Router::IoLoop(int replica_index, int conn_index) {
  Replica& rep = *replicas_[replica_index];
  Connection& conn = *rep.conns[conn_index];
  for (;;) {
    Pending item;
    {
      std::unique_lock<std::mutex> lock(rep.mu);
      rep.cv.wait(lock, [&] {
        return stopping_.load() || !rep.live.load(std::memory_order_acquire) ||
               !rep.queue.empty();
      });
      if (stopping_.load() || !rep.live.load(std::memory_order_acquire)) {
        return;
      }
      item = std::move(rep.queue.front());
      rep.queue.pop_front();
    }

    WireWriter writer;
    EncodeRequest(item.request, &writer);
    Status st = conn.WriteFrame(MessageType::kRequest, writer.buffer());
    MessageType type = MessageType::kResponse;
    std::vector<uint8_t> payload;
    if (st.ok()) {
      st = conn.ReadFrame(&type, &payload, options_.request_timeout_ms,
                          options_.request_timeout_ms);
    }
    if (st.ok() && type != MessageType::kResponse) {
      st = Status::InvalidArgument(
          std::string("unexpected reply type from replica: ") +
          MessageTypeName(type));
    }
    serve::InferenceResponse response;
    if (st.ok()) {
      WireReader reader(payload);
      st = DecodeResponse(&reader, &response);
    }
    rep.outstanding.fetch_sub(1, std::memory_order_acq_rel);
    if (!st.ok()) {
      // The exchange is broken (dead peer, timeout, garbage): the stream
      // position is unrecoverable, so the whole replica leaves the ring.
      // Mark dead BEFORE resolving the failed promise — by the time the
      // caller sees kUnavailable, an immediate retry already re-routes to a
      // survivor instead of racing back onto this replica.
      MarkDead(replica_index, st);
      Resolve(std::move(item),
              Status::Unavailable("replica " + rep.endpoint +
                                  " failed mid-request (retry to re-route): " +
                                  st.message()));
      return;
    }
    item.promise.set_value(std::move(response));
  }
}

void Router::MarkDead(int replica_index, const Status& why) {
  Replica& rep = *replicas_[replica_index];
  std::deque<Pending> drained;
  {
    std::lock_guard<std::mutex> lock(rep.mu);
    if (!rep.live.exchange(false, std::memory_order_acq_rel)) return;
    drained.swap(rep.queue);
  }
  RITA_LOG(Warning) << "router: replica " << rep.endpoint
                    << " marked dead: " << why.ToString();
  rep.cv.notify_all();  // sibling I/O threads see !live and exit
  for (auto& conn : rep.conns) conn->ShutdownBoth();
  RebuildRing();
  // Queued-but-never-sent requests were not on the wire, so re-routing them
  // to a survivor cannot double-execute anything — failover is transparent
  // for them. Only the in-flight exchange (handled by the I/O thread that
  // called us) surfaces kUnavailable, because its true fate is unknowable.
  for (Pending& pending : drained) {
    rep.outstanding.fetch_sub(1, std::memory_order_relaxed);
    Enqueue(std::move(pending));
  }
}

void Router::RebuildRing() {
  std::vector<std::pair<uint64_t, int>> ring;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (!replicas_[r]->live.load(std::memory_order_acquire)) continue;
    for (int v = 0; v < options_.virtual_nodes; ++v) {
      const uint64_t point = Mix64(Fnv1a64(replicas_[r]->endpoint) +
                                   static_cast<uint64_t>(v));
      ring.emplace_back(point, static_cast<int>(r));
    }
  }
  std::sort(ring.begin(), ring.end());
  std::lock_guard<std::mutex> lock(ring_mu_);
  ring_.swap(ring);
}

int Router::RouteIndex(const serve::InferenceRequest& request) const {
  const uint64_t key = RouteKey(request);
  std::lock_guard<std::mutex> lock(ring_mu_);
  if (ring_.empty()) return -1;
  // First virtual node clockwise of the key, wrapping at the top. The ring
  // holds live replicas only, but a replica can die between rebuilds — walk
  // past its points so routing drops it the instant it is marked dead, not
  // an arbitrary beat later.
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key,
      [](const std::pair<uint64_t, int>& p, uint64_t k) { return p.first < k; });
  for (size_t step = 0; step < ring_.size(); ++step) {
    if (it == ring_.end()) it = ring_.begin();
    if (replicas_[it->second]->live.load(std::memory_order_acquire)) {
      return it->second;
    }
    ++it;
  }
  return -1;
}

void Router::Resolve(Pending&& pending, Status status) {
  pending.promise.set_value(ErrorResponse(std::move(status)));
}

Status Router::ControlExchange(int replica_index, MessageType pull,
                               MessageType expected_reply,
                               std::vector<uint8_t>* reply_payload) {
  Replica& rep = *replicas_[replica_index];
  Result<Connection> conn =
      Connection::Connect(rep.host, rep.port, options_.connect_timeout_ms);
  if (!conn.ok()) return conn.status();
  Connection c = conn.MoveValueOrDie();
  RITA_RETURN_NOT_OK(c.WriteFrame(pull, {}));
  MessageType type;
  RITA_RETURN_NOT_OK(c.ReadFrame(&type, reply_payload,
                                 options_.request_timeout_ms,
                                 options_.request_timeout_ms));
  if (type != expected_reply) {
    return Status::InvalidArgument(
        std::string("unexpected control reply type: ") +
        MessageTypeName(type));
  }
  return Status::OK();
}

serve::InferenceEngineStats Router::FleetStats() {
  // Every live replica's families side by side: the engine's stats reader
  // sums counters and histogram sums across them and maxes the maxima.
  std::vector<obs::MetricsRegistry::FamilySnapshot> families;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (!replicas_[r]->live.load(std::memory_order_acquire)) continue;
    std::vector<uint8_t> payload;
    Status st = ControlExchange(static_cast<int>(r), MessageType::kMetricsPull,
                                MessageType::kMetricsReply, &payload);
    if (!st.ok()) continue;  // a dying replica drops out of the merge
    std::vector<obs::MetricsRegistry::FamilySnapshot> replica_families;
    WireReader reader(payload);
    if (!DecodeMetricFamilies(&reader, &replica_families).ok()) continue;
    std::move(replica_families.begin(), replica_families.end(),
              std::back_inserter(families));
  }
  return serve::ReadEngineStats(families);
}

std::string Router::FleetPrometheusText() {
  // Merge by family name; each replica's instances get a `replica` label
  // (inserted in key-sorted position — exporters emit labels in stored
  // order).
  std::map<std::string, obs::MetricsRegistry::FamilySnapshot> families;
  int live = 0;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (!replicas_[r]->live.load(std::memory_order_acquire)) continue;
    std::vector<uint8_t> payload;
    Status st = ControlExchange(static_cast<int>(r), MessageType::kMetricsPull,
                                MessageType::kMetricsReply, &payload);
    if (!st.ok()) continue;
    std::vector<obs::MetricsRegistry::FamilySnapshot> replica_families;
    WireReader reader(payload);
    if (!DecodeMetricFamilies(&reader, &replica_families).ok()) continue;
    ++live;
    for (auto& family : replica_families) {
      auto [it, inserted] = families.emplace(family.name, family);
      if (inserted) it->second.instances.clear();
      for (auto& instance : family.instances) {
        obs::LabelSet labels = std::move(instance.labels);
        auto pos = std::lower_bound(
            labels.begin(), labels.end(), std::string("replica"),
            [](const std::pair<std::string, std::string>& l,
               const std::string& k) { return l.first < k; });
        labels.insert(pos, {"replica", replicas_[r]->endpoint});
        instance.labels = std::move(labels);
        it->second.instances.push_back(std::move(instance));
      }
    }
  }
  {
    obs::MetricsRegistry::FamilySnapshot fleet;
    fleet.name = "rita_fleet_replicas";
    fleet.help = "Replicas registered with this router.";
    fleet.type = obs::MetricType::kGauge;
    fleet.instances.push_back(
        {{}, static_cast<double>(replicas_.size()), obs::HistogramSnapshot()});
    families.emplace(fleet.name, std::move(fleet));

    obs::MetricsRegistry::FamilySnapshot fleet_live;
    fleet_live.name = "rita_fleet_replicas_live";
    fleet_live.help = "Replicas that answered the last metrics pull.";
    fleet_live.type = obs::MetricType::kGauge;
    fleet_live.instances.push_back(
        {{}, static_cast<double>(live), obs::HistogramSnapshot()});
    families.emplace(fleet_live.name, std::move(fleet_live));
  }
  std::vector<obs::MetricsRegistry::FamilySnapshot> ordered;
  ordered.reserve(families.size());
  for (auto& [name, family] : families) ordered.push_back(std::move(family));
  return obs::PrometheusText(ordered);
}

Status Router::FleetModelSets(
    std::vector<std::pair<std::string, std::vector<serve::ModelInfo>>>* out) {
  out->clear();
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (!replicas_[r]->live.load(std::memory_order_acquire)) continue;
    std::vector<uint8_t> payload;
    RITA_RETURN_NOT_OK(ControlExchange(static_cast<int>(r),
                                       MessageType::kModelsPull,
                                       MessageType::kModelsReply, &payload));
    std::vector<serve::ModelInfo> models;
    WireReader reader(payload);
    RITA_RETURN_NOT_OK(DecodeModelSet(&reader, &models));
    out->emplace_back(replicas_[r]->endpoint, std::move(models));
  }
  return Status::OK();
}

Status Router::CheckModelSetsConsistent() {
  std::vector<std::pair<std::string, std::vector<serve::ModelInfo>>> sets;
  RITA_RETURN_NOT_OK(FleetModelSets(&sets));
  if (sets.size() <= 1) return Status::OK();
  auto signature = [](const std::vector<serve::ModelInfo>& models) {
    std::vector<std::pair<std::string, uint64_t>> sig;
    sig.reserve(models.size());
    for (const auto& m : models) sig.emplace_back(m.name, m.fingerprint);
    std::sort(sig.begin(), sig.end());
    return sig;
  };
  const auto reference = signature(sets[0].second);
  for (size_t i = 1; i < sets.size(); ++i) {
    if (signature(sets[i].second) != reference) {
      return Status::InvalidArgument(
          "fleet model sets diverge: replica " + sets[0].first +
          " and replica " + sets[i].first +
          " serve different models or weight fingerprints (routing and "
          "bit-identity would break)");
    }
  }
  return Status::OK();
}

int Router::num_live() const {
  int live = 0;
  for (const auto& replica : replicas_) {
    if (replica->live.load(std::memory_order_acquire)) ++live;
  }
  return live;
}

bool Router::replica_live(int index) const {
  return replicas_[index]->live.load(std::memory_order_acquire);
}

const std::string& Router::endpoint(int index) const {
  return replicas_[index]->endpoint;
}

RemoteClient::RemoteClient(Router* router) : router_(router) {
  RITA_CHECK(router != nullptr);
}

std::future<serve::InferenceResponse> RemoteClient::Submit(
    serve::InferenceRequest request) {
  return router_->Submit(std::move(request));
}

serve::InferenceEngineStats RemoteClient::Stats() {
  return router_->FleetStats();
}

void RemoteClient::Shutdown() { router_->Shutdown(); }

}  // namespace dist
}  // namespace rita
