#include "dist/replica_server.h"

#include <utility>

#include "dist/serde.h"
#include "util/logging.h"

namespace rita {
namespace dist {

namespace {
// Handlers poll in short slices so Shutdown() is never stuck behind a long
// idle timeout; an idle-timeout slice just loops back into the read.
constexpr double kIdleSliceMs = 250.0;
}  // namespace

ReplicaServer::ReplicaServer(serve::InferenceEngine* engine,
                             const ReplicaServerOptions& options)
    : engine_(engine), options_(options) {
  RITA_CHECK(engine != nullptr);
}

ReplicaServer::~ReplicaServer() { Shutdown(); }

Status ReplicaServer::Start() {
  RITA_RETURN_NOT_OK(listener_.Bind(options_.host, options_.port));
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void ReplicaServer::Shutdown() {
  // Serialize shutdowns; a late caller blocks until the first completes,
  // then returns immediately (same contract as InferenceEngine::Shutdown).
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (stopping_.exchange(true)) return;
  listener_.Close();  // unblocks Accept()
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& weak : conns_) {
      if (auto conn = weak.lock()) conn->ShutdownBoth();
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    handlers.swap(handlers_);
  }
  for (std::thread& t : handlers) {
    if (t.joinable()) t.join();
  }
}

void ReplicaServer::AcceptLoop() {
  for (;;) {
    Result<Connection> accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (stopping_.load()) return;
      RITA_LOG(Warning) << "replica accept failed: "
                        << accepted.status().ToString();
      return;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>(accepted.MoveValueOrDie());
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load()) {
      conn->Close();
      return;
    }
    conns_.push_back(conn);
    handlers_.emplace_back(
        [this, conn = std::move(conn)]() mutable { HandleConnection(conn); });
  }
}

void ReplicaServer::HandleConnection(std::shared_ptr<Connection> conn) {
  while (!stopping_.load()) {
    if (!HandleOneFrame(*conn)) break;
  }
  conn->Close();
}

bool ReplicaServer::HandleOneFrame(Connection& conn) {
  MessageType type;
  std::vector<uint8_t> payload;
  ReadEvent event;
  Status st =
      conn.ReadFrame(&type, &payload, kIdleSliceMs, options_.io_timeout_ms, &event);
  if (!st.ok()) {
    if (event.idle_timeout) return !stopping_.load();  // quiet peer: keep waiting
    if (!event.clean_eof) {
      // Garbage, truncation or a version skew: count it and close cleanly —
      // one hostile or broken peer never takes the server down.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  }

  switch (type) {
    case MessageType::kRequest: {
      serve::InferenceRequest request;
      WireReader reader(payload);
      Status decoded = DecodeRequest(&reader, &request);
      serve::InferenceResponse response;
      if (!decoded.ok()) {
        // Well-framed but undecodable: a typed reply, not a dropped
        // connection — the peer's frame accounting stays in sync.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        response.status = decoded;
      } else {
        response = engine_->Submit(std::move(request)).get();
        requests_served_.fetch_add(1, std::memory_order_relaxed);
      }
      WireWriter writer;
      EncodeResponse(response, &writer);
      return conn.WriteFrame(MessageType::kResponse, writer.buffer()).ok();
    }
    case MessageType::kMetricsPull: {
      WireWriter writer;
      EncodeMetricFamilies(engine_->CollectMetrics(), &writer);
      return conn.WriteFrame(MessageType::kMetricsReply, writer.buffer()).ok();
    }
    case MessageType::kModelsPull: {
      WireWriter writer;
      EncodeModelSet(*engine_->registry().Snapshot(), &writer);
      return conn.WriteFrame(MessageType::kModelsReply, writer.buffer()).ok();
    }
    case MessageType::kPing: {
      return conn.WriteFrame(MessageType::kPong, {}).ok();
    }
    case MessageType::kShutdown: {
      (void)conn.WriteFrame(MessageType::kPong, {});
      if (options_.on_remote_shutdown) options_.on_remote_shutdown();
      return false;
    }
    default: {
      // A reply type (or future type) arriving at a server is a protocol
      // violation.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
}

}  // namespace dist
}  // namespace rita
