#include "dist/transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <utility>

#include "dist/serde.h"

namespace rita {
namespace dist {

namespace {

using Clock = std::chrono::steady_clock;

double MsUntil(Clock::time_point deadline) {
  return std::chrono::duration<double, std::milli>(deadline - Clock::now())
      .count();
}

// poll() for `events` until `deadline`, retrying EINTR. Returns +1 ready,
// 0 timeout, -1 error (errno set).
int PollUntil(int fd, short events, Clock::time_point deadline) {
  for (;;) {
    const double remaining = MsUntil(deadline);
    if (remaining <= 0.0) return 0;
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    // Round up so a sub-millisecond remainder still waits instead of
    // busy-spinning at timeout 0.
    const int timeout = static_cast<int>(remaining) + 1;
    const int rc = poll(&pfd, 1, timeout);
    if (rc > 0) return 1;
    if (rc == 0) continue;  // re-check the deadline
    if (errno == EINTR) continue;
    return -1;
  }
}

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

void SetNoDelay(int fd) {
  int one = 1;
  // Best-effort: fails harmlessly on non-TCP fds (tests use socketpairs).
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// True iff `wire_type` is a MessageType this build speaks. 3 and 4 were the
// stats pull/reply pair (wire v2); their values stay retired.
bool IsKnownMessageType(uint16_t wire_type) {
  return wire_type >= static_cast<uint16_t>(MessageType::kRequest) &&
         wire_type <= static_cast<uint16_t>(MessageType::kPong) &&
         wire_type != 3 && wire_type != 4;
}

}  // namespace

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kRequest:
      return "Request";
    case MessageType::kResponse:
      return "Response";
    case MessageType::kMetricsPull:
      return "MetricsPull";
    case MessageType::kMetricsReply:
      return "MetricsReply";
    case MessageType::kModelsPull:
      return "ModelsPull";
    case MessageType::kModelsReply:
      return "ModelsReply";
    case MessageType::kShutdown:
      return "Shutdown";
    case MessageType::kPing:
      return "Ping";
    case MessageType::kPong:
      return "Pong";
  }
  return "Unknown";
}

// ---------------------------------------------------------------------------
// Connection

Connection::Connection(int fd) : fd_(fd) {
  if (fd >= 0) SetNoDelay(fd);
}

Connection::~Connection() { Close(); }

Connection::Connection(Connection&& other) noexcept
    : fd_(other.fd_.exchange(-1, std::memory_order_acq_rel)) {}

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    Close();
    fd_.store(other.fd_.exchange(-1, std::memory_order_acq_rel),
              std::memory_order_release);
  }
  return *this;
}

void Connection::Close() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

void Connection::ShutdownBoth() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

Result<Connection> Connection::Connect(const std::string& host, int port,
                                       double timeout_ms) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable IPv4 host: " + host);
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Connection conn(fd);  // owns the fd from here; closes on every error path

  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(timeout_ms));
  int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr));
  if (rc != 0) {
    if (errno != EINPROGRESS) {
      return Status::Unavailable("connect " + host + ":" +
                                 std::to_string(port) + ": " +
                                 std::strerror(errno));
    }
    const int ready = PollUntil(fd, POLLOUT, deadline);
    if (ready < 0) return Errno("poll(connect)");
    if (ready == 0) {
      return Status::Unavailable("connect " + host + ":" +
                                 std::to_string(port) + " timed out after " +
                                 std::to_string(timeout_ms) + "ms");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
      return Errno("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      return Status::Unavailable("connect " + host + ":" +
                                 std::to_string(port) + ": " +
                                 std::strerror(err));
    }
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) return Errno("fcntl(restore)");
  return conn;
}

Status Connection::WriteFrame(MessageType type,
                              const std::vector<uint8_t>& payload) {
  if (!valid()) return Status::Unavailable("write on closed connection");
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument(
        "frame payload " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxFramePayload) + " cap");
  }
  WireWriter header;
  header.U32(kFrameMagic);
  header.U16(kWireVersion);
  header.U16(static_cast<uint16_t>(type));
  header.U32(static_cast<uint32_t>(payload.size()));

  // One buffer, one send loop: the header must never be split from a tiny
  // payload by an unlucky short write, and TCP_NODELAY makes two sends two
  // packets.
  std::vector<uint8_t> frame = header.Take();
  frame.insert(frame.end(), payload.begin(), payload.end());
  const int fd = fd_.load(std::memory_order_acquire);
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n =
        ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      return Status::Unavailable("peer closed the connection during write");
    }
    return Errno("send");
  }
  return Status::OK();
}

Status Connection::ReadExact(uint8_t* out, size_t n, double first_byte_timeout_ms,
                             double io_timeout_ms, size_t* got) {
  *got = 0;
  const int fd = fd_.load(std::memory_order_acquire);
  Clock::time_point deadline =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(first_byte_timeout_ms));
  while (*got < n) {
    const int ready = PollUntil(fd, POLLIN, deadline);
    if (ready < 0) return Errno("poll(read)");
    if (ready == 0) return Status::Unavailable("read timed out");
    const ssize_t r = ::recv(fd, out + *got, n - *got, 0);
    if (r > 0) {
      const bool first = *got == 0;
      *got += static_cast<size_t>(r);
      if (first) {
        // The frame has started: switch from the idle timeout to the
        // per-transfer timeout.
        deadline = Clock::now() +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(io_timeout_ms));
      }
      continue;
    }
    if (r == 0) return Status::Unavailable("connection closed");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) continue;  // poll raced
    if (errno == ECONNRESET) {
      return Status::Unavailable("connection reset by peer");
    }
    return Errno("recv");
  }
  return Status::OK();
}

Status Connection::ReadFrame(MessageType* type, std::vector<uint8_t>* payload,
                             double idle_timeout_ms, double io_timeout_ms,
                             ReadEvent* event) {
  if (event != nullptr) *event = ReadEvent();
  if (!valid()) return Status::Unavailable("read on closed connection");

  uint8_t header[kFrameHeaderBytes];
  size_t got = 0;
  Status st = ReadExact(header, sizeof(header), idle_timeout_ms, io_timeout_ms,
                        &got);
  if (!st.ok()) {
    if (got == 0 && event != nullptr) {
      // Nothing of the next frame arrived: a benign lifecycle event, not a
      // protocol violation.
      if (st.code() == StatusCode::kUnavailable &&
          st.message() == "read timed out") {
        event->idle_timeout = true;
      } else if (st.code() == StatusCode::kUnavailable) {
        event->clean_eof = true;
      }
      return st;
    }
    if (st.code() == StatusCode::kUnavailable) {
      return Status::IoError("connection closed mid-frame (header truncated at " +
                             std::to_string(got) + " of " +
                             std::to_string(sizeof(header)) + " bytes)");
    }
    return st;
  }

  WireReader reader(header, sizeof(header));
  const uint32_t magic = reader.U32();
  const uint16_t version = reader.U16();
  const uint16_t wire_type = reader.U16();
  const uint32_t length = reader.U32();
  if (magic != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic (garbage on the wire)");
  }
  if (version != kWireVersion) {
    return Status::NotSupported("frame version " + std::to_string(version) +
                                " (this build speaks " +
                                std::to_string(kWireVersion) + ")");
  }
  if (!IsKnownMessageType(wire_type)) {
    return Status::InvalidArgument("unknown message type " +
                                   std::to_string(wire_type));
  }
  if (length > kMaxFramePayload) {
    return Status::InvalidArgument(
        "frame length prefix " + std::to_string(length) + " exceeds the " +
        std::to_string(kMaxFramePayload) + "-byte cap");
  }

  payload->resize(length);
  if (length > 0) {
    st = ReadExact(payload->data(), length, io_timeout_ms, io_timeout_ms, &got);
    if (!st.ok()) {
      if (st.code() == StatusCode::kUnavailable &&
          st.message() == "read timed out") {
        return Status::Unavailable("read timed out mid-frame (" +
                                   std::to_string(got) + " of " +
                                   std::to_string(length) + " payload bytes)");
      }
      if (st.code() == StatusCode::kUnavailable) {
        return Status::IoError(
            "connection closed mid-frame (payload truncated at " +
            std::to_string(got) + " of " + std::to_string(length) + " bytes)");
      }
      return st;
    }
  }
  *type = static_cast<MessageType>(wire_type);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Listener

Listener::~Listener() { Close(); }

Status Listener::Bind(const std::string& host, int port) {
  RITA_CHECK(fd_.load(std::memory_order_acquire) < 0)
      << "Listener already bound";
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable IPv4 host: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status st = Errno("bind");
    ::close(fd);
    return st;
  }
  if (::listen(fd, 64) < 0) {
    const Status st = Errno("listen");
    ::close(fd);
    return st;
  }
  struct sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) < 0) {
    const Status st = Errno("getsockname");
    ::close(fd);
    return st;
  }
  fd_.store(fd, std::memory_order_release);
  port_ = static_cast<int>(ntohs(bound.sin_port));
  return Status::OK();
}

Result<Connection> Listener::Accept() {
  for (;;) {
    // Snapshot: Close() may race from another thread.
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0) return Status::Unavailable("listener closed");
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn >= 0) return Connection(conn);
    if (errno == EINTR) continue;
    return Status::Unavailable(std::string("accept: ") + std::strerror(errno));
  }
}

void Listener::Close() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // shutdown() first so a thread blocked in accept() wakes with an error
    // before the fd number can be reused.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace dist
}  // namespace rita
