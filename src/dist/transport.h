// Framed, versioned TCP transport for the distributed serving layer.
//
// Every message is one frame:
//
//   +-------------+-------------+-----------+--------------+----------------+
//   | magic (u32) | version u16 | type u16  | length (u32) | payload bytes  |
//   +-------------+-------------+-----------+--------------+----------------+
//
// little-endian, 12-byte header. The receiver validates magic (garbage or a
// non-RITA peer), version (a peer from another release), type, and length (a
// hostile or corrupt length prefix) BEFORE allocating or reading the
// payload, and every failure is a typed Status — never a crash, never an
// unbounded allocation, never a hang past the configured timeout:
//
//   kInvalidArgument  bad magic / unknown type / oversized length
//   kNotSupported     frame version from a different build
//   kIoError          peer vanished mid-frame (truncation)
//   kUnavailable      timeout, connection refused, or clean close
//
// Connections are blocking sockets driven through poll() with explicit
// deadlines; writes use MSG_NOSIGNAL so a dead peer surfaces as a Status
// instead of SIGPIPE. The master-worker dispatch pattern follows THD's
// CommandChannel: small fixed header, explicitly serialized payloads, one
// in-flight exchange per connection (callers parallelize with more
// connections).
#ifndef RITA_DIST_TRANSPORT_H_
#define RITA_DIST_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace rita {
namespace dist {

inline constexpr uint32_t kFrameMagic = 0x44544952;  // "RITD" little-endian
/// Bumped whenever any payload layout changes, so a mixed-version fleet gets
/// a typed kNotSupported instead of a misparsed or trailing-byte payload.
/// v2: the engine-stats payload dropped the two task-graph counters.
/// v3: the stats messages (types 3 and 4) are gone; fleet stats are read
/// from the kMetricsReply families.
inline constexpr uint16_t kWireVersion = 3;
/// Hard cap on one frame's payload: a garbage length prefix beyond this is
/// rejected before any allocation. Generous for [T, C] series tensors.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;
inline constexpr size_t kFrameHeaderBytes = 12;

enum class MessageType : uint16_t {
  kRequest = 1,       // serde::EncodeRequest payload
  kResponse = 2,      // serde::EncodeResponse payload
  // 3 and 4 (the removed stats pull/reply) are unknown types.
  kMetricsPull = 5,   // empty payload
  kMetricsReply = 6,  // serde::EncodeMetricFamilies payload
  kModelsPull = 7,    // empty payload
  kModelsReply = 8,   // serde::EncodeModelSet payload
  kShutdown = 9,      // empty payload: ask the replica process to drain+exit
  kPing = 10,         // empty payload (health check)
  kPong = 11,         // empty payload
};

const char* MessageTypeName(MessageType type);

/// Extra context a frame read reports alongside its Status, so callers can
/// tell an idle-timeout or orderly close (normal connection lifecycle) from
/// a mid-frame failure (protocol violation — close the connection).
struct ReadEvent {
  /// Peer closed cleanly at a frame boundary (0 bytes of the next frame).
  bool clean_eof = false;
  /// Timed out waiting for the FIRST byte of a frame (idle connection, not
  /// a stuck transfer).
  bool idle_timeout = false;
};

/// One stream socket. Move-only; owns and closes the fd.
class Connection {
 public:
  Connection() = default;
  /// Adopts an already-connected fd (server accept path, tests over
  /// socketpair). Applies TCP_NODELAY when the fd is a TCP socket.
  explicit Connection(int fd);
  ~Connection();
  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Connects to host:port with a bounded handshake (non-blocking connect +
  /// poll). Refused/timeout/unreachable => kUnavailable.
  static Result<Connection> Connect(const std::string& host, int port,
                                    double timeout_ms);

  bool valid() const { return fd_.load(std::memory_order_acquire) >= 0; }
  int fd() const { return fd_.load(std::memory_order_acquire); }
  void Close();
  /// shutdown(SHUT_RDWR): unblocks a peer or a thread blocked in ReadFrame
  /// without racing the fd close.
  void ShutdownBoth();

  /// Writes one complete frame (header + payload). Payload must fit
  /// kMaxFramePayload.
  Status WriteFrame(MessageType type, const std::vector<uint8_t>& payload);

  /// Reads one complete frame. Waits up to `idle_timeout_ms` for the first
  /// byte; once a frame has started, each subsequent chunk must arrive
  /// within `io_timeout_ms`. On any non-OK status the stream position is
  /// unrecoverable and the caller must close the connection; `event` (when
  /// non-null) distinguishes the benign cases.
  Status ReadFrame(MessageType* type, std::vector<uint8_t>* payload,
                   double idle_timeout_ms, double io_timeout_ms,
                   ReadEvent* event = nullptr);

 private:
  Status ReadExact(uint8_t* out, size_t n, double first_byte_timeout_ms,
                   double io_timeout_ms, size_t* got);
  /// Atomic so a cross-thread ShutdownBoth() (the sanctioned way to unblock
  /// this connection's I/O thread) never races the owner's Close().
  std::atomic<int> fd_{-1};
};

/// Listening TCP socket (loopback or all-interfaces), ephemeral-port aware.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens; port 0 picks an ephemeral port (read it back from
  /// port()).
  Status Bind(const std::string& host, int port);
  int port() const { return port_; }
  bool valid() const { return fd_.load(std::memory_order_acquire) >= 0; }

  /// Blocks until a connection arrives or Close() is called from another
  /// thread (then returns kUnavailable).
  Result<Connection> Accept();

  /// Thread-safe: closes the listening socket, unblocking Accept().
  void Close();

 private:
  /// Atomic: Close() races Accept() by design (it is how the accept loop is
  /// unblocked at shutdown).
  std::atomic<int> fd_{-1};
  int port_ = 0;
};

}  // namespace dist
}  // namespace rita

#endif  // RITA_DIST_TRANSPORT_H_
