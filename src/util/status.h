// RocksDB-style Status / Result<T> for recoverable errors. Library code never
// throws; fallible public entry points return Status or Result<T>.
#ifndef RITA_UTIL_STATUS_H_
#define RITA_UTIL_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "util/check.h"

namespace rita {

/// Error taxonomy for recoverable failures.
///
/// The numeric values are STABLE: they are the wire representation of a
/// Status between distributed-serving processes (dist/serde.{h,cc}), so a
/// new code must take the next free number and existing numbers must never
/// be reused or renumbered.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfMemory = 3,
  kIoError = 4,
  kNotSupported = 5,
  kInternal = 6,
  kDeadlineUnmeetable = 7,  // no engine path sets it; the wire ID stays pinned
  kUnavailable = 8,
};

/// Stable name for a code ("OK", "InvalidArgument", ...); "Unknown" for
/// values outside the enum (e.g. decoded from a newer peer).
const char* StatusCodeName(StatusCode code);

/// Value-semantic status object; cheap to copy in the OK case.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfMemory(std::string msg) {
    return Status(StatusCode::kOutOfMemory, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  /// A remote peer (replica, router) is unreachable, timed out, or went away
  /// mid-request. Retryable: the fleet may have live capacity elsewhere.
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  /// Rebuilds a Status from its parts (wire decode); `code` must be a known
  /// StatusCode value.
  static Status FromCode(StatusCode code, std::string msg) {
    if (code == StatusCode::kOk) return OK();
    return Status(code, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable "code: message" rendering.
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg) : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Either a value or an error Status. `ValueOrDie()` aborts on error, mirroring
/// arrow::Result semantics for call sites that have already validated inputs.
template <typename T>
class Result {
 public:
  Result(T value) : payload_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : payload_(std::move(status)) {  // NOLINT(runtime/explicit)
    RITA_CHECK(!std::get<Status>(payload_).ok()) << "Result constructed from OK status";
  }

  bool ok() const { return std::holds_alternative<T>(payload_); }

  const Status& status() const {
    static const Status kOk = Status::OK();
    return ok() ? kOk : std::get<Status>(payload_);
  }

  const T& ValueOrDie() const {
    RITA_CHECK(ok()) << status().ToString();
    return std::get<T>(payload_);
  }

  T&& MoveValueOrDie() {
    RITA_CHECK(ok()) << status().ToString();
    return std::move(std::get<T>(payload_));
  }

 private:
  std::variant<T, Status> payload_;
};

}  // namespace rita

/// Early-return on non-OK status, RocksDB style.
#define RITA_RETURN_NOT_OK(expr)              \
  do {                                        \
    ::rita::Status _st = (expr);              \
    if (!_st.ok()) return _st;                \
  } while (false)

#endif  // RITA_UTIL_STATUS_H_
