// Status and Result<T>: exception-free error handling for the MODB library.
//
// The library follows the Google C++ style rule of not using exceptions.
// Every fallible constructor is a static factory returning Result<T>, so
// invariant-carrying types (Line, Region, Mapping, units) can never exist
// in an invalid state.

#ifndef MODB_CORE_STATUS_H_
#define MODB_CORE_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace modb {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
  // Unrecoverable loss or corruption of stored data (short device
  // read/write, torn page detected by checksum). Unlike kInternal —
  // which storage treats as transient and retryable — a DataLoss error
  // is permanent: retrying the same I/O cannot succeed.
  kDataLoss,
  // A bounded resource (the modbd query-thread budget, an admission
  // queue) is exhausted. Retryable by the caller after backoff; the
  // serving layer returns it as a typed overload rejection instead of
  // queueing without bound.
  kResourceExhausted,
  // A deadline expired before the operation completed: a transport
  // read/write timed out, or a query's cooperative execution deadline
  // fired at a morsel boundary. Retryable — the operation had no
  // effect beyond wasted work (queries are read-only; an ingest whose
  // ack timed out is re-ackable via its idempotency key).
  kDeadlineExceeded,
};

/// Returns a stable human-readable name for a status code.
const char* StatusCodeName(StatusCode code);

/// A lightweight success/error value. Cheap to copy in the OK case.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Formats as "OK" or "<CODE>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Holds either a value of type T or an error Status.
///
/// Usage:
///   Result<Line> line = Line::Make(segments);
///   if (!line.ok()) return line.status();
///   Use(line.value());
template <typename T>
class Result {
 public:
  // Intentionally implicit so factories can `return value;` / `return status;`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  /// `T v = *std::move(r);` moves the value out instead of copying it.
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace modb

// Propagates a non-OK status from an expression producing a Status.
#define MODB_RETURN_IF_ERROR(expr)                  \
  do {                                              \
    ::modb::Status _modb_status = (expr);           \
    if (!_modb_status.ok()) return _modb_status;    \
  } while (0)

#endif  // MODB_CORE_STATUS_H_
