#ifndef PARPARAW_UTIL_STATUS_H_
#define PARPARAW_UTIL_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace parparaw {

/// \brief Machine-readable category of an error.
///
/// Mirrors the Status idiom used by Arrow and RocksDB: the library never
/// throws; every fallible operation returns a Status (or a Result<T>, see
/// result.h) that callers must inspect.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kParseError,
  kTypeError,
  kOutOfRange,
  kNotImplemented,
  kIoError,
  kInternal,
  /// A resource limit was hit (memory budget, allocation failure). Callers
  /// can often degrade — e.g. retry through the pipelined executor with a
  /// smaller partition size — where other codes are final.
  kResourceExhausted,
  /// The operation was cooperatively cancelled (exec::PipelineExecutor's
  /// Cancel(), or a caller-provided cancellation token). Partial output is
  /// discarded; the input is untouched, so the operation can be re-run.
  kCancelled,
  /// A caller-supplied deadline expired before the operation finished
  /// (request deadline_ms in the serving protocol, I/O timeouts in
  /// serve/socket_io). Like kCancelled the input is untouched, so the
  /// caller may retry with a fresh deadline.
  kDeadlineExceeded,
};

/// \brief Returns a human-readable name for a StatusCode ("OK",
/// "Invalid argument", ...).
const char* StatusCodeToString(StatusCode code);

/// \brief Outcome of a fallible operation: a code plus an optional message.
///
/// Cheap to copy in the OK case (no allocation); error construction
/// allocates only for the message.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Factory helpers, one per error category.
  static Status OK() { return Status(); }
  static Status Invalid(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Returns a Status with the same code and "<context>: <message>" as the
  /// message — the error-provenance idiom: each pipeline layer prepends the
  /// stage (or file) it was working on, so a deep failure reads like
  /// "bulk loader: step.convert: value 'x' is not a valid int64". OK
  /// statuses pass through unchanged.
  Status WithContext(std::string_view context) const {
    if (ok()) return *this;
    std::string prefixed(context);
    prefixed += ": ";
    prefixed += message_;
    return Status(code_, std::move(prefixed));
  }

  /// Renders as "<code name>: <message>" (or "OK").
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

}  // namespace parparaw

/// Propagates a non-OK Status to the caller.
#define PARPARAW_RETURN_NOT_OK(expr)                 \
  do {                                               \
    ::parparaw::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                       \
  } while (false)

/// Propagates a non-OK Status with `ctx` prepended to its message (see
/// Status::WithContext), so the caller's stage shows up in the error.
#define PARPARAW_RETURN_NOT_OK_CTX(expr, ctx)        \
  do {                                               \
    ::parparaw::Status _st = (expr);                 \
    if (!_st.ok()) return _st.WithContext(ctx);      \
  } while (false)

#endif  // PARPARAW_UTIL_STATUS_H_
