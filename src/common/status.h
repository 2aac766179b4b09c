#ifndef RCC_COMMON_STATUS_H_
#define RCC_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace rcc {

/// Error categories used across the library. The set mirrors the failure
/// modes of the paper's system: parse errors for the extended SQL grammar,
/// constraint violations when a C&C requirement cannot be met, and the usual
/// engine-internal categories.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kParseError,
  /// A query's currency/consistency constraint cannot be satisfied by any
  /// available plan or data source (e.g. timeline-consistency conflicts).
  kConstraintViolation,
  kNotSupported,
  kInternal,
  kUnavailable,
  /// Advisory, not an error: a query was answered from local data that
  /// misses (or only barely meets) its currency bound because the back-end
  /// was unreachable — the paper's "return the data but with an error code"
  /// contract (§1). Carried alongside a result, never returned as the
  /// operation status of a failed call.
  kStaleOk,
  /// A statement's deadline expired before it finished; the work was
  /// cancelled in the executor's row drain and its snapshot pin released.
  /// Retryable by the client (with a fresh deadline). Deliberately distinct
  /// from kUnavailable: the conformance oracle's degrade-refusal rule keys
  /// on Unavailable refusals, and a timeout is not a currency refusal.
  kDeadlineExceeded,
  /// The server's admission queue is over its configured limit or queue
  /// delay; the statement was rejected before execution. Retryable after
  /// backoff — an overloaded server sheds load, it does not disconnect.
  kOverloaded,
};

/// Returns a short human-readable name such as "ParseError".
std::string_view StatusCodeName(StatusCode code);

/// Arrow/RocksDB-style status object. Library code never throws; fallible
/// operations return Status or Result<T>.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  /// Factory helpers, one per error category.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status ConstraintViolation(std::string msg) {
    return Status(StatusCode::kConstraintViolation, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status StaleOk(std::string msg) {
    return Status(StatusCode::kStaleOk, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Overloaded(std::string msg) {
    return Status(StatusCode::kOverloaded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsParseError() const { return code_ == StatusCode::kParseError; }
  bool IsConstraintViolation() const {
    return code_ == StatusCode::kConstraintViolation;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsStaleOk() const { return code_ == StatusCode::kStaleOk; }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }
  bool IsOverloaded() const { return code_ == StatusCode::kOverloaded; }

  /// Renders "<Code>: <message>" (or "OK").
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Propagates a non-OK Status from the enclosing function.
#define RCC_RETURN_NOT_OK(expr)              \
  do {                                       \
    ::rcc::Status _st = (expr);              \
    if (!_st.ok()) return _st;               \
  } while (false)

}  // namespace rcc

#endif  // RCC_COMMON_STATUS_H_
