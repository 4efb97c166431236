#ifndef TCDB_UTIL_STATUS_H_
#define TCDB_UTIL_STATUS_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "util/check.h"

namespace tcdb {

// Error codes used across the library. The library does not use exceptions
// (per the project style guide); recoverable errors are reported as Status
// and programming errors abort via TCDB_CHECK.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kResourceExhausted,
  kFailedPrecondition,
  kCorruption,
  kInternal,
};

// Returns a human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

// A success-or-error value the size of one pointer: null means OK, and
// only an error allocates its code and message on the heap. Passing or
// returning an OK status therefore costs a pointer copy and no allocation.
class Status {
 public:
  // Constructs an OK status.
  Status() = default;

  // An OK `code` yields the OK status; its `message` is dropped.
  Status(StatusCode code, std::string message)
      : rep_(code == StatusCode::kOk
                 ? nullptr
                 : std::make_unique<Rep>(Rep{code, std::move(message)})) {}

  // Copying an error copies its code and message.
  Status(const Status& other)
      : rep_(other.rep_ == nullptr ? nullptr
                                   : std::make_unique<Rep>(*other.rep_)) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      rep_ = other.rep_ == nullptr ? nullptr
                                   : std::make_unique<Rep>(*other.rep_);
    }
    return *this;
  }
  // A moved-from status is OK.
  Status(Status&& other) noexcept = default;
  Status& operator=(Status&& other) noexcept = default;

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return rep_ == nullptr; }
  StatusCode code() const {
    return rep_ == nullptr ? StatusCode::kOk : rep_->code;
  }
  // Empty for OK.
  const std::string& message() const {
    return rep_ == nullptr ? EmptyMessage() : rep_->message;
  }

  // Returns "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };

  static const std::string& EmptyMessage();

  std::unique_ptr<Rep> rep_;
};

// A Status or a value of type T. Accessing the value of a non-OK result is a
// fatal error.
template <typename T>
class Result {
 public:
  // Implicit construction from a value or an error status keeps call sites
  // terse: `return value;` / `return Status::NotFound(...)`.
  Result(T value) : status_(), value_(std::move(value)) {}  // NOLINT
  Result(Status status) : status_(std::move(status)) {      // NOLINT
    TCDB_CHECK(!status_.ok()) << "Result constructed from OK status";
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    TCDB_CHECK(ok()) << status_.ToString();
    return *value_;
  }
  T& value() & {
    TCDB_CHECK(ok()) << status_.ToString();
    return *value_;
  }
  T&& value() && {
    TCDB_CHECK(ok()) << status_.ToString();
    return *std::move(value_);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace tcdb

// Propagates a non-OK status to the caller.
#define TCDB_RETURN_IF_ERROR(expr)            \
  do {                                        \
    ::tcdb::Status _tcdb_status = (expr);     \
    if (!_tcdb_status.ok()) return _tcdb_status; \
  } while (false)

// Evaluates `rexpr` (a Result<T>), propagating a non-OK status; otherwise
// assigns the value to `lhs`, which may be a declaration
// (e.g. TCDB_ASSIGN_OR_RETURN(PageGuard page, PageGuard::Fetch(buffers, id));).
#define TCDB_CONCAT_INNER_(a, b) a##b
#define TCDB_CONCAT_(a, b) TCDB_CONCAT_INNER_(a, b)
#define TCDB_ASSIGN_OR_RETURN(lhs, rexpr)                       \
  TCDB_ASSIGN_OR_RETURN_IMPL_(TCDB_CONCAT_(_tcdb_result_, __LINE__), lhs, rexpr)
#define TCDB_ASSIGN_OR_RETURN_IMPL_(result, lhs, rexpr) \
  auto result = (rexpr);                                \
  if (!result.ok()) return result.status();             \
  lhs = std::move(result).value()

#endif  // TCDB_UTIL_STATUS_H_
