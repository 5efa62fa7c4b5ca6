// Status and Result<T>: lightweight error propagation for fallible paths.
//
// The simulator follows the os-systems convention of explicit error values on
// every fallible interface instead of exceptions. A Status carries a code and
// a human-readable message; Result<T> is a Status-or-value union.
#ifndef TRENV_COMMON_STATUS_H_
#define TRENV_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace trenv {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfMemory,
  kPermissionDenied,
  kFailedPrecondition,
  kResourceExhausted,
  kUnavailable,
  kInternal,
};

std::string_view StatusCodeName(StatusCode code);

class [[nodiscard]] Status {
 public:
  // Default-constructed Status is OK.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) { return Status(StatusCode::kNotFound, std::move(msg)); }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfMemory(std::string msg) {
    return Status(StatusCode::kOutOfMemory, std::move(msg));
  }
  static Status PermissionDenied(std::string msg) {
    return Status(StatusCode::kPermissionDenied, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Internal(std::string msg) { return Status(StatusCode::kInternal, std::move(msg)); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

// Result<T>: either a value or a non-OK Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : state_(std::in_place_index<0>, std::move(value)) {}
  Result(Status status) : state_(std::in_place_index<1>, std::move(status)) {
    assert(!std::get<1>(state_).ok() && "Result constructed from OK status");
  }

  bool ok() const { return state_.index() == 0; }

  const T& value() const& {
    assert(ok());
    return std::get<0>(state_);
  }
  T& value() & {
    assert(ok());
    return std::get<0>(state_);
  }
  T&& value() && {
    assert(ok());
    return std::move(std::get<0>(state_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  Status status() const {
    if (ok()) {
      return Status::Ok();
    }
    return std::get<1>(state_);
  }

  T value_or(T fallback) const {
    if (ok()) {
      return std::get<0>(state_);
    }
    return fallback;
  }

 private:
  std::variant<T, Status> state_;
};

// Propagation helpers in the spirit of absl's RETURN_IF_ERROR / ASSIGN_OR_RETURN.
#define TRENV_RETURN_IF_ERROR(expr)            \
  do {                                         \
    ::trenv::Status trenv_status_ = (expr);    \
    if (!trenv_status_.ok()) {                 \
      return trenv_status_;                    \
    }                                          \
  } while (0)

#define TRENV_CONCAT_INNER(a, b) a##b
#define TRENV_CONCAT(a, b) TRENV_CONCAT_INNER(a, b)

#define TRENV_ASSIGN_OR_RETURN(lhs, expr)                      \
  auto TRENV_CONCAT(trenv_result_, __LINE__) = (expr);         \
  if (!TRENV_CONCAT(trenv_result_, __LINE__).ok()) {           \
    return TRENV_CONCAT(trenv_result_, __LINE__).status();     \
  }                                                            \
  lhs = std::move(TRENV_CONCAT(trenv_result_, __LINE__)).value()

}  // namespace trenv

#endif  // TRENV_COMMON_STATUS_H_
