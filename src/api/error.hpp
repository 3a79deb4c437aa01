#pragma once
// api::Error — the unified client-facing error taxonomy of intooa::api.
// Every failure a caller can see — dial refused, handshake rejected, queue
// full, unknown job id, malformed JSON — is one Error: a code from a small
// closed enum, a human message, and (for backpressure shapes) the server's
// retry hint. The transport layers throw typed exceptions
// (svc::TransportError, svc::RemoteError) and api::Session maps them here,
// so nothing above this layer ever parses an error message to decide
// behavior.
//
// Three deterministic mappings hang off the code, used verbatim by the CLI
// and the HTTP gateway (docs/GATEWAY.md tabulates all three):
//
//   error_retryable(code)    — whether blind retry-with-backoff can succeed
//   error_http_status(code)  — the gateway's HTTP response status
//   error_exit_code(code)    — intooa-svc-client's process exit status
//                              (0 ok, 2 usage/invalid, 3 retryable,
//                               4 permanent)
//
// Expected<T> is the return shape of every api::Session operation: either
// a T or an Error, never an exception across the facade boundary.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace intooa::api {

/// The closed set of client-visible failure modes.
enum class ErrorCode : std::uint8_t {
  InvalidArgument = 1,  ///< the request itself is wrong (bad spec, bad JSON)
  NotFound = 2,         ///< the named resource (job id, route) does not exist
  Busy = 3,             ///< evaluation admission rejected; retry after hint
  QueueFull = 4,        ///< scheduler job queue full; retry after hint
  Draining = 5,         ///< the server is shutting down; retry elsewhere/later
  Unavailable = 6,      ///< endpoint unreachable or connection lost
  Timeout = 7,          ///< the peer went silent past the deadline
  Protocol = 8,         ///< wire corruption or version mismatch
  Unsupported = 9,      ///< the peer predates the requested capability
  Internal = 10,        ///< the server failed on its side
};

/// Stable snake_case name of a code ("queue_full", ...), the `code` field
/// of every gateway error body and of `--json` error output.
std::string_view error_code_name(ErrorCode code);

/// Inverse of error_code_name; nullopt for an unknown name.
std::optional<ErrorCode> error_code_from_name(std::string_view name);

/// True when a blind retry-with-backoff of the same request can succeed:
/// Busy, QueueFull, Draining, Unavailable, Timeout.
bool error_retryable(ErrorCode code);

/// The HTTP status the gateway answers for a code:
///   InvalidArgument 400, NotFound 404, Busy/QueueFull 429, Draining 503,
///   Unavailable 502, Timeout 504, Protocol 502, Unsupported 501,
///   Internal 500.
int error_http_status(ErrorCode code);

/// intooa-svc-client's exit status for a failure: 2 for InvalidArgument
/// (caller error, same class as a usage mistake), 3 for any retryable
/// code, 4 for the permanent rest. Success is 0 by construction.
int error_exit_code(ErrorCode code);

/// One client-visible failure.
struct Error {
  ErrorCode code = ErrorCode::Internal;
  std::string message;
  /// Backpressure hint in milliseconds (Busy/QueueFull/Draining replies);
  /// 0 means the server offered none.
  std::uint32_t retry_after_ms = 0;

  bool retryable() const { return error_retryable(code); }
  int http_status() const { return error_http_status(code); }
  int exit_code() const { return error_exit_code(code); }

  friend bool operator==(const Error&, const Error&) = default;
};

/// Maps an exception thrown by the transport/client layers into the
/// taxonomy: svc::TransportError by kind (Connect/ConnectionLost ->
/// Unavailable, Timeout -> Timeout, Protocol -> Protocol, Unsupported ->
/// Unsupported), svc::RemoteError by wire code (Draining -> Draining,
/// Internal -> Internal, frame-level codes -> Protocol),
/// std::invalid_argument -> InvalidArgument, anything else -> Internal.
Error error_from_exception(const std::exception& e);

/// Either a T or an Error — the return type of every facade operation.
/// Accessing the wrong side throws std::logic_error (a caller bug, not a
/// service failure), so tests fail loudly instead of reading garbage.
template <typename T>
class Expected {
 public:
  Expected(T value) : value_(std::move(value)) {}
  Expected(Error error) : error_(std::move(error)) {}

  bool ok() const { return !error_.has_value(); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    require(ok(), "Expected::value() on an error");
    return *value_;
  }
  T& value() & {
    require(ok(), "Expected::value() on an error");
    return *value_;
  }
  T&& take() && {
    require(ok(), "Expected::take() on an error");
    return std::move(*value_);
  }

  const Error& error() const {
    require(!ok(), "Expected::error() on a value");
    return *error_;
  }

 private:
  static void require(bool condition, const char* what) {
    if (!condition) throw std::logic_error(what);
  }

  std::optional<T> value_;
  std::optional<Error> error_;
};

}  // namespace intooa::api
