#pragma once
// Minimal POSIX socket plumbing for intooa::svc: address parsing (TCP and
// Unix-domain), listening/connecting, and frame-granular I/O that is robust
// to the realities of stream sockets — short reads, short writes, EINTR,
// peers that dribble a frame one byte at a time, and peers that vanish
// mid-frame. All I/O is blocking with poll()-based readiness + timeout; the
// server gives every connection its own thread, so nothing here needs an
// event loop. SIGPIPE is avoided with MSG_NOSIGNAL on every send.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "svc/protocol.hpp"

namespace intooa::svc {

/// Typed transport failure thrown by the client-side plumbing (connect,
/// handshake, request round-trips). Subclasses std::runtime_error so
/// existing catch sites keep working; the kind lets api::Session map a
/// failure into the api::Error taxonomy without parsing the message.
class TransportError : public std::runtime_error {
 public:
  enum class Kind {
    Connect,         ///< dial failed (refused, unresolvable, no listener)
    Timeout,         ///< the peer went silent past the deadline
    ConnectionLost,  ///< send/receive failed mid-conversation
    Protocol,        ///< malformed or unexpected frames, version mismatch
    Unsupported,     ///< the peer predates the requested capability
  };

  TransportError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// A server-originated Error reply surfaced as an exception, preserving the
/// wire error code so api::Session can map it into the api::Error taxonomy
/// (Draining stays retryable, Internal stays permanent) without parsing the
/// message. sched::JobClient throws std::invalid_argument for a
/// MalformedRequest reply (a rejected job spec); every other Error reply,
/// including a handshake answered Error (svc::dial_hello), lands here.
class RemoteError : public std::runtime_error {
 public:
  RemoteError(ErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// A service endpoint: "unix:PATH", "tcp:HOST:PORT", "HOST:PORT" (tcp), or
/// a bare filesystem path (unix).
struct Address {
  enum class Kind { Unix, Tcp } kind = Kind::Unix;
  std::string path;  ///< unix socket path
  std::string host;  ///< tcp host
  std::uint16_t port = 0;

  /// Human-readable rendering ("unix:/tmp/x.sock", "tcp:127.0.0.1:4815").
  std::string to_string() const;

  /// Parses the accepted spellings above; throws std::invalid_argument on
  /// an empty spec, a bad port, or an over-long unix path.
  static Address parse(const std::string& text);
};

/// RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset();

 private:
  int fd_ = -1;
};

/// Creates a listening socket on `address` (unlinking a stale unix socket
/// file first; SO_REUSEADDR for tcp). Throws std::runtime_error on failure.
Fd listen_on(const Address& address, int backlog = 64);

/// Connects to `address`. Throws std::runtime_error on failure.
Fd connect_to(const Address& address);

/// Outcome of read_frame.
enum class ReadStatus {
  Ok,         ///< frame filled in
  Closed,     ///< orderly EOF at a frame boundary
  Timeout,    ///< idle longer than the timeout at a frame boundary
  Oversized,  ///< announced payload length exceeds kMaxFrame
  BadType,    ///< header type byte is not a known MsgType
  Error,      ///< I/O error or EOF mid-frame
};

/// Reads one complete frame, tolerating arbitrarily fragmented delivery.
/// `idle_timeout_ms` < 0 waits forever; the timeout applies only while
/// waiting for the *first* byte of a frame — once a frame has started, the
/// peer gets kMidFrameGraceMs to finish it (a stalled mid-frame peer is an
/// error, not an idle connection). On Oversized and BadType the announced
/// payload is NOT consumed; callers must treat the stream as corrupt and
/// close (the server replies Error(bad-frame) first). Counts received
/// bytes into "svc.bytes_rx".
ReadStatus read_frame(int fd, Frame& frame, int idle_timeout_ms = -1);

/// Writes all of `data`, riding out short writes and EINTR; returns false
/// on a broken/closed peer (EPIPE, ECONNRESET) or any other write failure.
/// Counts sent bytes into "svc.bytes_tx".
bool write_all(int fd, std::string_view data);

/// Grace period for a peer to finish a frame it started sending.
inline constexpr int kMidFrameGraceMs = 10'000;

/// Human-readable peer of a connected socket: "ip:port" for TCP,
/// "unix" for Unix-domain peers (unnamed client sockets carry no path),
/// "?" when getpeername fails. Used by the access log and flight recorder.
std::string peer_name(int fd);

}  // namespace intooa::svc
