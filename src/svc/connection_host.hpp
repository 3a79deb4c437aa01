#pragma once
// svc::ConnectionHost — the connection plumbing intooa-served,
// intooa-schedd and intooa-gateway share. A daemon supplies only its
// per-connection protocol handler and its over-limit reply; the host does
// everything around them.
//
// Listening: bind() opens the listen socket and a self-pipe. run() polls
// both on the caller's thread with a ~1 s tick, riding out EINTR and
// ECONNABORTED.
//
// Admission: an accepted connection is admitted only while fewer than
// max_connections are open. Past that, the daemon's refuse hook answers it
// on the acceptor thread (a Busy frame, or a 503) and the host closes it;
// no thread is spent on it. This bound holds in the drain linger too.
//
// Threads: an admitted connection gets its own thread, which runs the
// daemon's serve hook and, as its last act, announces its id. The loop
// joins announced threads on every wakeup (announce-and-reap), so a
// long-lived daemon holds at most max_connections live handler threads plus
// those that finished since the last tick — never one per connection ever
// served. connection_thread_count() reports the registry size.
//
// Drain: begin_drain() — or a wake_fd() byte other than kWakeDump, which is
// what install_drain_signals() writes from a signal handler — ends the
// accept loop. With drain_linger_ms > 0 (only the gateway) the host then
// keeps accepting for that long, under the same admission bound, and hands
// each admitted connection to the linger hook, so HTTP clients observe the
// drain instead of a vanished listener. Finally run() joins every handler
// thread, unlinks a unix socket file and returns; the daemon's own drain
// steps (flushing a pool, closing a session, its "drained" log line) follow.
//
// serve_hello() is the server side of the Hello/HelloOk handshake both
// framed daemons speak and dial_hello() its one client side;
// install_drain_signals() is the SIGTERM/SIGINT handler all three daemon
// mains install.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/socket.hpp"

namespace intooa::svc {

/// Wake-pipe byte asking the accept loop to call the dump hook and keep
/// serving (intooa-served's SIGUSR1). Any other byte starts a drain, as
/// does kWakeDump on a host with no dump hook.
inline constexpr char kWakeDump = 2;

class ConnectionHost {
 public:
  /// Serves one connection on its own thread. `peer` is svc::peer_name().
  using Serve = std::function<void(Fd fd, std::string peer)>;

  struct Hooks {
    Serve serve;
    /// Answers a connection refused by admission, on the acceptor thread.
    /// The host closes the socket afterwards.
    std::function<void(int fd)> refuse;
    /// Serves connections admitted during the drain linger.
    Serve linger;
    /// Called on every accept-loop wakeup, at least once a second.
    std::function<void()> tick;
    /// Called for each kWakeDump byte; unset, that byte drains.
    std::function<void()> dump;
  };

  /// `name` prefixes the host's log and error messages ("svc", "sched",
  /// "gateway").
  ConnectionHost(std::string name, Address address,
                 std::size_t max_connections, int drain_linger_ms = 0);
  /// Drains and joins every handler thread still running.
  ~ConnectionHost();

  ConnectionHost(const ConnectionHost&) = delete;
  ConnectionHost& operator=(const ConnectionHost&) = delete;

  /// Opens the wake pipe and the listen socket. Throws std::runtime_error
  /// when the endpoint cannot be bound.
  void bind();
  bool bound() const { return listen_fd_.valid(); }

  /// Accepts until a drain, lingers if configured, joins every handler
  /// thread and unlinks a unix socket file. Calls bind() if needed.
  void run(const Hooks& hooks);

  /// Ends the accept loop. Thread-safe and idempotent, but NOT
  /// async-signal-safe: from a signal handler, write a byte to wake_fd().
  void begin_drain();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Write end of the self-pipe the accept loop watches; write() to it is
  /// async-signal-safe. Valid after bind().
  int wake_fd() const { return wake_tx_.get(); }

  /// Admitted connections whose serve (or linger) hook has not returned.
  std::size_t open_connections() const {
    return open_connections_.load(std::memory_order_relaxed);
  }
  /// Handler threads tracked: live plus finished but not yet reaped.
  std::size_t connection_thread_count() const;

  const std::string& name() const { return name_; }

 private:
  /// Accepts one pending connection and admits or refuses it.
  void accept_one(const Serve& serve,
                  const std::function<void(int)>& refuse);
  /// Reads the wake pipe; returns true when a byte asks for a drain.
  bool read_wake(const Hooks& hooks);
  void linger(const Hooks& hooks);
  /// Joins the threads that announced completion (threads_mutex_ must
  /// NOT be held).
  void reap_finished_connections();
  /// Moves every thread out of the registry and joins it.
  void join_all_connections();

  std::string name_;
  Address address_;
  std::size_t max_connections_;
  int drain_linger_ms_;
  Fd listen_fd_;
  Fd wake_rx_, wake_tx_;
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> open_connections_{0};

  mutable std::mutex threads_mutex_;
  std::map<std::uint64_t, std::thread> connection_threads_;
  std::vector<std::uint64_t> finished_ids_;
  std::uint64_t next_connection_id_ = 1;
};

/// Server side of the Hello/HelloOk handshake of the framed daemons.
/// Waits for the first frame in poll slices, so a silent peer never delays
/// a drain, for up to `idle_timeout_ms` (< 0 = no limit). A Hello of our
/// protocol version is answered HelloOk, echoing our minor revision only to
/// clients that announced one (version-1.0 clients reject trailing bytes).
/// Any other first frame is answered with a typed Error — version_mismatch,
/// oversized_frame or bad_frame — after calling `on_error` once (the
/// daemon's error counter). Returns true once HelloOk is on the wire.
bool serve_hello(int fd, const std::string& peer, const ConnectionHost& host,
                 int idle_timeout_ms, const std::function<void()>& on_error);

/// A dialed connection that has completed the Hello/HelloOk handshake.
struct Dialed {
  Fd fd;
  /// Minor revision the server announced (0 for a version-1.0 server,
  /// which supports neither stats nor trace context).
  std::uint32_t server_minor = 0;
};

/// Client side of the handshake: dials `address`, sends a Hello with our
/// version and minor revision, and waits up to kMidFrameGraceMs for the
/// reply. Throws TransportError on a failed dial, a lost or silent peer, or
/// a malformed reply, and RemoteError carrying the wire code when the
/// server answers Error.
Dialed dial_hello(const Address& address);

/// Routes SIGTERM and SIGINT to `wake_fd` (a daemon's wake_fd()). The first
/// signal writes one byte, which starts the graceful drain; a second one
/// calls _exit(128 + signal), the escape hatch when a drain wedges. With
/// `dump_on_usr1` (intooa-served), SIGUSR1 writes kWakeDump and never
/// counts toward the force-exit.
void install_drain_signals(int wake_fd, bool dump_on_usr1 = false);

}  // namespace intooa::svc
