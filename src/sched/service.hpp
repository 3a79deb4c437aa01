#pragma once
// intooa-schedd's network face: accepts svc-framed connections and speaks
// the job-control subset of the protocol (minor revision 2) — SubmitJob,
// JobStatusRequest, CancelJob, ListJobs, plus Ping and the shared
// Hello/HelloOk handshake (svc::serve_hello). Connections are hosted by
// svc::ConnectionHost; each handler reads frames in poll slices, so a
// silent client never delays a drain, and dispatches synchronously on its
// own thread: every operation is a sub-millisecond scheduler-state
// mutation — the heavy lifting happens on the Scheduler's own worker pool,
// not here.

#include <cstdint>
#include <string>

#include "sched/scheduler.hpp"
#include "svc/connection_host.hpp"

namespace intooa::sched {

struct ServiceConfig {
  svc::Address address;           ///< listen endpoint (unix or tcp)
  std::size_t max_connections = 64;
  int idle_timeout_ms = 60'000;   ///< close idle connections; <0 = never
};

/// Serves job control for one Scheduler. The Scheduler outlives the
/// service (jobs keep running after the listener stops).
class JobService {
 public:
  JobService(ServiceConfig config, Scheduler& scheduler);

  /// Binds and listens; separate from run() so callers know the endpoint
  /// accepts connections before clients start. Throws on bind failure.
  void bind();

  /// Accept loop; blocks until a drain completes (connections joined).
  void run();

  /// Stops accepting, refuses new requests with Error(draining), lets
  /// buffered requests get their replies, then run() returns. Thread-safe
  /// and idempotent; from a signal handler write a byte to wake_fd().
  void begin_drain();

  /// Write end of the accept loop's self-pipe (async-signal-safe). Valid
  /// after bind().
  int wake_fd() const { return host_.wake_fd(); }

  bool draining() const { return host_.draining(); }

  /// Connection-handler threads tracked by the host (live plus finished
  /// but not yet reaped).
  std::size_t connection_thread_count() const {
    return host_.connection_thread_count();
  }

 private:
  void handle_connection(svc::Fd fd, std::string peer);
  /// Dispatches one decoded frame; returns false when the connection must
  /// close.
  bool dispatch(int fd, const svc::Frame& frame);
  bool send_frame(int fd, svc::MsgType type, std::string_view payload);
  void send_error(int fd, std::uint64_t request_id, svc::ErrorCode code,
                  const std::string& message);

  ServiceConfig config_;
  Scheduler& scheduler_;
  /// Declared last so it is destroyed first: its destructor joins any
  /// handler thread still using the members above.
  svc::ConnectionHost host_;
};

}  // namespace intooa::sched
