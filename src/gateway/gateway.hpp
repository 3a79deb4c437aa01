#pragma once
// intooa-gateway's engine: a dependency-free HTTP/1.1 front end over the
// api::Session facade, so dashboards and non-C++ clients drive evaluations
// and campaign jobs with plain curl instead of linking the binary-protocol
// clients. Connections are hosted by svc::ConnectionHost (one handler
// thread per client, announce-and-reap, bounded admission: connections
// past max_connections are answered 503 and closed on the acceptor
// thread), with keep-alive, pipelining and two timeouts: idle_timeout_ms
// between requests and request_grace_ms to finish a request that started
// arriving (the slowloris bound — a trickling peer gets 408, not a thread
// forever).
//
// Routes (docs/GATEWAY.md has the reference with curl examples):
//
//   GET    /healthz            liveness (200, or 503 while draining)
//   GET    /metrics            Prometheus exposition of this process
//   GET    /v1/stats           evaluator stats document (proxied)
//   POST   /v1/evaluations     one evaluation; JSON body {"spec","topology"}
//   POST   /v1/jobs            submit a campaign job (JSON JobSpec)
//   GET    /v1/jobs[?tenant=T] list jobs
//   GET    /v1/jobs/{id}       one job; ?watch=1[&timeout_ms=N] long-polls
//                              until the job is terminal or the wait cap
//   DELETE /v1/jobs/{id}       cancel
//
// Error bodies are api::error_to_json of the api::Error taxonomy and the
// status is api::error_http_status(code) — deterministic both ways.
//
// Drain: begin_drain() (or a byte on wake_fd(), the async-signal-safe
// spelling) stops admitting work; in-flight handlers finish their current
// request, further requests are answered 503 with Retry-After, and — so
// that plain HTTP clients can observe the drain instead of a vanished
// listener — the host keeps accepting for drain_linger_ms, under the same
// max_connections bound, answering one 503 + Retry-After per connection
// (Connection: close, so no peer can pin a handler past the linger
// deadline) before run() returns.

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "gateway/http.hpp"
#include "svc/connection_host.hpp"

namespace intooa::gateway {

struct GatewayConfig {
  svc::Address listen;  ///< HTTP endpoint (tcp host:port or unix path)
  /// Evaluation endpoints for POST /v1/evaluations and GET /v1/stats.
  std::vector<svc::Address> evaluators;
  /// Scheduler endpoint for the /v1/jobs routes.
  std::optional<svc::Address> scheduler;
  /// Evaluation pool tuning (inflight depth, reconnect policy).
  svc::ClientPoolConfig pool;
  std::size_t max_connections = 64;
  /// Close a keep-alive connection idle this long between requests;
  /// < 0 = never.
  int idle_timeout_ms = 60'000;
  /// A request that started arriving must complete within this budget or
  /// the connection is answered 408 and closed (slowloris bound).
  int request_grace_ms = 10'000;
  /// After drain begins, keep accepting (and answering 503 + Retry-After)
  /// this long so HTTP clients observe the drain. 0 = stop immediately.
  int drain_linger_ms = 0;
  /// Retry-After seconds advertised on 503 drain responses.
  int retry_after_s = 1;
  /// Parser bounds.
  std::size_t max_head_bytes = 16 * 1024;
  std::size_t max_body_bytes = 1 << 20;
  /// Long-poll cap for GET /v1/jobs/{id}?watch=1 (per request; the client
  /// re-polls for longer waits).
  int watch_cap_ms = 30'000;
  /// Poll interval while watching a job.
  int watch_interval_ms = 250;
  /// Opt-in structured access log: one key=value line per request.
  std::string access_log;
};

/// Point-in-time gateway counters (process-local mirror of the gateway.*
/// metrics, exposed for tests and the drain log line).
struct GatewayStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t responses_2xx = 0;
  std::uint64_t responses_4xx = 0;
  std::uint64_t responses_5xx = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t timeouts = 0;  ///< 408s (slowloris grace expiries)
};

class Gateway {
 public:
  explicit Gateway(GatewayConfig config);
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Binds and listens (separate from run() so callers know the endpoint
  /// accepts before spawning clients). Throws on bind failure.
  void bind();

  /// Accept loop; blocks until a drain (plus linger) completes.
  void run();

  /// Starts a graceful drain. Thread-safe, idempotent, NOT async-signal-
  /// safe — from a signal handler write one byte to wake_fd() instead.
  void begin_drain();

  /// Write end of the accept loop's self-pipe (async-signal-safe wake).
  int wake_fd() const { return host_.wake_fd(); }

  bool draining() const { return host_.draining(); }

  GatewayStats stats() const;

  /// Connection-handler threads tracked by the host (live plus finished
  /// but not yet reaped), in both the serving and the linger phase.
  std::size_t connection_thread_count() const {
    return host_.connection_thread_count();
  }

  /// Routes one parsed request to a response — the pure routing core,
  /// public so tests drive it without sockets. Thread-safe.
  HttpResponse route(const HttpRequest& request);

  const GatewayConfig& config() const { return config_; }

 private:
  void handle_connection(svc::Fd fd, std::string peer);
  /// Answers the first request 503 + Retry-After and closes; bounded by a
  /// wall-clock linger deadline (drain-linger connections).
  void handle_drain_connection(svc::Fd fd);
  HttpResponse drain_response() const;
  /// Answers a connection past max_connections (acceptor thread).
  void refuse_connection(int fd);
  HttpResponse error_response(const api::Error& error) const;
  static HttpResponse method_not_allowed(const std::string& allow);

  HttpResponse route_healthz() const;
  HttpResponse route_metrics() const;
  HttpResponse route_stats();
  HttpResponse route_evaluate(const HttpRequest& request);
  HttpResponse route_jobs(const HttpRequest& request);
  HttpResponse route_job(const HttpRequest& request, std::uint64_t job_id);

  void count_response(int status);
  void write_access_log(const std::string& peer, const HttpRequest& request,
                        int status, std::uint64_t duration_ns);

  GatewayConfig config_;
  std::uint64_t start_ns_ = 0;

  std::unique_ptr<api::Session> session_;
  /// The job sub-API is a single-connection request/response client;
  /// handler threads serialize on this around each call.
  std::mutex session_mutex_;

  std::mutex access_log_mutex_;
  std::ofstream access_log_;

  mutable std::mutex stats_mutex_;
  GatewayStats stats_;

  /// Declared last so it is destroyed first: its destructor joins any
  /// handler thread still using the members above.
  svc::ConnectionHost host_;
};

}  // namespace intooa::gateway
