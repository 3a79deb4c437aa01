#pragma once
// intooa-served's engine: a long-lived evaluation service that accepts
// EvalRequest frames from many concurrent clients, batches the actual
// sizing work into a runtime::ThreadPool, and serves warm results from two
// cache tiers — a per-configuration in-memory response cache and the
// persistent content-addressed store::EvalStore shared with every offline
// campaign. Admission is bounded: once `max_inflight` evaluations are
// queued or running, further requests get an immediate Busy reply
// (explicit backpressure) instead of unbounded buffering.
//
// Threading model: connections are hosted by svc::ConnectionHost (one
// handler thread per client, bounded admission with a connection-level
// Busy reply, announce-and-reap); the handler reads frames in poll slices,
// evaluation tasks run on the shared pool, and responses are written back
// under a per-connection mutex (responses to one connection may interleave
// across requests but never across frames). Responses are keyed by the
// client's request id and may arrive out of order.
//
// Shutdown: begin_drain() — or a byte written to wake_fd() — stops the
// acceptor, refuses new requests with Error(draining), finishes every
// admitted evaluation, flushes its response, and returns from run(). Store
// appends are fsync'd per record (store::EvalStore), so a drained server
// leaves a durable store behind.
//
// Determinism: the service adds no randomness. Sizing draws from an RNG
// seeded by the evaluation key digest (the same discipline as
// core::TopologyEvaluator), so a response's record bytes are identical to
// the same evaluation run in-process — and identical across servers,
// restarts, and cache tiers.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "store/store.hpp"
#include "svc/connection_host.hpp"
#include "svc/flight_recorder.hpp"
#include "svc/protocol.hpp"
#include "svc/socket.hpp"

namespace intooa::svc {

struct ServerConfig {
  Address address;                 ///< listen endpoint (unix or tcp)
  std::size_t threads = 0;         ///< eval workers; 0 = hardware concurrency
  std::size_t max_inflight = 64;   ///< admitted evaluations before Busy
  std::size_t max_connections = 64;
  int idle_timeout_ms = 60'000;    ///< close idle connections; <0 = never
  std::uint32_t busy_retry_ms = 250;  ///< hint carried in Busy replies
  /// Optional persistent warm tier shared with offline campaigns.
  std::shared_ptr<store::EvalStore> store;
  /// Byte budget of each shard's in-memory response cache (--mem-cache-mb);
  /// past it, least-recently-used entries are evicted and counted in
  /// evaluator.mem_evictions. 0 = unlimited (the historical behavior).
  std::size_t mem_cache_bytes = 0;
  /// Test hook: artificial delay inside every evaluation, used by the
  /// backpressure/drain tests to hold the queue in a known state. 0 in
  /// production.
  int test_eval_delay_ms = 0;
  /// Ring size of the request flight recorder (last N completed requests,
  /// exposed via StatsResponse, dumped on SIGUSR1 and drain). 0 disables.
  std::size_t flight_recorder_capacity = 256;
  /// Opt-in structured access log: one key=value line per completed
  /// request, appended to this file. "" disables.
  std::string access_log;
  /// Periodic Prometheus snapshot for scrape-by-file deployments: every
  /// stats_interval_s the full registry is rendered and atomically
  /// published to stats_file. "" disables.
  std::string stats_file;
  double stats_interval_s = 10.0;
};

/// Point-in-time server counters (process-local mirror of the svc.*
/// metrics, exposed for tests and the drain log line).
struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t responses_ok = 0;
  std::uint64_t busy_rejections = 0;
  std::uint64_t errors = 0;
  std::uint64_t served_memory = 0;
  std::uint64_t served_store = 0;
  std::uint64_t served_computed = 0;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens. Separate from run() so callers (tests, the daemon)
  /// know the endpoint accepts connections before spawning clients. Throws
  /// std::runtime_error when the endpoint cannot be bound.
  void bind();

  /// Accept loop; blocks until a drain completes. Calls bind() if the
  /// caller did not.
  void run();

  /// Starts a graceful drain: stop accepting, refuse new requests, finish
  /// admitted work, then run() returns. Thread-safe and idempotent, but NOT
  /// async-signal-safe — from a signal handler, write one byte to
  /// wake_fd() instead.
  void begin_drain();

  /// Write end of the accept loop's self-pipe (async-signal-safe). Byte
  /// svc::kWakeDump dumps the flight recorder to the log and keeps serving
  /// (SIGUSR1); any other byte starts a drain (SIGTERM/SIGINT). Valid
  /// after bind().
  int wake_fd() const { return host_.wake_fd(); }

  /// True once begin_drain() (or a wake-pipe byte) has been observed.
  bool draining() const { return host_.draining(); }

  ServerStats stats() const;

  /// Connection-handler threads tracked by the host (live plus finished
  /// but not yet reaped).
  std::size_t connection_thread_count() const {
    return host_.connection_thread_count();
  }

  /// The StatsResponse document: uptime, metrics snapshot, per-histogram
  /// p50/p90/p99 and (optionally) the flight-recorder contents, as compact
  /// JSON text. Thread-safe; also callable directly (examples, tests).
  std::string stats_json_text(bool include_flight) const;

  const ServerConfig& config() const { return config_; }

 private:
  /// Per-connection state shared between the reader thread and the pool
  /// tasks writing responses.
  struct Connection {
    Fd fd;
    std::string peer;                ///< "unix" or "ip:port", for telemetry
    std::mutex write_mutex;          ///< one frame at a time on the wire
    std::mutex pending_mutex;
    std::condition_variable pending_cv;
    std::size_t pending = 0;         ///< admitted, response not yet written
    std::atomic<bool> broken{false};  ///< write failed; stop serving
  };

  /// Per-evaluation-configuration state: requests with byte-identical
  /// EvalKeyContext prefixes share one shard (sizer, response cache,
  /// in-progress dedup).
  struct Shard;

  void handle_connection(Fd fd, std::string peer);
  /// Dispatches one decoded frame; returns false when the connection must
  /// close (protocol violation).
  bool dispatch(const std::shared_ptr<Connection>& conn, const Frame& frame);
  void process_request(std::shared_ptr<Connection> conn, EvalRequest request,
                       std::uint64_t admitted_at_ns, std::uint64_t decode_ns,
                       std::uint64_t bytes_in, std::uint64_t server_span_id);
  /// Serves one evaluation through the cache tiers; returns the encoded
  /// EvalResponse payload and reports the evaluation key digest (for the
  /// flight recorder). Throws on internal failure.
  EvalResponse serve_request(const EvalRequest& request,
                             std::uint64_t& key_digest);
  Shard& shard_for(const EvalRequest& request);

  bool send_frame(const std::shared_ptr<Connection>& conn, MsgType type,
                  std::string_view payload);
  void send_error(const std::shared_ptr<Connection>& conn,
                  std::uint64_t request_id, ErrorCode code,
                  const std::string& message);
  /// Count one Error reply (svc.errors, ServerStats::errors) and one Busy
  /// reply (svc.busy_rejections, ServerStats::busy_rejections).
  void count_error();
  void count_busy();

  void finish_pending(const std::shared_ptr<Connection>& conn);

  /// Refreshes the liveness gauges (svc.uptime_seconds, svc.inflight,
  /// svc.connections) — called on every accept-loop tick so a snapshot is
  /// meaningful even between requests.
  void update_loop_gauges();
  /// Logs every buffered flight record (SIGUSR1 and graceful drain).
  void dump_flight_recorder();
  /// Appends one access-log line for a completed request (no-op when
  /// --access-log is off).
  void write_access_log(const FlightRecord& record);
  /// Atomically publishes the Prometheus rendering to config_.stats_file.
  void write_stats_file();
  /// Body of the periodic stats-file writer thread.
  void stats_file_loop();

  ServerConfig config_;
  std::unique_ptr<runtime::ThreadPool> pool_;
  std::atomic<std::size_t> inflight_{0};

  std::uint64_t start_ns_ = 0;  ///< bind() time, for svc.uptime_seconds
  std::unique_ptr<FlightRecorder> flight_;  ///< null when capacity == 0
  std::mutex access_log_mutex_;
  std::ofstream access_log_;
  std::thread stats_thread_;
  std::mutex stats_cv_mutex_;
  std::condition_variable stats_cv_;

  std::mutex shards_mutex_;
  std::unordered_map<std::string, std::unique_ptr<Shard>> shards_;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;

  /// Declared last so it is destroyed first: its destructor joins any
  /// handler thread still using the members above.
  ConnectionHost host_;
};

}  // namespace intooa::svc
