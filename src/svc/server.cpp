#include "svc/server.hpp"

#include <chrono>
#include <functional>
#include <stdexcept>
#include <unordered_set>

#include "core/eval_key.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "sizing/sizer.hpp"
#include "store/record_io.hpp"
#include "util/fs.hpp"
#include "util/log.hpp"
#include "util/lru_cache.hpp"
#include "util/rng.hpp"
#include "util/version.hpp"

namespace intooa::svc {

namespace {

/// Poll slice for connection readers: short enough that drain and idle
/// checks stay responsive, long enough to cost nothing.
constexpr int kPollSliceMs = 200;

obs::Counter& requests_counter() {
  static obs::Counter& c = obs::registry().counter("svc.requests");
  return c;
}
obs::Counter& busy_counter() {
  static obs::Counter& c = obs::registry().counter("svc.busy_rejections");
  return c;
}
obs::Counter& errors_counter() {
  static obs::Counter& c = obs::registry().counter("svc.errors");
  return c;
}
obs::Counter& connections_counter() {
  static obs::Counter& c = obs::registry().counter("svc.connections");
  return c;
}
obs::Counter& stats_requests_counter() {
  static obs::Counter& c = obs::registry().counter("svc.stats_requests");
  return c;
}
obs::Gauge& inflight_gauge() {
  static obs::Gauge& g = obs::registry().gauge("svc.inflight");
  return g;
}
obs::Gauge& connections_gauge() {
  static obs::Gauge& g = obs::registry().gauge("svc.connections");
  return g;
}
obs::Gauge& uptime_gauge() {
  static obs::Gauge& g = obs::registry().gauge("svc.uptime_seconds");
  return g;
}
obs::Histogram& request_latency() {
  static obs::Histogram& h =
      obs::registry().histogram("svc.request_ns", obs::Unit::Nanoseconds);
  return h;
}
obs::Histogram& decode_histogram() {
  static obs::Histogram& h =
      obs::registry().histogram("svc.decode", obs::Unit::Nanoseconds);
  return h;
}
obs::Histogram& evaluate_histogram() {
  static obs::Histogram& h =
      obs::registry().histogram("svc.evaluate", obs::Unit::Nanoseconds);
  return h;
}
obs::Histogram& encode_histogram() {
  static obs::Histogram& h =
      obs::registry().histogram("svc.encode", obs::Unit::Nanoseconds);
  return h;
}

/// Server-side span ids for propagated traces. A relaxed atomic counter,
/// never util::Rng: span ids must not perturb any random stream
/// (RNG-neutrality) and only need uniqueness within one merged trace.
std::uint64_t next_server_span_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Records one server-stage span, tagged with the propagated trace context
/// when present (trace_id != 0) so a merged client+server trace can
/// correlate the rows.
void record_server_span(const char* name, std::uint64_t start_ns,
                        std::uint64_t duration_ns, std::uint64_t trace_id,
                        std::uint64_t span_id) {
  if (!obs::trace_enabled()) return;
  obs::TraceEvent event;
  event.name = name;
  event.tid = util::thread_ordinal();
  event.start_ns = start_ns;
  event.duration_ns = duration_ns;
  event.trace_id = trace_id;
  event.span_id = span_id;
  if (trace_id != 0 && std::string_view(name) == "svc.evaluate") {
    event.flow_in = trace_id;
  }
  obs::trace_record_event(event);
}

obs::Counter& served_counter(ServedFrom from) {
  static obs::Counter& computed =
      obs::registry().counter("svc.served_computed");
  static obs::Counter& memory = obs::registry().counter("svc.served_memory");
  static obs::Counter& store = obs::registry().counter("svc.served_store");
  switch (from) {
    case ServedFrom::Memory: return memory;
    case ServedFrom::Store: return store;
    case ServedFrom::Computed: return computed;
  }
  return computed;
}

}  // namespace

/// Requests whose evaluation configuration (EvalKeyContext prefix) is
/// byte-identical share one shard: one sizer, one response cache, one
/// in-progress set that deduplicates concurrent evaluations of the same
/// key (the second requester waits for the first instead of re-sizing).
struct Server::Shard {
  Shard(const EvalRequest& request, std::size_t mem_cache_bytes)
      : context(request.eval_context()),
        sizer(context, request.sizing),
        keys(context, request.sizing),
        cache(mem_cache_bytes) {}

  sizing::EvalContext context;
  sizing::Sizer sizer;
  core::EvalKeyContext keys;

  std::mutex mutex;
  std::condition_variable cv;
  /// digest -> encoded store record payload (responses are immutable).
  /// Byte-budgeted per ServerConfig::mem_cache_bytes so a long-lived
  /// daemon (or the scheduler embedding it) cannot grow without bound;
  /// budget 0 keeps the historical keep-everything behavior.
  util::LruByteCache cache;
  std::unordered_set<std::uint64_t> in_progress;
};

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      host_("svc", config_.address, config_.max_connections) {
  if (config_.threads == 0) {
    config_.threads = std::max<std::size_t>(
        1, std::thread::hardware_concurrency());
  }
  if (config_.max_inflight == 0) config_.max_inflight = 1;
  if (config_.flight_recorder_capacity > 0) {
    flight_ =
        std::make_unique<FlightRecorder>(config_.flight_recorder_capacity);
  }
}

Server::~Server() = default;

void Server::bind() {
  if (host_.bound()) return;
  host_.bind();
  pool_ = std::make_unique<runtime::ThreadPool>(config_.threads);
  start_ns_ = obs::detail::monotonic_ns();
  if (!config_.access_log.empty()) {
    access_log_.open(config_.access_log, std::ios::app);
    if (!access_log_) {
      util::log_warn("svc: cannot open access log; access logging disabled",
                     {{"path", config_.access_log}});
    }
  }
  util::log_info("intooa-served listening on " + config_.address.to_string(),
                 {{"threads", config_.threads},
                  {"max_inflight", config_.max_inflight},
                  {"store", config_.store ? config_.store->path() : "(none)"},
                  {"protocol_version", kProtocolVersion},
                  {"protocol_minor", kProtocolMinorVersion},
                  {"build", util::version_string()}});
}

void Server::run() {
  bind();
  if (!config_.stats_file.empty() && config_.stats_interval_s > 0) {
    stats_thread_ = std::thread([this] { stats_file_loop(); });
  }
  update_loop_gauges();
  ConnectionHost::Hooks hooks;
  hooks.serve = std::bind_front(&Server::handle_connection, this);
  hooks.refuse = [this](int fd) {
    // Connection-level backpressure: a Busy frame with id 0, then close.
    count_busy();
    write_all(fd, encode_frame(MsgType::Busy,
                               encode_busy({0, config_.busy_retry_ms})));
  };
  hooks.tick = [this] { update_loop_gauges(); };
  hooks.dump = [this] { dump_flight_recorder(); };
  // Returns once every connection handler is joined, and each handler
  // first waits out its admitted evaluations: every response is flushed.
  host_.run(hooks);
  begin_drain();  // wakes the stats-file writer if a signal drained us
  pool_.reset();  // queue is empty; joins the workers
  update_loop_gauges();
  if (stats_thread_.joinable()) stats_thread_.join();
  if (!config_.stats_file.empty()) {
    write_stats_file();  // final snapshot: the fully drained counters
  }
  dump_flight_recorder();
  const ServerStats final = stats();
  util::log_info("intooa-served drained",
                 {{"requests", final.requests},
                  {"ok", final.responses_ok},
                  {"busy", final.busy_rejections},
                  {"errors", final.errors},
                  {"served_memory", final.served_memory},
                  {"served_store", final.served_store},
                  {"served_computed", final.served_computed}});
}

void Server::begin_drain() {
  host_.begin_drain();
  // Wake the stats-file writer so the drain is not delayed by its interval.
  { std::lock_guard<std::mutex> lock(stats_cv_mutex_); }
  stats_cv_.notify_all();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

bool Server::send_frame(const std::shared_ptr<Connection>& conn, MsgType type,
                        std::string_view payload) {
  const std::string frame = encode_frame(type, payload);
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (conn->broken.load(std::memory_order_relaxed)) return false;
  if (!write_all(conn->fd.get(), frame)) {
    conn->broken.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void Server::count_error() {
  errors_counter().add();
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.errors;
}

void Server::count_busy() {
  busy_counter().add();
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.busy_rejections;
}

void Server::send_error(const std::shared_ptr<Connection>& conn,
                        std::uint64_t request_id, ErrorCode code,
                        const std::string& message) {
  count_error();
  send_frame(conn, MsgType::Error,
             encode_error({request_id, code, message}));
}

void Server::handle_connection(Fd fd, std::string peer) {
  connections_counter().add();
  connections_gauge().set(static_cast<double>(host_.open_connections()));
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.connections;
  }
  const bool ok = serve_hello(fd.get(), peer, host_, config_.idle_timeout_ms,
                              [this] { count_error(); });
  auto conn = std::make_shared<Connection>();
  conn->fd = std::move(fd);
  conn->peer = std::move(peer);

  Frame frame;
  int idle_ms = 0;
  bool drain_exit = false;
  while (ok && !conn->broken.load(std::memory_order_relaxed)) {
    const ReadStatus status =
        read_frame(conn->fd.get(), frame, kPollSliceMs);
    if (status == ReadStatus::Timeout) {
      // The drain check rides the timeout so frames already buffered when
      // the drain began are still read and answered (with Error(draining))
      // instead of silently dropped.
      if (draining()) {  // pending responses are flushed below
        drain_exit = true;
        break;
      }
      idle_ms += kPollSliceMs;
      if (config_.idle_timeout_ms >= 0 && idle_ms >= config_.idle_timeout_ms) {
        util::log_debug("svc: closing idle connection");
        break;
      }
      continue;
    }
    if (status == ReadStatus::Oversized) {
      send_error(conn, 0, ErrorCode::OversizedFrame,
                 "frame exceeds " + std::to_string(kMaxFrame) + " bytes");
      break;
    }
    if (status == ReadStatus::BadType) {
      // The stream is corrupt past the header, so the connection must
      // close — but the peer is told why instead of seeing a silent EOF.
      send_error(conn, 0, ErrorCode::BadFrame, "unknown message type");
      break;
    }
    if (status != ReadStatus::Ok) break;  // Closed or Error
    idle_ms = 0;
    if (!dispatch(conn, frame)) break;
  }

  // Never close the socket while admitted evaluations still owe this
  // connection a response (the drain guarantee).
  finish_pending(conn);
  if (drain_exit && !conn->broken.load(std::memory_order_relaxed)) {
    // A request can race the drain onto the wire: the client wrote it just
    // before learning of the shutdown, while this thread's poll slice timed
    // out in the gap before those bytes arrived. The in-flight flush above
    // gave them time to land, so answer what is buffered (Error(draining)
    // closes after the first one) instead of silently hanging up. Bounded
    // and non-blocking: a silent peer still never delays the drain.
    for (int swept = 0; swept < 16; ++swept) {
      if (read_frame(conn->fd.get(), frame, 0) != ReadStatus::Ok) break;
      if (!dispatch(conn, frame)) break;
    }
  }
}

void Server::finish_pending(const std::shared_ptr<Connection>& conn) {
  std::unique_lock<std::mutex> lock(conn->pending_mutex);
  conn->pending_cv.wait(lock, [&] { return conn->pending == 0; });
}

bool Server::dispatch(const std::shared_ptr<Connection>& conn,
                      const Frame& frame) {
  switch (frame.type) {
    case MsgType::Ping: {
      if (const auto nonce = decode_ping(frame.payload)) {
        send_frame(conn, MsgType::Pong, encode_ping(*nonce));
        return true;
      }
      send_error(conn, 0, ErrorCode::BadFrame, "malformed Ping");
      return false;
    }
    case MsgType::StatsRequest: {
      const auto stats_request = decode_stats_request(frame.payload);
      if (!stats_request) {
        send_error(conn, 0, ErrorCode::BadFrame, "malformed StatsRequest");
        return false;
      }
      // Answered on the connection thread, outside admission control, so a
      // saturated (or draining) server still answers "what are you doing".
      stats_requests_counter().add();
      send_frame(conn, MsgType::StatsResponse,
                 encode_stats_response(
                     {stats_request->request_id,
                      stats_json_text(stats_request->include_flight)}));
      return true;
    }
    case MsgType::EvalRequest: {
      requests_counter().add();
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.requests;
      }
      // Timed by hand instead of INTOOA_SPAN: the decode duration feeds the
      // response trailer and flight recorder, and the span's trace tags are
      // only known after decoding.
      const std::uint64_t decode_start = obs::detail::monotonic_ns();
      std::optional<EvalRequest> request = decode_eval_request(frame.payload);
      const std::uint64_t decode_ns =
          obs::detail::monotonic_ns() - decode_start;
      decode_histogram().record(decode_ns);
      const std::uint64_t trace_id =
          request && request->trace ? request->trace->trace_id : 0;
      const std::uint64_t server_span_id =
          trace_id != 0 ? next_server_span_id() : 0;
      record_server_span("svc.decode", decode_start, decode_ns, trace_id,
                         server_span_id);
      if (!request) {
        send_error(conn, 0, ErrorCode::BadFrame, "malformed EvalRequest");
        return false;
      }
      if (draining()) {
        // Refuse and close: the reply tells the client why, and closing
        // keeps a still-streaming client from delaying the drain.
        send_error(conn, request->request_id, ErrorCode::Draining,
                   "server is draining; no new work accepted");
        return false;
      }
      // Bounded admission: grab an in-flight slot or reply Busy now.
      std::size_t current = inflight_.load(std::memory_order_relaxed);
      do {
        if (current >= config_.max_inflight) {
          count_busy();
          send_frame(conn, MsgType::Busy,
                     encode_busy({request->request_id,
                                  config_.busy_retry_ms}));
          return true;
        }
      } while (!inflight_.compare_exchange_weak(current, current + 1,
                                                std::memory_order_acq_rel));
      inflight_gauge().set(static_cast<double>(current + 1));
      {
        std::lock_guard<std::mutex> lock(conn->pending_mutex);
        ++conn->pending;
      }
      const std::uint64_t admitted_at = obs::detail::monotonic_ns();
      const std::uint64_t bytes_in = kFrameHeaderSize + frame.payload.size();
      pool_->submit([this, conn, request = std::move(*request), admitted_at,
                     decode_ns, bytes_in, server_span_id]() mutable {
        process_request(std::move(conn), std::move(request), admitted_at,
                        decode_ns, bytes_in, server_span_id);
      });
      return true;
    }
    default:
      send_error(conn, 0, ErrorCode::BadFrame,
                 "unknown message type " +
                     std::to_string(static_cast<unsigned>(frame.type)));
      return false;
  }
}

void Server::process_request(std::shared_ptr<Connection> conn,
                             EvalRequest request,
                             std::uint64_t admitted_at_ns,
                             std::uint64_t decode_ns, std::uint64_t bytes_in,
                             std::uint64_t server_span_id) {
  FlightRecord flight;
  flight.request_id = request.request_id;
  flight.decode_ns = decode_ns;
  flight.bytes_in = bytes_in;
  flight.peer = conn->peer;
  if (request.trace) flight.trace_id = request.trace->trace_id;
  const std::uint64_t eval_start = obs::detail::monotonic_ns();
  flight.queue_ns = eval_start - admitted_at_ns;
  // Publishes the flight record and the latency sample. Called BEFORE the
  // response hits the wire so a client that requests stats right after its
  // reply is guaranteed to see this request already recorded.
  bool recorded = false;
  const auto record_flight = [&] {
    if (recorded) return;
    recorded = true;
    const std::uint64_t completed_at = obs::detail::monotonic_ns();
    flight.total_ns = completed_at - admitted_at_ns;
    flight.completed_at_ns = completed_at;
    request_latency().record(flight.total_ns);
    if (flight_) flight_->record(flight);
    write_access_log(flight);
  };
  try {
    EvalResponse response = serve_request(request, flight.key_digest);
    flight.eval_ns = obs::detail::monotonic_ns() - eval_start;
    evaluate_histogram().record(flight.eval_ns);
    record_server_span("svc.evaluate", eval_start, flight.eval_ns,
                       flight.trace_id, server_span_id);
    response.request_id = request.request_id;
    flight.served_from = response.served_from;
    served_counter(response.served_from).add();
    if (request.trace) {
      // Trailer for the client's merged trace; encode_ns is back-filled by
      // re-encoding, so the histogram sees the real (first) encode cost.
      response.timings =
          ServerTimings{request.trace->trace_id, server_span_id,
                        flight.queue_ns, decode_ns, flight.eval_ns, 0};
    }
    const std::uint64_t encode_start = obs::detail::monotonic_ns();
    std::string payload = encode_eval_response(response);
    flight.encode_ns = obs::detail::monotonic_ns() - encode_start;
    encode_histogram().record(flight.encode_ns);
    record_server_span("svc.encode", encode_start, flight.encode_ns,
                       flight.trace_id, server_span_id);
    if (response.timings) {
      response.timings->encode_ns = flight.encode_ns;
      payload = encode_eval_response(response);
    }
    flight.bytes_out = kFrameHeaderSize + payload.size();
    flight.ok = true;  // served; delivery failures surface via conn->broken
    record_flight();
    if (send_frame(conn, MsgType::EvalResponse, payload)) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.responses_ok;
      switch (response.served_from) {
        case ServedFrom::Memory: ++stats_.served_memory; break;
        case ServedFrom::Store: ++stats_.served_store; break;
        case ServedFrom::Computed: ++stats_.served_computed; break;
      }
    }
  } catch (const std::invalid_argument& e) {
    flight.eval_ns = obs::detail::monotonic_ns() - eval_start;
    send_error(conn, request.request_id, ErrorCode::MalformedRequest,
               e.what());
  } catch (const std::exception& e) {
    flight.eval_ns = obs::detail::monotonic_ns() - eval_start;
    send_error(conn, request.request_id, ErrorCode::Internal, e.what());
  }
  record_flight();  // error paths record too (with ok still false)

  // Release the in-flight slot and this connection's pending count; the
  // connection closer may be waiting on the latter.
  {
    std::lock_guard<std::mutex> lock(conn->pending_mutex);
    --conn->pending;
  }
  conn->pending_cv.notify_all();
  const std::size_t now =
      inflight_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  inflight_gauge().set(static_cast<double>(now));
}

Server::Shard& Server::shard_for(const EvalRequest& request) {
  // Cheap probe: building the key context renders the canonical prefix.
  core::EvalKeyContext probe(request.eval_context(), request.sizing);
  std::lock_guard<std::mutex> lock(shards_mutex_);
  auto it = shards_.find(probe.prefix());
  if (it == shards_.end()) {
    it = shards_
             .emplace(probe.prefix(),
                      std::make_unique<Shard>(request,
                                              config_.mem_cache_bytes))
             .first;
    util::log_info("svc: new evaluation configuration shard",
                   {{"spec", request.spec.name},
                    {"shards", shards_.size()}});
  }
  return *it->second;
}

EvalResponse Server::serve_request(const EvalRequest& request,
                                   std::uint64_t& key_digest) {
  // Timed by the caller (process_request), which owns the svc.evaluate
  // histogram sample and trace span so it can tag propagated trace ids.
  // Validates the topology index (throws std::invalid_argument -> the
  // MalformedRequest reply).
  const circuit::Topology topology = circuit::Topology::from_index(
      static_cast<std::size_t>(request.topology_index));
  Shard& shard = shard_for(request);
  const core::EvalKey key = shard.keys.key_for(topology);
  key_digest = key.digest;

  EvalResponse response;
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    for (;;) {
      if (const std::string* hit = shard.cache.find(key.digest)) {
        response.served_from = ServedFrom::Memory;
        response.record_payload = *hit;
        return response;
      }
      if (shard.in_progress.count(key.digest) == 0) break;
      // Another request is evaluating this exact key: wait for its result
      // instead of duplicating the sizing work.
      shard.cv.wait(lock);
    }
    shard.in_progress.insert(key.digest);
  }

  if (config_.test_eval_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.test_eval_delay_ms));
  }

  core::EvalRecord record;
  record.topology = topology;
  response.served_from = ServedFrom::Computed;
  bool have_record = false;
  try {
    if (config_.store) {
      if (auto stored = config_.store->lookup(key)) {
        record = std::move(*stored);
        response.served_from = ServedFrom::Store;
        have_record = true;
      }
    }
    if (!have_record) {
      // Deterministic sizing, exactly as core::TopologyEvaluator::evaluate:
      // the inner BO draws from an RNG seeded by the key digest, so the
      // result — and its encoding — is a pure function of the key.
      util::Rng sizing_rng(key.digest);
      record.sized = shard.sizer.size(topology, sizing_rng);
      obs::registry().counter("evaluator.sizer_runs").add();
      obs::registry()
          .counter("evaluator.simulations")
          .add(record.sized.simulations);
      if (config_.store) {
        try {
          config_.store->append(key, record);
        } catch (const std::exception& e) {
          util::log_warn(
              std::string("svc: store append failed (result served but not "
                          "persisted): ") +
              e.what());
        }
      }
    }
    response.record_payload = store::encode_record(key, record);
  } catch (...) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.in_progress.erase(key.digest);
    shard.cv.notify_all();
    throw;
  }

  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const std::size_t evicted =
        shard.cache.insert(key.digest, response.record_payload);
    if (evicted > 0) {
      obs::registry().counter("evaluator.mem_evictions").add(evicted);
    }
    shard.in_progress.erase(key.digest);
  }
  shard.cv.notify_all();
  return response;
}

void Server::update_loop_gauges() {
  uptime_gauge().set(
      static_cast<double>(obs::detail::monotonic_ns() - start_ns_) / 1e9);
  inflight_gauge().set(static_cast<double>(inflight_.load()));
  connections_gauge().set(static_cast<double>(host_.open_connections()));
}

std::string Server::stats_json_text(bool include_flight) const {
  obs::Json root = obs::Json::object();
  root["uptime_seconds"] = obs::Json(
      static_cast<double>(obs::detail::monotonic_ns() - start_ns_) / 1e9);
  root["protocol_version"] =
      obs::Json(static_cast<double>(kProtocolVersion));
  root["protocol_minor"] =
      obs::Json(static_cast<double>(kProtocolMinorVersion));
  const obs::MetricsSnapshot snap = obs::snapshot();
  obs::Json quantiles = obs::Json::object();
  for (const auto& [name, hist] : snap.histograms) {
    obs::Json one = obs::Json::object();
    one["count"] = obs::Json(static_cast<double>(hist.count));
    one["p50"] = obs::Json(hist.quantile(0.5));
    one["p90"] = obs::Json(hist.quantile(0.9));
    one["p99"] = obs::Json(hist.quantile(0.99));
    quantiles[name] = std::move(one);
  }
  root["metrics"] = snap.to_json();
  root["quantiles"] = std::move(quantiles);
  if (include_flight && flight_) {
    obs::Json records = obs::Json::array();
    for (const FlightRecord& record : flight_->snapshot()) {
      records.push_back(flight_record_json(record));
    }
    root["flight"] = std::move(records);
    root["flight_total"] =
        obs::Json(static_cast<double>(flight_->total_recorded()));
    root["flight_capacity"] =
        obs::Json(static_cast<double>(flight_->capacity()));
  }
  return root.dump();
}

void Server::dump_flight_recorder() {
  if (!flight_) return;
  const std::vector<FlightRecord> records = flight_->snapshot();
  if (records.empty()) return;
  util::log_info("svc: flight recorder (oldest first)",
                 {{"records", records.size()},
                  {"total", flight_->total_recorded()}});
  for (const FlightRecord& record : records) {
    util::log_info("svc: flight " + flight_record_line(record));
  }
}

void Server::write_access_log(const FlightRecord& record) {
  if (!access_log_.is_open()) return;
  std::lock_guard<std::mutex> lock(access_log_mutex_);
  access_log_ << "ts_ns=" << record.completed_at_ns << ' '
              << flight_record_line(record) << '\n';
  access_log_.flush();  // one line per request; losing lines to a crash
                        // would defeat the log's post-mortem purpose
}

void Server::write_stats_file() {
  try {
    util::atomic_write_file(config_.stats_file,
                            obs::render_prometheus(obs::snapshot()));
  } catch (const std::exception& e) {
    util::log_warn(std::string("svc: stats-file write failed: ") + e.what(),
                   {{"path", config_.stats_file}});
  }
}

void Server::stats_file_loop() {
  std::unique_lock<std::mutex> lock(stats_cv_mutex_);
  for (;;) {
    const bool drained = stats_cv_.wait_for(
        lock, std::chrono::duration<double>(config_.stats_interval_s),
        [this] { return draining(); });
    if (drained) break;  // run() writes the final post-drain snapshot
    lock.unlock();
    write_stats_file();
    lock.lock();
  }
}

}  // namespace intooa::svc
