#include "gateway/gateway.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

#include "api/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/span.hpp"
#include "util/log.hpp"
#include "util/version.hpp"

namespace intooa::gateway {

namespace {

/// Poll slice for connection reads, matching svc::Server: short enough
/// that a drain is observed promptly, long enough to stay cheap.
constexpr int kPollSliceMs = 100;

obs::Counter& requests_counter() {
  static obs::Counter& c = obs::registry().counter("gateway.requests");
  return c;
}
obs::Counter& connections_counter() {
  static obs::Counter& c = obs::registry().counter("gateway.connections");
  return c;
}
obs::Counter& errors_counter() {
  static obs::Counter& c = obs::registry().counter("gateway.errors");
  return c;
}
obs::Histogram& request_histogram() {
  static obs::Histogram& h =
      obs::registry().histogram("gateway.request_ns", obs::Unit::Nanoseconds);
  return h;
}

/// Reads whatever is available (poll-gated). Returns bytes read, 0 on
/// orderly EOF, -1 on error, -2 on poll timeout.
/// Access-log fields come straight off the wire (the parser strips \r only
/// immediately before \n, so a request target can smuggle bare carriage
/// returns or escape bytes); percent-escape control characters so one
/// request cannot forge extra fields or lines in the key=value log.
std::string sanitize_log_field(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char raw : in) {
    const unsigned char c = static_cast<unsigned char>(raw);
    if (c < 0x20 || c == 0x7f) {
      char hex[4];
      std::snprintf(hex, sizeof hex, "%%%02X", c);
      out += hex;
    } else {
      out += raw;
    }
  }
  return out;
}

ssize_t read_some(int fd, char* out, std::size_t capacity, int timeout_ms) {
  struct pollfd p{};
  p.fd = fd;
  p.events = POLLIN;
  const int got = ::poll(&p, 1, timeout_ms);
  if (got == 0) return -2;
  if (got < 0) return errno == EINTR ? -2 : -1;
  for (;;) {
    const ssize_t n = ::recv(fd, out, capacity, 0);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -2;
    return -1;
  }
}

}  // namespace

Gateway::Gateway(GatewayConfig config)
    : config_(std::move(config)),
      host_("gateway", config_.listen, config_.max_connections,
            config_.drain_linger_ms) {
  api::SessionConfig session;
  session.evaluators = config_.evaluators;
  session.scheduler = config_.scheduler;
  session.pool = config_.pool;
  session_ = std::make_unique<api::Session>(std::move(session));
}

Gateway::~Gateway() = default;

void Gateway::bind() {
  if (host_.bound()) return;
  host_.bind();
  start_ns_ = obs::detail::monotonic_ns();
  if (!config_.access_log.empty()) {
    access_log_.open(config_.access_log, std::ios::app);
    if (!access_log_) {
      util::log_warn(
          "gateway: cannot open access log; access logging disabled",
          {{"path", config_.access_log}});
    }
  }
  util::log_info(
      "intooa-gateway listening on " + config_.listen.to_string(),
      {{"evaluators", config_.evaluators.size()},
       {"scheduler",
        config_.scheduler ? config_.scheduler->to_string() : "(none)"},
       {"max_connections", config_.max_connections},
       {"build", util::version_string()}});
}

void Gateway::run() {
  bind();
  svc::ConnectionHost::Hooks hooks;
  hooks.serve = std::bind_front(&Gateway::handle_connection, this);
  hooks.refuse = std::bind_front(&Gateway::refuse_connection, this);
  // Drain linger: a stopped listener looks like an outage to an HTTP
  // client, so the host keeps accepting for a bounded window and each
  // connection is answered 503 with Retry-After.
  hooks.linger = [this](svc::Fd fd, std::string) {
    handle_drain_connection(std::move(fd));
  };
  host_.run(hooks);
  session_->close();
  const GatewayStats final = stats();
  util::log_info("intooa-gateway drained",
                 {{"requests", final.requests},
                  {"responses_2xx", final.responses_2xx},
                  {"responses_4xx", final.responses_4xx},
                  {"responses_5xx", final.responses_5xx},
                  {"parse_errors", final.parse_errors},
                  {"timeouts", final.timeouts}});
}

void Gateway::begin_drain() { host_.begin_drain(); }

GatewayStats Gateway::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void Gateway::refuse_connection(int fd) {
  // Connection-level backpressure: one 503 + Retry-After, then close. In
  // the drain linger the body says why: the gateway is draining.
  HttpResponse response = drain_response();
  if (!draining()) {
    response.body = api::error_to_json(
                        api::Error{api::ErrorCode::Busy,
                                   "gateway connection limit reached", 0})
                        .dump();
  }
  svc::write_all(fd, render_response(response, false));
  count_response(response.status);
}

void Gateway::count_response(int status) {
  if (status >= 400) errors_counter().add();
  std::lock_guard<std::mutex> lock(stats_mutex_);
  if (status >= 200 && status < 300) {
    ++stats_.responses_2xx;
  } else if (status >= 400 && status < 500) {
    ++stats_.responses_4xx;
  } else if (status >= 500) {
    ++stats_.responses_5xx;
  }
}

void Gateway::write_access_log(const std::string& peer,
                               const HttpRequest& request, int status,
                               std::uint64_t duration_ns) {
  if (!access_log_.is_open()) return;
  std::lock_guard<std::mutex> lock(access_log_mutex_);
  access_log_ << "ts_ns=" << obs::detail::monotonic_ns()
              << " peer=" << peer
              << " method=" << sanitize_log_field(request.method)
              << " target=" << sanitize_log_field(request.target)
              << " status=" << status
              << " duration_ns=" << duration_ns << '\n';
  access_log_.flush();  // one line per request; losing lines to a crash
                        // would defeat the log's post-mortem purpose
}

HttpResponse Gateway::drain_response() const {
  HttpResponse response;
  response.status = 503;
  response.headers["Retry-After"] = std::to_string(config_.retry_after_s);
  response.body =
      api::error_to_json(
          api::Error{api::ErrorCode::Draining,
                     "gateway is draining; retry against another instance",
                     static_cast<std::uint32_t>(config_.retry_after_s) *
                         1000})
          .dump();
  return response;
}

HttpResponse Gateway::error_response(const api::Error& error) const {
  HttpResponse response;
  response.status = error.http_status();
  if (error.code == api::ErrorCode::Draining ||
      error.code == api::ErrorCode::Busy ||
      error.code == api::ErrorCode::QueueFull) {
    const std::uint32_t hint_ms =
        error.retry_after_ms > 0
            ? error.retry_after_ms
            : static_cast<std::uint32_t>(config_.retry_after_s) * 1000;
    response.headers["Retry-After"] =
        std::to_string((hint_ms + 999) / 1000);
  }
  response.body = api::error_to_json(error).dump();
  return response;
}

void Gateway::handle_connection(svc::Fd fd, std::string peer) {
  connections_counter().add();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.connections;
  }
  HttpParser parser({config_.max_head_bytes, config_.max_body_bytes});
  char buffer[8192];
  int idle_ms = 0;
  // Monotonic time the pending request's first byte arrived; 0 when no
  // request is mid-flight.
  std::uint64_t request_start_ns = 0;
  bool open = true;
  while (open) {
    // Serve every complete buffered request before reading more
    // (pipelining: several may arrive in one read).
    while (parser.status() == HttpParser::Status::Ready) {
      const HttpRequest request = parser.take_request();
      const std::uint64_t started = obs::detail::monotonic_ns();
      const HttpResponse response =
          draining() ? drain_response() : route(request);
      const std::uint64_t duration =
          obs::detail::monotonic_ns() - started;
      request_histogram().record(duration);
      count_response(response.status);
      write_access_log(peer, request, response.status, duration);
      const bool keep = request.keep_alive && !draining();
      if (!svc::write_all(fd.get(), render_response(response, keep)) ||
          !keep) {
        open = false;
        break;
      }
      idle_ms = 0;
      request_start_ns = 0;  // the grace window restarts per request
    }
    if (!open) break;
    if (parser.status() == HttpParser::Status::Error) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.parse_errors;
      }
      HttpResponse response;
      response.status = parser.error_status();
      response.body =
          api::error_to_json(api::Error{api::ErrorCode::InvalidArgument,
                                        parser.error_message(), 0})
              .dump();
      count_response(response.status);
      svc::write_all(fd.get(), render_response(response, false));
      break;
    }

    // Slowloris bound: the grace window runs on the wall clock from the
    // first byte of an incomplete request, so a peer trickling one byte
    // per poll slice cannot extend it — once it expires the request is
    // answered 408 and the connection closed.
    if (parser.mid_request()) {
      const std::uint64_t now = obs::detail::monotonic_ns();
      if (request_start_ns == 0) request_start_ns = now;
      if (now - request_start_ns >=
          static_cast<std::uint64_t>(config_.request_grace_ms) *
              1'000'000) {
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.timeouts;
        }
        HttpResponse response;
        response.status = 408;
        response.body = api::error_to_json(
                            api::Error{api::ErrorCode::Timeout,
                                       "request not completed within " +
                                           std::to_string(
                                               config_.request_grace_ms) +
                                           " ms",
                                       0})
                            .dump();
        count_response(response.status);
        svc::write_all(fd.get(), render_response(response, false));
        break;
      }
    } else {
      request_start_ns = 0;
    }

    const ssize_t got =
        read_some(fd.get(), buffer, sizeof buffer, kPollSliceMs);
    if (got == -2) {
      if (draining() && !parser.mid_request()) break;
      if (!parser.mid_request()) {
        idle_ms += kPollSliceMs;
        if (config_.idle_timeout_ms >= 0 &&
            idle_ms >= config_.idle_timeout_ms) {
          break;
        }
      }
      continue;
    }
    if (got <= 0) break;  // orderly EOF or I/O error
    parser.feed(std::string_view(buffer, static_cast<std::size_t>(got)));
  }
}

void Gateway::handle_drain_connection(svc::Fd fd) {
  // Linger-phase connection: parse one request only to frame the answer,
  // reply 503 + Retry-After with Connection: close, and hang up. One
  // answer per connection and a wall-clock deadline (not idle-slice
  // accounting) guarantee the host's final join in run() is bounded by
  // drain_linger_ms no matter how chattily a peer keeps sending.
  HttpParser parser({config_.max_head_bytes, config_.max_body_bytes});
  char buffer[4096];
  const std::uint64_t deadline =
      obs::detail::monotonic_ns() +
      static_cast<std::uint64_t>(config_.drain_linger_ms) * 1'000'000;
  while (obs::detail::monotonic_ns() < deadline) {
    if (parser.status() == HttpParser::Status::Ready) {
      (void)parser.take_request();
      const HttpResponse response = drain_response();
      count_response(response.status);
      svc::write_all(fd.get(), render_response(response, false));
      return;
    }
    if (parser.status() == HttpParser::Status::Error) {
      svc::write_all(fd.get(), render_response(drain_response(), false));
      return;
    }
    const ssize_t got =
        read_some(fd.get(), buffer, sizeof buffer, kPollSliceMs);
    if (got == -2) continue;
    if (got <= 0) return;
    parser.feed(std::string_view(buffer, static_cast<std::size_t>(got)));
  }
}

// ---- routing ----

HttpResponse Gateway::route(const HttpRequest& request) {
  INTOOA_SPAN("gateway.route");
  requests_counter().add();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.requests;
  }
  if (draining()) return drain_response();

  const std::string& path = request.path;
  if (path == "/healthz") {
    if (request.method != "GET") return method_not_allowed("GET");
    return route_healthz();
  }
  if (path == "/metrics") {
    if (request.method != "GET") return method_not_allowed("GET");
    return route_metrics();
  }
  if (path == "/v1/stats") {
    if (request.method != "GET") return method_not_allowed("GET");
    return route_stats();
  }
  if (path == "/v1/evaluations") {
    if (request.method != "POST") return method_not_allowed("POST");
    return route_evaluate(request);
  }
  if (path == "/v1/jobs") {
    if (request.method != "GET" && request.method != "POST") {
      return method_not_allowed("GET, POST");
    }
    return route_jobs(request);
  }
  if (path.rfind("/v1/jobs/", 0) == 0) {
    const std::string id_text = path.substr(9);
    if (id_text.empty() ||
        id_text.find_first_not_of("0123456789") != std::string::npos ||
        id_text.size() > 19) {
      return error_response(api::Error{
          api::ErrorCode::NotFound, "no such route: " + path, 0});
    }
    if (request.method != "GET" && request.method != "DELETE") {
      return method_not_allowed("GET, DELETE");
    }
    return route_job(request, std::stoull(id_text));
  }
  return error_response(
      api::Error{api::ErrorCode::NotFound, "no such route: " + path, 0});
}

HttpResponse Gateway::method_not_allowed(const std::string& allow) {
  HttpResponse response;
  response.status = 405;
  response.headers["Allow"] = allow;
  response.body =
      api::error_to_json(api::Error{api::ErrorCode::InvalidArgument,
                                    "method not allowed (allow: " + allow +
                                        ")",
                                    0})
          .dump();
  return response;
}

HttpResponse Gateway::route_healthz() const {
  obs::Json body = obs::Json::object();
  body["status"] = obs::Json("ok");
  body["build"] = obs::Json(util::version_string());
  body["uptime_seconds"] = obs::Json(
      static_cast<double>(obs::detail::monotonic_ns() - start_ns_) / 1e9);
  HttpResponse response;
  response.body = body.dump();
  return response;
}

HttpResponse Gateway::route_metrics() const {
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4";
  response.body = obs::render_prometheus(obs::snapshot());
  return response;
}

HttpResponse Gateway::route_stats() {
  api::Expected<std::string> stats = [this] {
    std::lock_guard<std::mutex> lock(session_mutex_);
    return session_->stats().fetch_json(false);
  }();
  if (!stats.ok()) return error_response(stats.error());
  HttpResponse response;
  response.body = std::move(stats).take();
  return response;
}

HttpResponse Gateway::route_evaluate(const HttpRequest& request) {
  obs::Json body;
  try {
    body = obs::Json::parse(request.body);
  } catch (const std::exception& e) {
    return error_response(
        api::Error{api::ErrorCode::InvalidArgument,
                   std::string("malformed JSON body: ") + e.what(), 0});
  }
  api::Expected<svc::EvalRequest> decoded =
      api::eval_request_from_json(body);
  if (!decoded.ok()) return error_response(decoded.error());
  // Evaluations are pool-routed and thread-safe: no session lock held
  // while the (potentially long) evaluation runs.
  api::Expected<api::EvaluationOutcome> outcome =
      session_->evaluations().evaluate(decoded.value());
  if (!outcome.ok()) return error_response(outcome.error());
  HttpResponse response;
  response.body =
      api::evaluation_to_json(decoded.value(), outcome.value()).dump();
  return response;
}

HttpResponse Gateway::route_jobs(const HttpRequest& request) {
  if (request.method == "GET") {
    const auto params = request.query_params();
    const auto tenant = params.find("tenant");
    api::Expected<std::vector<sched::JobInfo>> jobs = [&] {
      std::lock_guard<std::mutex> lock(session_mutex_);
      return session_->jobs().list(
          tenant == params.end() ? "" : tenant->second);
    }();
    if (!jobs.ok()) return error_response(jobs.error());
    obs::Json list = obs::Json::array();
    for (const sched::JobInfo& info : jobs.value()) {
      list.push_back(api::job_info_to_json(info));
    }
    obs::Json body = obs::Json::object();
    body["jobs"] = std::move(list);
    HttpResponse response;
    response.body = body.dump();
    return response;
  }

  // POST: submit.
  obs::Json body;
  try {
    body = obs::Json::parse(request.body);
  } catch (const std::exception& e) {
    return error_response(
        api::Error{api::ErrorCode::InvalidArgument,
                   std::string("malformed JSON body: ") + e.what(), 0});
  }
  api::Expected<sched::JobSpec> spec = api::job_spec_from_json(body);
  if (!spec.ok()) return error_response(spec.error());
  api::Expected<std::uint64_t> submitted = [&] {
    std::lock_guard<std::mutex> lock(session_mutex_);
    return session_->jobs().submit(spec.value());
  }();
  if (!submitted.ok()) return error_response(submitted.error());
  obs::Json reply = obs::Json::object();
  reply["id"] = obs::Json(static_cast<unsigned long long>(submitted.value()));
  reply["state"] = obs::Json("queued");
  HttpResponse response;
  response.status = 201;
  response.headers["Location"] =
      "/v1/jobs/" + std::to_string(submitted.value());
  response.body = reply.dump();
  return response;
}

HttpResponse Gateway::route_job(const HttpRequest& request,
                                std::uint64_t job_id) {
  if (request.method == "DELETE") {
    api::Expected<sched::JobInfo> info = [&] {
      std::lock_guard<std::mutex> lock(session_mutex_);
      return session_->jobs().cancel(job_id);
    }();
    if (!info.ok()) return error_response(info.error());
    HttpResponse response;
    response.body = api::job_info_to_json(info.value()).dump();
    return response;
  }

  // GET, optionally long-polling until the job is terminal.
  const auto params = request.query_params();
  const auto watch = params.find("watch");
  const bool watching =
      watch != params.end() && watch->second != "0" && watch->second != "";
  int wait_cap_ms = config_.watch_cap_ms;
  if (const auto timeout = params.find("timeout_ms");
      timeout != params.end()) {
    try {
      wait_cap_ms = std::min(config_.watch_cap_ms,
                             std::max(0, std::stoi(timeout->second)));
    } catch (const std::exception&) {
      return error_response(api::Error{api::ErrorCode::InvalidArgument,
                                       "malformed timeout_ms", 0});
    }
  }
  int waited_ms = 0;
  for (;;) {
    api::Expected<sched::JobInfo> info = [&] {
      std::lock_guard<std::mutex> lock(session_mutex_);
      return session_->jobs().status(job_id);
    }();
    if (!info.ok()) return error_response(info.error());
    const bool terminal = sched::job_state_terminal(info.value().state);
    if (!watching || terminal || waited_ms >= wait_cap_ms || draining()) {
      HttpResponse response;
      response.body = api::job_info_to_json(info.value()).dump();
      return response;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.watch_interval_ms));
    waited_ms += config_.watch_interval_ms;
  }
}

}  // namespace intooa::gateway
