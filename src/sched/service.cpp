#include "sched/service.hpp"

#include <functional>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sched/protocol.hpp"
#include "util/log.hpp"
#include "util/version.hpp"

namespace intooa::sched {

namespace {

/// Poll slice for connection reads, matching svc::Server: short enough
/// that a drain is observed promptly, long enough to stay cheap.
constexpr int kPollSliceMs = 100;

obs::Counter& requests_counter() {
  static obs::Counter& c = obs::registry().counter("sched.svc.requests");
  return c;
}
obs::Counter& connections_counter() {
  static obs::Counter& c = obs::registry().counter("sched.svc.connections");
  return c;
}
obs::Counter& errors_counter() {
  static obs::Counter& c = obs::registry().counter("sched.svc.errors");
  return c;
}

}  // namespace

JobService::JobService(ServiceConfig config, Scheduler& scheduler)
    : config_(std::move(config)),
      scheduler_(scheduler),
      host_("sched", config_.address, config_.max_connections) {}

void JobService::bind() {
  if (host_.bound()) return;
  host_.bind();
  util::log_info("intooa-schedd listening on " + config_.address.to_string(),
                 {{"workers", scheduler_.config().workers},
                  {"max_queued_jobs", scheduler_.config().max_queued_jobs},
                  {"protocol_version", svc::kProtocolVersion},
                  {"protocol_minor", svc::kProtocolMinorVersion},
                  {"build", util::version_string()}});
}

void JobService::run() {
  bind();
  svc::ConnectionHost::Hooks hooks;
  hooks.serve = std::bind_front(&JobService::handle_connection, this);
  hooks.refuse = [](int fd) {
    // Connection-level backpressure, same shape as svc::Server.
    svc::write_all(fd, svc::encode_frame(svc::MsgType::Busy,
                                         svc::encode_busy({0, 250})));
  };
  host_.run(hooks);
  util::log_info("intooa-schedd listener drained");
}

void JobService::begin_drain() { host_.begin_drain(); }

bool JobService::send_frame(int fd, svc::MsgType type,
                            std::string_view payload) {
  // Dispatch is synchronous on the connection thread, so unlike svc::Server
  // no cross-thread write mutex is needed: one frame in, one frame out.
  return svc::write_all(fd, svc::encode_frame(type, payload));
}

void JobService::send_error(int fd, std::uint64_t request_id,
                            svc::ErrorCode code, const std::string& message) {
  errors_counter().add();
  send_frame(fd, svc::MsgType::Error,
             svc::encode_error({request_id, code, message}));
}

void JobService::handle_connection(svc::Fd fd, std::string peer) {
  connections_counter().add();
  const bool ok = svc::serve_hello(fd.get(), peer, host_,
                                   config_.idle_timeout_ms,
                                   [] { errors_counter().add(); });
  svc::Frame frame;
  int idle_ms = 0;
  while (ok) {
    const svc::ReadStatus status =
        svc::read_frame(fd.get(), frame, kPollSliceMs);
    if (status == svc::ReadStatus::Timeout) {
      if (draining()) break;
      idle_ms += kPollSliceMs;
      if (config_.idle_timeout_ms >= 0 && idle_ms >= config_.idle_timeout_ms) {
        break;
      }
      continue;
    }
    if (status == svc::ReadStatus::Oversized) {
      send_error(fd.get(), 0, svc::ErrorCode::OversizedFrame,
                 "frame exceeds " + std::to_string(svc::kMaxFrame) + " bytes");
      break;
    }
    if (status == svc::ReadStatus::BadType) {
      send_error(fd.get(), 0, svc::ErrorCode::BadFrame,
                 "unknown message type");
      break;
    }
    if (status != svc::ReadStatus::Ok) break;
    idle_ms = 0;
    if (!dispatch(fd.get(), frame)) break;
  }
}

bool JobService::dispatch(int fd, const svc::Frame& frame) {
  INTOOA_SPAN("sched.svc.dispatch");
  requests_counter().add();
  switch (frame.type) {
    case svc::MsgType::Ping: {
      if (const auto nonce = svc::decode_ping(frame.payload)) {
        send_frame(fd, svc::MsgType::Pong, svc::encode_ping(*nonce));
        return true;
      }
      send_error(fd, 0, svc::ErrorCode::BadFrame, "malformed Ping");
      return false;
    }
    case svc::MsgType::SubmitJob: {
      const auto msg = decode_submit_job(frame.payload);
      if (!msg) {
        send_error(fd, 0, svc::ErrorCode::BadFrame, "malformed SubmitJob");
        return false;
      }
      if (draining()) {
        send_error(fd, msg->request_id, svc::ErrorCode::Draining,
                   "scheduler is draining; no new jobs accepted");
        return false;
      }
      SubmitResult result;
      try {
        result = scheduler_.submit(msg->spec);
      } catch (const std::invalid_argument& e) {
        send_error(fd, msg->request_id, svc::ErrorCode::MalformedRequest,
                   e.what());
        return true;  // a bad spec is a request error, not a stream error
      }
      if (!result.accepted) {
        send_frame(fd, svc::MsgType::QueueFull,
                   encode_queue_full(
                       {msg->request_id, result.retry_after_ms}));
        return true;
      }
      send_frame(fd, svc::MsgType::SubmitOk,
                 encode_submit_ok({msg->request_id, result.job_id}));
      return true;
    }
    case svc::MsgType::JobStatusRequest: {
      const auto msg = decode_job_id_msg(frame.payload);
      if (!msg) {
        send_error(fd, 0, svc::ErrorCode::BadFrame,
                   "malformed JobStatusRequest");
        return false;
      }
      const auto info = scheduler_.status(msg->job_id);
      if (!info) {
        send_error(fd, msg->request_id, svc::ErrorCode::MalformedRequest,
                   "unknown job " + std::to_string(msg->job_id));
        return true;
      }
      send_frame(fd, svc::MsgType::JobStatusResponse,
                 encode_job_status({msg->request_id, *info}));
      return true;
    }
    case svc::MsgType::CancelJob: {
      const auto msg = decode_job_id_msg(frame.payload);
      if (!msg) {
        send_error(fd, 0, svc::ErrorCode::BadFrame, "malformed CancelJob");
        return false;
      }
      if (!scheduler_.cancel(msg->job_id)) {
        send_error(fd, msg->request_id, svc::ErrorCode::MalformedRequest,
                   "unknown job " + std::to_string(msg->job_id));
        return true;
      }
      const auto info = scheduler_.status(msg->job_id);
      send_frame(fd, svc::MsgType::JobStatusResponse,
                 encode_job_status({msg->request_id, *info}));
      return true;
    }
    case svc::MsgType::ListJobs: {
      const auto msg = decode_list_jobs(frame.payload);
      if (!msg) {
        send_error(fd, 0, svc::ErrorCode::BadFrame, "malformed ListJobs");
        return false;
      }
      send_frame(fd, svc::MsgType::JobList,
                 encode_job_list({msg->request_id,
                                  scheduler_.list(msg->tenant)}));
      return true;
    }
    default:
      send_error(fd, 0, svc::ErrorCode::BadFrame,
                 "message type not served by intooa-schedd");
      return false;
  }
}

}  // namespace intooa::sched
