#include "sched/client.hpp"

#include <stdexcept>

#include "sched/protocol.hpp"
#include "svc/connection_host.hpp"
#include "util/log.hpp"
#include "util/version.hpp"

namespace intooa::sched {

namespace {

[[noreturn]] void protocol_error(
    const std::string& what,
    svc::TransportError::Kind kind = svc::TransportError::Kind::Protocol) {
  throw svc::TransportError(kind, "sched client: " + what);
}

/// Surfaces an Error reply as the appropriate exception: MalformedRequest
/// keeps its historical std::invalid_argument shape (a bad spec is a caller
/// bug), everything else becomes a RemoteError carrying the wire code so
/// api::Session can classify it (Draining is retryable, Internal is not).
[[noreturn]] void raise_error_reply(const svc::Frame& frame) {
  const auto error = svc::decode_error(frame.payload);
  if (!error) protocol_error("malformed Error reply");
  if (error->code == svc::ErrorCode::MalformedRequest) {
    throw std::invalid_argument(error->message);
  }
  throw svc::RemoteError(
      error->code, "sched client: " +
                       std::string(svc::error_code_name(error->code)) + ": " +
                       error->message);
}

}  // namespace

void JobClient::connect(const svc::Address& address) {
  svc::Dialed dialed = svc::dial_hello(address);
  if (dialed.server_minor < 2) {
    protocol_error("server minor revision " +
                       std::to_string(dialed.server_minor) +
                       " predates job control (needs >= 2)",
                   svc::TransportError::Kind::Unsupported);
  }
  fd_ = std::move(dialed.fd);
  server_minor_ = dialed.server_minor;
  util::log_info("sched: connected",
                 {{"server", address.to_string()},
                  {"server_minor", server_minor_},
                  {"build", util::version_string()}});
}

svc::Frame JobClient::roundtrip(svc::MsgType type, std::string_view payload) {
  if (!fd_.valid()) {
    protocol_error("not connected", svc::TransportError::Kind::ConnectionLost);
  }
  if (!svc::write_all(fd_.get(), svc::encode_frame(type, payload))) {
    fd_.reset();
    protocol_error("connection lost on send",
                   svc::TransportError::Kind::ConnectionLost);
  }
  svc::Frame frame;
  // Scheduler operations are state mutations, not evaluations: a minute of
  // silence means the daemon is gone, not busy.
  const svc::ReadStatus status = svc::read_frame(fd_.get(), frame, 60'000);
  if (status != svc::ReadStatus::Ok) {
    fd_.reset();
    protocol_error("connection lost awaiting reply",
                   status == svc::ReadStatus::Timeout
                       ? svc::TransportError::Kind::Timeout
                       : svc::TransportError::Kind::ConnectionLost);
  }
  return frame;
}

SubmitOutcome JobClient::submit(const JobSpec& spec) {
  const std::uint64_t id = next_request_id();
  const svc::Frame reply =
      roundtrip(svc::MsgType::SubmitJob, encode_submit_job({id, spec}));
  SubmitOutcome outcome;
  if (reply.type == svc::MsgType::SubmitOk) {
    const auto ok = decode_submit_ok(reply.payload);
    if (!ok || ok->request_id != id) protocol_error("bad SubmitOk");
    outcome.accepted = true;
    outcome.job_id = ok->job_id;
    return outcome;
  }
  if (reply.type == svc::MsgType::QueueFull) {
    const auto full = decode_queue_full(reply.payload);
    if (!full || full->request_id != id) protocol_error("bad QueueFull");
    outcome.retry_after_ms = full->retry_after_ms;
    return outcome;
  }
  if (reply.type == svc::MsgType::Error) raise_error_reply(reply);
  protocol_error("unexpected reply to SubmitJob");
}

std::optional<JobInfo> JobClient::status(std::uint64_t job_id) {
  const std::uint64_t id = next_request_id();
  const svc::Frame reply = roundtrip(svc::MsgType::JobStatusRequest,
                                     encode_job_id_msg({id, job_id}));
  if (reply.type == svc::MsgType::JobStatusResponse) {
    const auto msg = decode_job_status(reply.payload);
    if (!msg || msg->request_id != id) {
      protocol_error("bad JobStatusResponse");
    }
    return msg->info;
  }
  if (reply.type == svc::MsgType::Error) {
    const auto error = svc::decode_error(reply.payload);
    if (error && error->code == svc::ErrorCode::MalformedRequest) {
      return std::nullopt;  // unknown job id
    }
    raise_error_reply(reply);
  }
  protocol_error("unexpected reply to JobStatusRequest");
}

std::optional<JobInfo> JobClient::cancel(std::uint64_t job_id) {
  const std::uint64_t id = next_request_id();
  const svc::Frame reply =
      roundtrip(svc::MsgType::CancelJob, encode_job_id_msg({id, job_id}));
  if (reply.type == svc::MsgType::JobStatusResponse) {
    const auto msg = decode_job_status(reply.payload);
    if (!msg || msg->request_id != id) {
      protocol_error("bad JobStatusResponse");
    }
    return msg->info;
  }
  if (reply.type == svc::MsgType::Error) {
    const auto error = svc::decode_error(reply.payload);
    if (error && error->code == svc::ErrorCode::MalformedRequest) {
      return std::nullopt;
    }
    raise_error_reply(reply);
  }
  protocol_error("unexpected reply to CancelJob");
}

std::vector<JobInfo> JobClient::list(const std::string& tenant) {
  const std::uint64_t id = next_request_id();
  const svc::Frame reply =
      roundtrip(svc::MsgType::ListJobs, encode_list_jobs({id, tenant}));
  if (reply.type == svc::MsgType::JobList) {
    const auto msg = decode_job_list(reply.payload);
    if (!msg || msg->request_id != id) protocol_error("bad JobList");
    return msg->jobs;
  }
  if (reply.type == svc::MsgType::Error) raise_error_reply(reply);
  protocol_error("unexpected reply to ListJobs");
}

bool JobClient::ping() {
  const std::uint64_t nonce = next_request_id();
  const svc::Frame reply =
      roundtrip(svc::MsgType::Ping, svc::encode_ping(nonce));
  return reply.type == svc::MsgType::Pong &&
         svc::decode_ping(reply.payload) == nonce;
}

}  // namespace intooa::sched
