#include "api/session.hpp"

#include "circuit/topology.hpp"
#include "core/eval_key.hpp"
#include "svc/connection_host.hpp"

namespace intooa::api {

Session::Session(SessionConfig config)
    : config_(std::move(config)),
      evaluations_(*this),
      jobs_(*this),
      stats_(*this) {}

Session::~Session() { close(); }

void Session::close() {
  std::unique_ptr<svc::ClientPool> pool;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    pool = std::move(pool_);
  }
  if (pool) pool->close();
  drop_job_client();
}

Expected<svc::ClientPool*> Session::eval_pool() {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_) return pool_.get();
  if (config_.evaluators.empty()) {
    return Error{ErrorCode::InvalidArgument,
                 "session has no evaluator endpoints configured", 0};
  }
  try {
    pool_ = std::make_unique<svc::ClientPool>(config_.evaluators,
                                              config_.pool);
  } catch (const std::exception& e) {
    return error_from_exception(e);
  }
  return pool_.get();
}

Expected<sched::JobClient*> Session::job_client() {
  if (job_client_ && job_client_->connected()) return job_client_.get();
  if (!config_.scheduler) {
    return Error{ErrorCode::InvalidArgument,
                 "session has no scheduler endpoint configured", 0};
  }
  try {
    auto client = std::make_unique<sched::JobClient>();
    client->connect(*config_.scheduler);
    job_client_ = std::move(client);
  } catch (const std::exception& e) {
    return error_from_exception(e);
  }
  return job_client_.get();
}

void Session::drop_job_client() { job_client_.reset(); }

// ---- Evaluations ----

Expected<std::uint64_t> Evaluations::shard_digest(
    const svc::EvalRequest& request) {
  try {
    const core::EvalKeyContext keys(request.eval_context(), request.sizing);
    const circuit::Topology topology =
        circuit::Topology::from_index(request.topology_index);
    return keys.key_for(topology).digest;
  } catch (const std::exception& e) {
    return error_from_exception(e);
  }
}

Expected<EvaluationOutcome> Evaluations::evaluate(
    const svc::EvalRequest& request) {
  Expected<std::uint64_t> digest = shard_digest(request);
  if (!digest.ok()) return digest.error();
  Expected<svc::ClientPool*> pool = session_.eval_pool();
  if (!pool.ok()) return pool.error();
  std::optional<svc::EvalResponse> response =
      pool.value()->evaluate(request, digest.value());
  if (!response) {
    return Error{ErrorCode::Unavailable,
                 "evaluation not served: every evaluator endpoint is down "
                 "or the request failed server-side",
                 0};
  }
  EvaluationOutcome outcome;
  outcome.served_from = response->served_from;
  outcome.record_payload = std::move(response->record_payload);
  auto decoded = store::decode_record(outcome.record_payload);
  if (!decoded) {
    return Error{ErrorCode::Protocol,
                 "evaluation record bytes do not decode", 0};
  }
  outcome.record = std::move(*decoded);
  return outcome;
}

// ---- Jobs ----

template <typename T, typename Op>
Expected<T> Jobs::with_client(Op&& op) {
  Expected<sched::JobClient*> client = session_.job_client();
  if (!client.ok()) return client.error();
  try {
    return op(*client.value());
  } catch (const std::exception& e) {
    // Drop the connection on any failure: a transport error leaves the
    // stream unusable and a protocol error leaves it unsynchronized; the
    // next call redials cleanly either way.
    session_.drop_job_client();
    return error_from_exception(e);
  }
}

Expected<std::uint64_t> Jobs::submit(const sched::JobSpec& spec) {
  return with_client<std::uint64_t>(
      [&](sched::JobClient& client) -> Expected<std::uint64_t> {
        const sched::SubmitOutcome outcome = client.submit(spec);
        if (!outcome.accepted) {
          return Error{ErrorCode::QueueFull, "scheduler job queue is full",
                       outcome.retry_after_ms};
        }
        return outcome.job_id;
      });
}

Expected<sched::JobInfo> Jobs::status(std::uint64_t job_id) {
  return with_client<sched::JobInfo>(
      [&](sched::JobClient& client) -> Expected<sched::JobInfo> {
        const std::optional<sched::JobInfo> info = client.status(job_id);
        if (!info) {
          return Error{ErrorCode::NotFound,
                       "unknown job " + std::to_string(job_id), 0};
        }
        return *info;
      });
}

Expected<sched::JobInfo> Jobs::cancel(std::uint64_t job_id) {
  return with_client<sched::JobInfo>(
      [&](sched::JobClient& client) -> Expected<sched::JobInfo> {
        const std::optional<sched::JobInfo> info = client.cancel(job_id);
        if (!info) {
          return Error{ErrorCode::NotFound,
                       "unknown job " + std::to_string(job_id), 0};
        }
        return *info;
      });
}

Expected<std::vector<sched::JobInfo>> Jobs::list(const std::string& tenant) {
  return with_client<std::vector<sched::JobInfo>>(
      [&](sched::JobClient& client) -> Expected<std::vector<sched::JobInfo>> {
        return client.list(tenant);
      });
}

Expected<bool> Jobs::ping() {
  return with_client<bool>(
      [&](sched::JobClient& client) -> Expected<bool> {
        return client.ping();
      });
}

// ---- Stats ----

Expected<std::string> Stats::fetch_json(bool include_flight) {
  const SessionConfig& config = session_.config();
  if (config.evaluators.empty()) {
    return Error{ErrorCode::InvalidArgument,
                 "session has no evaluator endpoints configured", 0};
  }
  svc::Dialed dialed;
  try {
    dialed = svc::dial_hello(config.evaluators.front());
  } catch (const std::exception& e) {
    return error_from_exception(e);
  }
  if (dialed.server_minor < 1) {
    return Error{ErrorCode::Unsupported,
                 "svc: server is a protocol-1.0 build without stats support",
                 0};
  }
  svc::StatsRequest request;
  request.request_id = 1;
  request.include_flight = include_flight;
  if (!svc::write_all(dialed.fd.get(),
                      svc::encode_frame(svc::MsgType::StatsRequest,
                                        svc::encode_stats_request(request)))) {
    return Error{ErrorCode::Unavailable,
                 "svc: connection lost while requesting stats", 0};
  }
  svc::Frame frame;
  const svc::ReadStatus status =
      svc::read_frame(dialed.fd.get(), frame, config.stats_timeout_ms);
  if (status != svc::ReadStatus::Ok) {
    return Error{status == svc::ReadStatus::Timeout ? ErrorCode::Timeout
                                                    : ErrorCode::Unavailable,
                 "svc: no stats reply", 0};
  }
  if (frame.type == svc::MsgType::Error) {
    const auto error = svc::decode_error(frame.payload);
    return Error{ErrorCode::Protocol,
                 "svc: stats request rejected (" +
                     std::string(error ? svc::error_code_name(error->code)
                                       : "malformed") +
                     "): " + (error ? error->message : ""),
                 0};
  }
  auto response = frame.type == svc::MsgType::StatsResponse
                      ? svc::decode_stats_response(frame.payload)
                      : std::nullopt;
  if (!response || response->request_id != request.request_id) {
    return Error{ErrorCode::Protocol, "svc: malformed StatsResponse", 0};
  }
  return std::move(response->stats_json);
}

}  // namespace intooa::api
