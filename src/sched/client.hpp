#pragma once
// sched::JobClient — the job-control client for intooa-schedd, and the
// transport under api::Session::jobs(), which wraps it behind Expected
// returns and the api::Error taxonomy. connect() runs svc::dial_hello and
// requires minor >= 2; then one request / one reply per call (the
// operations are cheap state queries — nothing here needs the pipelining
// of svc::ClientPool). Each call throws std::runtime_error on transport or
// protocol failure; submit() reports QueueFull in-band via SubmitOutcome.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sched/job.hpp"
#include "svc/socket.hpp"

namespace intooa::sched {

/// Outcome of JobClient::submit.
struct SubmitOutcome {
  bool accepted = false;
  std::uint64_t job_id = 0;          ///< valid when accepted
  std::uint32_t retry_after_ms = 0;  ///< backoff hint when not
};

class JobClient {
 public:
  JobClient() = default;

  /// Connects and performs the Hello/HelloOk handshake. Throws on refusal,
  /// version mismatch, or a server older than minor 2.
  void connect(const svc::Address& address);

  bool connected() const { return fd_.valid(); }
  /// The server's announced minor protocol revision (valid when connected).
  std::uint32_t server_minor() const { return server_minor_; }

  /// Submits a job; QueueFull comes back as accepted == false.
  /// Throws std::invalid_argument when the daemon rejects the spec.
  SubmitOutcome submit(const JobSpec& spec);

  /// One job's snapshot; nullopt when the daemon does not know the id.
  std::optional<JobInfo> status(std::uint64_t job_id);

  /// Requests cancellation; returns the job's snapshot after the request.
  /// Nullopt when the daemon does not know the id.
  std::optional<JobInfo> cancel(std::uint64_t job_id);

  /// All jobs, optionally one tenant's, in submission order.
  std::vector<JobInfo> list(const std::string& tenant = "");

  /// Liveness probe.
  bool ping();

  void close() { fd_.reset(); }

 private:
  /// Sends one frame and reads the reply frame (request/response lockstep).
  svc::Frame roundtrip(svc::MsgType type, std::string_view payload);
  std::uint64_t next_request_id() { return request_id_++; }

  svc::Fd fd_;
  std::uint32_t server_minor_ = 0;
  std::uint64_t request_id_ = 1;
};

}  // namespace intooa::sched
