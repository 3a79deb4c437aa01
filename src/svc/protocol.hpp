#pragma once
// intooa::svc wire protocol — the versioned, length-prefixed binary framing
// spoken between intooa-served and its clients over TCP or Unix-domain
// sockets (docs/SERVICE.md has the byte-level layout).
//
// Every frame is:   u32 payload_len | u8 msg_type | payload[payload_len]
// with payload_len capped at kMaxFrame; a peer announcing a larger frame is
// protocol-corrupt and the connection is terminated after an Error reply.
// A connection opens with a Hello / HelloOk handshake that pins the
// protocol version; everything after is request/response keyed by a
// client-chosen u64 request id, so responses may arrive out of order (the
// server evaluates concurrently across its thread pool).
//
// An EvalRequest carries the full evaluation identity — spec, behavioral
// model, AC options, sizing protocol, topology index — i.e. exactly the
// inputs of core::EvalKeyContext. The EvalResponse payload embeds the
// store::encode_record(key, record) bytes unchanged, so a remotely served
// evaluation is byte-comparable (and byte-identical, by the deterministic
// sizing discipline) to the same evaluation run in-process.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "circuit/topology.hpp"
#include "core/evaluator.hpp"
#include "sizing/evaluate.hpp"
#include "sizing/sizer.hpp"

namespace intooa::svc {

/// Protocol version; bumped on any frame/message layout change. Hello
/// carries it and the server rejects mismatches (no negotiation: client and
/// server builds must agree, like the store log version).
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Minor protocol revision, carried in the Hello field that version-1.0
/// peers wrote as all-zero "reserved flags" — so the bump is invisible to
/// old binaries in both directions. Minor revisions are strictly additive
/// (optional payload tails, new message types the peer only sees when it
/// asks for them) and are never rejected; each side simply ignores
/// capabilities the other did not announce.
///
/// History: 1 adds StatsRequest/StatsResponse, the optional EvalRequest
/// trace-context tail and the EvalResponse server-timings trailer.
/// 2 adds the job-control message types (SubmitJob .. JobList, served by
/// intooa-schedd; payload codecs live in sched/protocol.hpp).
inline constexpr std::uint32_t kProtocolMinorVersion = 2;

/// Handshake magic inside the Hello payload.
inline constexpr std::string_view kHelloMagic = "intooa-svc";

/// Hard cap on one frame payload. Requests are a few hundred bytes and
/// responses a few KiB (40-point sizing history); anything near the cap is
/// corruption or abuse, not traffic.
inline constexpr std::uint32_t kMaxFrame = 1u << 22;  // 4 MiB

/// Bytes of the fixed frame header (u32 payload_len + u8 msg_type).
inline constexpr std::size_t kFrameHeaderSize = 5;

enum class MsgType : std::uint8_t {
  Hello = 1,         ///< client -> server: magic + protocol version
  HelloOk = 2,       ///< server -> client: version accepted
  EvalRequest = 3,   ///< client -> server: one evaluation
  EvalResponse = 4,  ///< server -> client: the stored-record bytes
  Busy = 5,          ///< server -> client: backpressure, retry later
  Error = 6,         ///< server -> client: request- or connection-level error
  Ping = 7,          ///< client -> server: liveness probe
  Pong = 8,          ///< server -> client: echo of Ping
  StatsRequest = 9,  ///< client -> server: live stats snapshot (minor >= 1)
  StatsResponse = 10,  ///< server -> client: stats document (JSON text)
  // Job control (minor >= 2), spoken by intooa-schedd. The payload codecs
  // live in sched/protocol.hpp — svc only names the types so its frame
  // reader admits them and the two daemons can never collide on a value.
  SubmitJob = 11,   ///< client -> schedd: enqueue a campaign job
  SubmitOk = 12,    ///< schedd -> client: job accepted, carries the job id
  QueueFull = 13,   ///< schedd -> client: backpressure + retry hint
  JobStatusRequest = 14,  ///< client -> schedd: one job's status
  JobStatusResponse = 15, ///< schedd -> client: JobInfo snapshot
  CancelJob = 16,   ///< client -> schedd: cancel (queued or at unit boundary)
  ListJobs = 17,    ///< client -> schedd: all jobs, optionally one tenant's
  JobList = 18,     ///< schedd -> client: JobInfo snapshots
};

/// True when a raw frame-header type byte names a known MsgType. The frame
/// reader rejects anything else up front (ReadStatus::BadType): a bogus
/// byte cast straight into the enum would otherwise carry an out-of-range
/// value through every switch over it.
constexpr bool msg_type_known(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(MsgType::Hello) &&
         raw <= static_cast<std::uint8_t>(MsgType::JobList);
}

enum class ErrorCode : std::uint32_t {
  BadFrame = 1,         ///< unparseable frame or unknown message type
  VersionMismatch = 2,  ///< Hello magic/version not accepted
  OversizedFrame = 3,   ///< announced payload_len exceeds kMaxFrame
  MalformedRequest = 4, ///< EvalRequest payload failed validation
  Draining = 5,         ///< server is shutting down; no new work accepted
  Internal = 6,         ///< evaluation failed server-side
};

/// Name of an error code ("version_mismatch", ...) for logs and CLIs.
std::string_view error_code_name(ErrorCode code);

/// Cross-process trace context, the optional tail of an EvalRequest
/// (minor revision 1). A tracing client stamps its trace id and the span
/// that issued the request; the server tags its decode/evaluate/encode
/// spans with the propagated ids and echoes its timings in the response
/// trailer so the client can merge both sides into one Chrome trace.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;

  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// One evaluation over the wire: the complete input of core::EvalKeyContext
/// plus the topology. Identical configuration fields produce an identical
/// EvalKey on the server, hence identical warm-store addressing. The trace
/// context never feeds the evaluation — responses stay byte-identical with
/// or without it.
struct EvalRequest {
  std::uint64_t request_id = 0;
  circuit::Spec spec;
  circuit::BehavioralConfig behavioral;
  sim::AcOptions ac;
  sizing::SizingConfig sizing;
  std::uint64_t topology_index = 0;
  std::optional<TraceContext> trace;  ///< absent on the wire when nullopt

  /// The (context, config) pair this request evaluates under.
  sizing::EvalContext eval_context() const;
};

/// Where the server answered a request from (reported for observability and
/// asserted by the warm-serving tests).
enum class ServedFrom : std::uint8_t { Computed = 0, Memory = 1, Store = 2 };

/// Name of a serving tier ("computed", "memory", "store") for logs/CLIs.
std::string_view served_from_name(ServedFrom served);

/// Server-side stage timings, the optional trailer of an EvalResponse
/// (minor revision 1). Present exactly when the request carried a
/// TraceContext, so replies to non-tracing (and old) clients are
/// byte-identical to version 1.0.
struct ServerTimings {
  std::uint64_t trace_id = 0;        ///< echoed from the request
  std::uint64_t server_span_id = 0;  ///< id of the server's evaluate span
  std::uint64_t queue_ns = 0;        ///< admission -> pool pickup
  std::uint64_t decode_ns = 0;
  std::uint64_t eval_ns = 0;
  std::uint64_t encode_ns = 0;

  friend bool operator==(const ServerTimings&, const ServerTimings&) = default;
};

/// Decoded EvalResponse.
struct EvalResponse {
  std::uint64_t request_id = 0;
  ServedFrom served_from = ServedFrom::Computed;
  /// store::encode_record(key, record) bytes, verbatim. Decode with
  /// store::decode_record when the caller wants the structured result.
  std::string record_payload;
  std::optional<ServerTimings> timings;  ///< absent on the wire when nullopt
};

/// Decoded Busy reply.
struct BusyReply {
  std::uint64_t request_id = 0;
  std::uint32_t retry_after_ms = 0;  ///< server's backoff hint
};

/// Decoded Error reply. request_id == 0 marks a connection-level error
/// (handshake failure, bad frame) rather than a per-request one.
struct ErrorReply {
  std::uint64_t request_id = 0;
  ErrorCode code = ErrorCode::Internal;
  std::string message;
};

/// Live-stats query (minor revision 1). Answered on the connection thread,
/// outside admission control, so stats stay reachable under saturation.
struct StatsRequest {
  std::uint64_t request_id = 0;
  bool include_flight = false;  ///< also return the request flight recorder
};

/// Stats reply: a JSON document (uptime, metrics snapshot, quantiles,
/// optional flight records — see docs/OBSERVABILITY.md). JSON keeps the
/// payload extensible without further protocol revisions.
struct StatsResponse {
  std::uint64_t request_id = 0;
  std::string stats_json;
};

/// One parsed frame: the type tag plus the raw payload bytes.
struct Frame {
  MsgType type = MsgType::Error;
  std::string payload;
};

// ---- payload codecs (frame payload <-> message structs) ----
// Encoders produce payload bytes (no frame header); decoders are fully
// bounds-checked and return nullopt on any structural defect, trailing
// bytes included.

/// Hello announcement: major version plus the peer's minor revision (0 for
/// version-1.0 binaries, which wrote the field as reserved zero flags).
struct HelloInfo {
  std::uint32_t version = 0;
  std::uint32_t minor = 0;
};

std::string encode_hello(std::uint32_t version = kProtocolVersion,
                         std::uint32_t minor = kProtocolMinorVersion);
/// Returns the announced versions, or nullopt when magic/shape is wrong.
std::optional<HelloInfo> decode_hello(std::string_view payload);

/// HelloOk carries the server's minor revision only when the client's Hello
/// announced minor >= 1: version-1.0 clients reject trailing bytes, so
/// they keep receiving the original 4-byte payload. A missing tail decodes
/// as minor 0 (old server).
std::string encode_hello_ok(std::uint32_t version = kProtocolVersion,
                            std::optional<std::uint32_t> minor = std::nullopt);
std::optional<HelloInfo> decode_hello_ok(std::string_view payload);

std::string encode_eval_request(const EvalRequest& request);
std::optional<EvalRequest> decode_eval_request(std::string_view payload);

std::string encode_eval_response(const EvalResponse& response);
std::optional<EvalResponse> decode_eval_response(std::string_view payload);

std::string encode_busy(const BusyReply& busy);
std::optional<BusyReply> decode_busy(std::string_view payload);

std::string encode_error(const ErrorReply& error);
std::optional<ErrorReply> decode_error(std::string_view payload);

std::string encode_ping(std::uint64_t nonce);
std::optional<std::uint64_t> decode_ping(std::string_view payload);

std::string encode_stats_request(const StatsRequest& request);
std::optional<StatsRequest> decode_stats_request(std::string_view payload);

std::string encode_stats_response(const StatsResponse& response);
std::optional<StatsResponse> decode_stats_response(std::string_view payload);

/// Serializes a complete frame (header + payload) ready for the socket.
/// Throws std::length_error when payload exceeds kMaxFrame.
std::string encode_frame(MsgType type, std::string_view payload);

}  // namespace intooa::svc
