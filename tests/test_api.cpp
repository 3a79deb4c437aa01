// Tests for intooa::api — the unified client facade. Covers the error
// taxonomy's three deterministic mappings (retryability, HTTP status, CLI
// exit code), exception→Error classification from the typed transport
// exceptions, Expected<T> access discipline, the JSON codecs shared with
// the gateway, and api::Session end to end against live intooa-served /
// intooa-schedd engines: a facade-served evaluation is byte-identical to
// the in-process recompute, job control round-trips, and a down endpoint
// surfaces as a retryable Unavailable instead of an exception.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/error.hpp"
#include "api/json.hpp"
#include "api/session.hpp"
#include "core/eval_key.hpp"
#include "obs/json.hpp"
#include "sched/scheduler.hpp"
#include "sched/service.hpp"
#include "sizing/sizer.hpp"
#include "store/record_io.hpp"
#include "svc/server.hpp"
#include "svc/socket.hpp"
#include "util/rng.hpp"

namespace {

using namespace intooa;

/// Fresh unix-socket address for one test (unlinked up front; kept short —
/// sun_path is ~108 bytes).
svc::Address fresh_unix(const std::string& name) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("intooa-" + name + "-" + std::to_string(::getpid()) + ".sock"))
          .string();
  std::filesystem::remove(path);
  return svc::Address::parse("unix:" + path);
}

/// Tiny sizing protocol so an evaluation costs milliseconds, not seconds.
sizing::SizingConfig tiny_sizing() {
  sizing::SizingConfig cfg;
  cfg.init_points = 2;
  cfg.iterations = 2;
  cfg.candidates = 16;
  cfg.refit_hyper_every = 1;
  return cfg;
}

svc::EvalRequest tiny_request(std::uint64_t topology_index,
                              const std::string& spec = "S-1") {
  svc::EvalRequest request;
  request.spec = circuit::spec_by_name(spec);
  request.sizing = tiny_sizing();
  request.topology_index = topology_index;
  return request;
}

/// The exact in-process evaluation the service promises to match
/// byte-for-byte: key-seeded RNG, paper sizer, store encoding.
std::string evaluate_in_process(const svc::EvalRequest& request) {
  const sizing::EvalContext context = request.eval_context();
  const core::EvalKeyContext keys(context, request.sizing);
  const circuit::Topology topology = circuit::Topology::from_index(
      static_cast<std::size_t>(request.topology_index));
  const core::EvalKey key = keys.key_for(topology);
  util::Rng sizing_rng(key.digest);
  const sizing::Sizer sizer(context, request.sizing);
  core::EvalRecord record;
  record.topology = topology;
  record.sized = sizer.size(topology, sizing_rng);
  return store::encode_record(key, record);
}

/// Evaluation server on its own thread; drains and joins on destruction.
struct TestServer {
  svc::Server server;
  std::thread thread;

  explicit TestServer(svc::ServerConfig config) : server(std::move(config)) {
    server.bind();
    thread = std::thread([this] { server.run(); });
  }
  ~TestServer() { stop(); }
  void stop() {
    if (thread.joinable()) {
      server.begin_drain();
      thread.join();
    }
  }
};

/// Minimal scheduler workload for job-control round-trips — never runs a
/// real campaign.
struct NullWorkload : sched::Workload {
  void validate(const sched::JobSpec& spec) override {
    if (spec.specs.empty()) throw std::invalid_argument("job has no specs");
  }
  sched::UnitResult run_unit(const sched::JobInfo&,
                             const sched::UnitRef&) override {
    return sched::UnitResult{1};
  }
  void finalize(const sched::JobInfo&) override {}
};

sched::JobSpec tiny_spec(const std::string& tenant = "api") {
  sched::JobSpec spec;
  spec.tenant = tenant;
  spec.specs = {"S-1"};
  spec.params.runs = 1;
  spec.params.init_topologies = 2;
  spec.params.iterations = 1;
  spec.params.pool = 10;
  spec.params.sizing_init = 2;
  spec.params.sizing_iterations = 2;
  spec.params.seed = 7;
  return spec;
}

constexpr api::ErrorCode kAllCodes[] = {
    api::ErrorCode::InvalidArgument, api::ErrorCode::NotFound,
    api::ErrorCode::Busy,            api::ErrorCode::QueueFull,
    api::ErrorCode::Draining,        api::ErrorCode::Unavailable,
    api::ErrorCode::Timeout,         api::ErrorCode::Protocol,
    api::ErrorCode::Unsupported,     api::ErrorCode::Internal,
};

// ---- taxonomy mappings ------------------------------------------------------

TEST(ApiError, RetryabilityPartitionsTheTaxonomy) {
  EXPECT_TRUE(api::error_retryable(api::ErrorCode::Busy));
  EXPECT_TRUE(api::error_retryable(api::ErrorCode::QueueFull));
  EXPECT_TRUE(api::error_retryable(api::ErrorCode::Draining));
  EXPECT_TRUE(api::error_retryable(api::ErrorCode::Unavailable));
  EXPECT_TRUE(api::error_retryable(api::ErrorCode::Timeout));
  EXPECT_FALSE(api::error_retryable(api::ErrorCode::InvalidArgument));
  EXPECT_FALSE(api::error_retryable(api::ErrorCode::NotFound));
  EXPECT_FALSE(api::error_retryable(api::ErrorCode::Protocol));
  EXPECT_FALSE(api::error_retryable(api::ErrorCode::Unsupported));
  EXPECT_FALSE(api::error_retryable(api::ErrorCode::Internal));
}

TEST(ApiError, HttpStatusIsDeterministicPerCode) {
  EXPECT_EQ(api::error_http_status(api::ErrorCode::InvalidArgument), 400);
  EXPECT_EQ(api::error_http_status(api::ErrorCode::NotFound), 404);
  EXPECT_EQ(api::error_http_status(api::ErrorCode::Busy), 429);
  EXPECT_EQ(api::error_http_status(api::ErrorCode::QueueFull), 429);
  EXPECT_EQ(api::error_http_status(api::ErrorCode::Draining), 503);
  EXPECT_EQ(api::error_http_status(api::ErrorCode::Unavailable), 502);
  EXPECT_EQ(api::error_http_status(api::ErrorCode::Timeout), 504);
  EXPECT_EQ(api::error_http_status(api::ErrorCode::Protocol), 502);
  EXPECT_EQ(api::error_http_status(api::ErrorCode::Unsupported), 501);
  EXPECT_EQ(api::error_http_status(api::ErrorCode::Internal), 500);
}

TEST(ApiError, ExitCodesFollowTheDocumentedContract) {
  // 2 usage, 3 retryable, 4 permanent — the CLI's process exit statuses.
  for (const api::ErrorCode code : kAllCodes) {
    const int exit_code = api::error_exit_code(code);
    if (code == api::ErrorCode::InvalidArgument) {
      EXPECT_EQ(exit_code, 2);
    } else if (api::error_retryable(code)) {
      EXPECT_EQ(exit_code, 3) << api::error_code_name(code);
    } else {
      EXPECT_EQ(exit_code, 4) << api::error_code_name(code);
    }
  }
}

TEST(ApiError, CodeNamesRoundTripAndRejectUnknown) {
  for (const api::ErrorCode code : kAllCodes) {
    const auto back = api::error_code_from_name(api::error_code_name(code));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, code);
  }
  EXPECT_FALSE(api::error_code_from_name("no_such_code").has_value());
  EXPECT_FALSE(api::error_code_from_name("").has_value());
}

TEST(ApiError, ExceptionsMapByTypeNotByMessage) {
  using Kind = svc::TransportError::Kind;
  const auto code_of = [](const std::exception& e) {
    return api::error_from_exception(e).code;
  };
  EXPECT_EQ(code_of(svc::TransportError(Kind::Connect, "x")),
            api::ErrorCode::Unavailable);
  EXPECT_EQ(code_of(svc::TransportError(Kind::ConnectionLost, "x")),
            api::ErrorCode::Unavailable);
  EXPECT_EQ(code_of(svc::TransportError(Kind::Timeout, "x")),
            api::ErrorCode::Timeout);
  EXPECT_EQ(code_of(svc::TransportError(Kind::Protocol, "x")),
            api::ErrorCode::Protocol);
  EXPECT_EQ(code_of(svc::TransportError(Kind::Unsupported, "x")),
            api::ErrorCode::Unsupported);
  EXPECT_EQ(code_of(svc::RemoteError(svc::ErrorCode::Draining, "x")),
            api::ErrorCode::Draining);
  EXPECT_EQ(code_of(svc::RemoteError(svc::ErrorCode::Internal, "x")),
            api::ErrorCode::Internal);
  EXPECT_EQ(code_of(svc::RemoteError(svc::ErrorCode::MalformedRequest, "x")),
            api::ErrorCode::InvalidArgument);
  EXPECT_EQ(code_of(svc::RemoteError(svc::ErrorCode::BadFrame, "x")),
            api::ErrorCode::Protocol);
  EXPECT_EQ(code_of(std::invalid_argument("x")),
            api::ErrorCode::InvalidArgument);
  EXPECT_EQ(code_of(std::runtime_error("x")), api::ErrorCode::Internal);
  // The message rides along verbatim.
  EXPECT_EQ(api::error_from_exception(std::runtime_error("boom")).message,
            "boom");
}

// ---- Expected ---------------------------------------------------------------

TEST(ApiExpected, ValueAndErrorSidesAreExclusive) {
  api::Expected<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(static_cast<bool>(ok));
  EXPECT_EQ(ok.value(), 7);
  EXPECT_THROW(ok.error(), std::logic_error);

  api::Expected<int> bad(api::Error{api::ErrorCode::NotFound, "gone", 0});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, api::ErrorCode::NotFound);
  EXPECT_EQ(bad.error().http_status(), 404);
  EXPECT_THROW(bad.value(), std::logic_error);

  api::Expected<std::string> take(std::string("payload"));
  EXPECT_EQ(std::move(take).take(), "payload");
}

// ---- JSON codecs ------------------------------------------------------------

TEST(ApiJson, ErrorBodyRoundTripsEveryCode) {
  for (const api::ErrorCode code : kAllCodes) {
    api::Error error{code, "message for " +
                               std::string(api::error_code_name(code)),
                     code == api::ErrorCode::QueueFull ? 1500u : 0u};
    const obs::Json body = error_to_json(error);
    EXPECT_TRUE(body.at("error").contains("retryable"));
    EXPECT_EQ(body.at("error").at("retryable").as_bool(), error.retryable());
    const api::Error back = api::error_from_json(body);
    EXPECT_EQ(back, error) << api::error_code_name(code);
  }
  // Garbage decodes to Internal, never throws.
  EXPECT_EQ(api::error_from_json(obs::Json::parse("{}")).code,
            api::ErrorCode::Internal);
  EXPECT_EQ(api::error_from_json(obs::Json::parse("[1,2]")).code,
            api::ErrorCode::Internal);
}

TEST(ApiJson, JobSpecRoundTripsAndRejectsUnknownFields) {
  sched::JobSpec spec = tiny_spec("acme");
  spec.priority = 3;
  spec.method = "FE-GA";
  spec.specs = {"S-1", "S-3"};
  const api::Expected<sched::JobSpec> back =
      api::job_spec_from_json(api::job_spec_to_json(spec));
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back.value(), spec);

  // Defaults survive omission: an empty object is the default JobSpec.
  const api::Expected<sched::JobSpec> empty =
      api::job_spec_from_json(obs::Json::parse("{}"));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value(), sched::JobSpec{});

  // A typo'd member is an InvalidArgument naming the field, not silence.
  const api::Expected<sched::JobSpec> typo =
      api::job_spec_from_json(obs::Json::parse("{\"tenent\": \"a\"}"));
  ASSERT_FALSE(typo.ok());
  EXPECT_EQ(typo.error().code, api::ErrorCode::InvalidArgument);
  EXPECT_NE(typo.error().message.find("tenent"), std::string::npos);

  const api::Expected<sched::JobSpec> bad_param = api::job_spec_from_json(
      obs::Json::parse("{\"params\": {\"runs\": -1}}"));
  ASSERT_FALSE(bad_param.ok());
  EXPECT_NE(bad_param.error().message.find("runs"), std::string::npos);
}

TEST(ApiJson, EvalRequestDecodingIsStrict) {
  const api::Expected<svc::EvalRequest> ok = api::eval_request_from_json(
      obs::Json::parse("{\"spec\": \"S-2\", \"topology\": 5, "
                       "\"sizing\": {\"init_points\": 3}}"));
  ASSERT_TRUE(ok.ok()) << ok.error().message;
  EXPECT_EQ(ok.value().spec.name, "S-2");
  EXPECT_EQ(ok.value().topology_index, 5u);
  EXPECT_EQ(ok.value().sizing.init_points, 3u);
  // Unspecified sizing fields keep the struct defaults.
  EXPECT_EQ(ok.value().sizing.iterations, sizing::SizingConfig{}.iterations);

  EXPECT_FALSE(api::eval_request_from_json(obs::Json::parse("{}")).ok());
  EXPECT_FALSE(api::eval_request_from_json(
                   obs::Json::parse("{\"spec\": \"S-1\"}"))
                   .ok());
  EXPECT_FALSE(api::eval_request_from_json(
                   obs::Json::parse("{\"spec\": \"NOPE\", \"topology\": 0}"))
                   .ok());
  EXPECT_FALSE(
      api::eval_request_from_json(
          obs::Json::parse(
              "{\"spec\": \"S-1\", \"topology\": 0, \"bogus\": 1}"))
          .ok());
}

TEST(ApiJson, OutOfRangeNumbersAreRejectedBeforeTheCast) {
  // Numbers outside [0, 2^64) must be rejected up front — the float→u64
  // conversion of 1e300 is undefined behavior, and these fields arrive in
  // attacker-supplied gateway request bodies.
  EXPECT_FALSE(api::eval_request_from_json(
                   obs::Json::parse(
                       "{\"spec\": \"S-1\", \"topology\": 1e300}"))
                   .ok());
  EXPECT_FALSE(api::job_spec_from_json(
                   obs::Json::parse("{\"priority\": 1e300}"))
                   .ok());
  EXPECT_FALSE(api::job_spec_from_json(
                   obs::Json::parse("{\"params\": {\"seed\": 2e19}}"))
                   .ok());
  // A huge retry hint in an error body is dropped, not converted.
  const api::Error hinted = api::error_from_json(obs::Json::parse(
      "{\"error\": {\"code\": \"busy\", \"retry_after_ms\": 1e300}}"));
  EXPECT_EQ(hinted.retry_after_ms, 0u);
  // The largest exactly-representable u64 double still decodes.
  const api::Expected<svc::EvalRequest> big = api::eval_request_from_json(
      obs::Json::parse("{\"spec\": \"S-1\", \"topology\": 4294967295}"));
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big.value().topology_index, 4294967295u);
}

TEST(ApiJson, Fnv1aMatchesKnownVectors) {
  // FNV-1a 64 reference values.
  EXPECT_EQ(api::fnv1a_hex(""), "cbf29ce484222325");
  EXPECT_EQ(api::fnv1a_hex("a"), "af63dc4c8601ec8c");
  EXPECT_EQ(api::fnv1a_hex("foobar"), "85944171f73967e8");
}

// ---- Session against live services -----------------------------------------

TEST(ApiSession, EvaluationMatchesInProcessBytes) {
  svc::ServerConfig config;
  config.address = fresh_unix("api-eval");
  config.threads = 2;
  TestServer server(std::move(config));

  api::SessionConfig session_config;
  session_config.evaluators = {server.server.config().address};
  api::Session session(std::move(session_config));

  const svc::EvalRequest request = tiny_request(3);
  const api::Expected<api::EvaluationOutcome> outcome =
      session.evaluations().evaluate(request);
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  EXPECT_EQ(outcome.value().record_payload, evaluate_in_process(request));
  EXPECT_EQ(outcome.value().record.record.topology.index(), 3u);

  // The shard digest is the EvalKey digest — the same key the stores use.
  const sizing::EvalContext context = request.eval_context();
  const core::EvalKeyContext keys(context, request.sizing);
  const auto digest = api::Evaluations::shard_digest(request);
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(digest.value(),
            keys.key_for(circuit::Topology::from_index(3)).digest);
}

TEST(ApiSession, ConcurrentFirstEvaluationsShareOnePool) {
  // The gateway calls evaluations() from concurrent connection-handler
  // threads without an external lock; the very first calls race to build
  // the pool. Exactly one pool must be installed (TSan guards the
  // install-vs-use race this test provokes).
  svc::ServerConfig config;
  config.address = fresh_unix("api-race");
  config.threads = 2;
  TestServer server(std::move(config));

  api::SessionConfig session_config;
  session_config.evaluators = {server.server.config().address};
  api::Session session(std::move(session_config));

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<api::Expected<api::EvaluationOutcome>> outcomes(
      kThreads, api::Error{api::ErrorCode::Internal, "unset", 0});
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      outcomes[static_cast<std::size_t>(i)] =
          session.evaluations().evaluate(
              tiny_request(static_cast<std::uint64_t>(i)));
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int i = 0; i < kThreads; ++i) {
    const auto& outcome = outcomes[static_cast<std::size_t>(i)];
    ASSERT_TRUE(outcome.ok()) << outcome.error().message;
    EXPECT_EQ(outcome.value().record.record.topology.index(),
              static_cast<std::size_t>(i));
  }
}

TEST(ApiSession, DownEndpointIsRetryableUnavailableAndRedials) {
  const svc::Address address = fresh_unix("api-down");
  api::SessionConfig config;
  config.evaluators = {address};
  config.pool.max_connect_attempts = 1;
  config.pool.reconnect_base_ms = 10;
  config.pool.reconnect_cap_ms = 20;
  api::Session session(std::move(config));

  const api::Expected<api::EvaluationOutcome> down =
      session.evaluations().evaluate(tiny_request(0));
  ASSERT_FALSE(down.ok());
  EXPECT_EQ(down.error().code, api::ErrorCode::Unavailable);
  EXPECT_TRUE(down.error().retryable());

  // Bring a server up on the same address: the same session serves the
  // next call without being reconstructed (the pool keeps probing).
  svc::ServerConfig server_config;
  server_config.address = address;
  server_config.threads = 1;
  TestServer server(std::move(server_config));
  const svc::EvalRequest request = tiny_request(1);
  api::Expected<api::EvaluationOutcome> up(
      api::Error{api::ErrorCode::Internal, "", 0});
  for (int attempt = 0; attempt < 50; ++attempt) {
    up = session.evaluations().evaluate(request);
    if (up.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(up.ok()) << up.error().message;
  EXPECT_EQ(up.value().record_payload, evaluate_in_process(request));
}

TEST(ApiSession, UnconfiguredBackendsAreInvalidArgument) {
  api::Session session(api::SessionConfig{});
  const auto eval = session.evaluations().evaluate(tiny_request(0));
  ASSERT_FALSE(eval.ok());
  EXPECT_EQ(eval.error().code, api::ErrorCode::InvalidArgument);
  const auto jobs = session.jobs().list();
  ASSERT_FALSE(jobs.ok());
  EXPECT_EQ(jobs.error().code, api::ErrorCode::InvalidArgument);
  const auto stats = session.stats().fetch_json();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.error().code, api::ErrorCode::InvalidArgument);
}

TEST(ApiSession, StatsDocumentIsServed) {
  svc::ServerConfig config;
  config.address = fresh_unix("api-stats");
  config.threads = 1;
  TestServer server(std::move(config));

  api::SessionConfig session_config;
  session_config.evaluators = {server.server.config().address};
  api::Session session(std::move(session_config));
  const api::Expected<std::string> stats = session.stats().fetch_json();
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  const obs::Json root = obs::Json::parse(stats.value());
  EXPECT_TRUE(root.contains("metrics"));
  EXPECT_GE(root.at("protocol_minor").as_number(), 1.0);
}

// A handshake answered Error surfaces with its wire code (svc::dial_hello
// throws RemoteError), so a draining evaluator reads as retryable Draining,
// not as a protocol fault.
TEST(ApiSession, StatsHandshakeErrorMapsByWireCode) {
  const svc::Address address = fresh_unix("api-hello-error");
  svc::Fd listener = svc::listen_on(address);
  std::thread peer([&] {
    svc::Fd fd(::accept(listener.get(), nullptr, nullptr));
    svc::Frame hello;
    if (svc::read_frame(fd.get(), hello, 10'000) == svc::ReadStatus::Ok) {
      svc::write_all(fd.get(),
                     svc::encode_frame(svc::MsgType::Error,
                                       svc::encode_error(
                                           {0, svc::ErrorCode::Draining,
                                            "shutting down"})));
    }
  });

  api::SessionConfig config;
  config.evaluators = {address};
  api::Session session(std::move(config));
  const api::Expected<std::string> stats = session.stats().fetch_json();
  peer.join();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.error().code, api::ErrorCode::Draining);
  EXPECT_TRUE(stats.error().retryable());
  ::unlink(address.path.c_str());
}

TEST(ApiSession, JobControlRoundTripsThroughTheFacade) {
  auto workload = std::make_shared<NullWorkload>();
  sched::SchedulerConfig sched_config;
  sched_config.workers = 1;
  sched::Scheduler scheduler(sched_config, workload);
  sched::ServiceConfig svc_config;
  svc_config.address = fresh_unix("api-jobs");
  sched::JobService service(svc_config, scheduler);
  service.bind();
  std::thread server([&] { service.run(); });

  api::SessionConfig config;
  config.scheduler = svc_config.address;
  api::Session session(std::move(config));
  api::Jobs& jobs = session.jobs();

  const api::Expected<bool> ping = jobs.ping();
  ASSERT_TRUE(ping.ok()) << ping.error().message;
  EXPECT_TRUE(ping.value());

  const api::Expected<std::uint64_t> submitted = jobs.submit(tiny_spec());
  ASSERT_TRUE(submitted.ok()) << submitted.error().message;

  const api::Expected<sched::JobInfo> status = jobs.status(submitted.value());
  ASSERT_TRUE(status.ok()) << status.error().message;
  EXPECT_EQ(status.value().id, submitted.value());
  EXPECT_EQ(status.value().spec.tenant, "api");

  const api::Expected<std::vector<sched::JobInfo>> list = jobs.list();
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.value().size(), 1u);

  // Unknown ids are NotFound — a permanent, non-retryable error.
  const api::Expected<sched::JobInfo> missing = jobs.status(999);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, api::ErrorCode::NotFound);
  EXPECT_FALSE(missing.error().retryable());
  const api::Expected<sched::JobInfo> cancel_missing = jobs.cancel(999);
  ASSERT_FALSE(cancel_missing.ok());
  EXPECT_EQ(cancel_missing.error().code, api::ErrorCode::NotFound);

  // A rejected spec (workload validation) is InvalidArgument.
  sched::JobSpec bad = tiny_spec();
  bad.specs.clear();
  const api::Expected<std::uint64_t> rejected = jobs.submit(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, api::ErrorCode::InvalidArgument);

  service.begin_drain();
  server.join();
  scheduler.stop();
}

TEST(ApiSession, SchedulerConnectFailureIsUnavailable) {
  api::SessionConfig config;
  config.scheduler = fresh_unix("api-nosched");
  api::Session session(std::move(config));
  const auto list = session.jobs().list();
  ASSERT_FALSE(list.ok());
  EXPECT_EQ(list.error().code, api::ErrorCode::Unavailable);
  EXPECT_TRUE(list.error().retryable());
}

}  // namespace
