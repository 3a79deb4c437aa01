// Unit and end-to-end tests for intooa::svc — the wire codec, the socket
// framing (partial writes, torn frames, oversized frames), the
// Hello/HelloOk version handshake, bounded admission (Busy backpressure),
// the cache tiers (memory / persistent store), graceful drain, and the
// headline determinism contract: a remotely served evaluation is
// byte-identical to the same evaluation run in-process.

#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/eval_key.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sizing/sizer.hpp"
#include "core/evaluator.hpp"
#include "store/record_io.hpp"
#include "store/store.hpp"
#include "svc/client.hpp"
#include "svc/client_pool.hpp"
#include "svc/protocol.hpp"
#include "svc/remote_backend.hpp"
#include "svc/server.hpp"
#include "svc/socket.hpp"
#include "util/rng.hpp"

namespace {

using namespace intooa;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Fresh unix-socket address for one test (unlinked up front; kept short —
/// sun_path is ~108 bytes).
svc::Address fresh_unix(const std::string& name) {
  const std::string path =
      temp_path("intooa-" + name + "-" + std::to_string(::getpid()) + ".sock");
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

svc::EvalRequest tiny_request(std::uint64_t id, std::uint64_t topology_index,
                              const std::string& spec = "S-1") {
  svc::EvalRequest request;
  request.request_id = id;
  request.spec = circuit::spec_by_name(spec);
  request.sizing = tiny_sizing();
  request.topology_index = topology_index;
  return request;
}

/// The exact in-process evaluation the server promises to match
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

/// Server running on its own thread; drains and joins on destruction.
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

svc::ServerConfig base_config(const svc::Address& address) {
  svc::ServerConfig config;
  config.address = address;
  config.threads = 2;
  return config;
}

// ---- protocol codec -------------------------------------------------------

TEST(SvcProtocol, HelloRoundTripAndMagicCheck) {
  const std::string payload = svc::encode_hello(7, 3);
  const auto hello = svc::decode_hello(payload);
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->version, 7u);
  EXPECT_EQ(hello->minor, 3u);
  // A corrupted magic is rejected, not misparsed.
  std::string bad = payload;
  bad[0] ^= 0x5a;
  EXPECT_FALSE(svc::decode_hello(bad).has_value());
  EXPECT_FALSE(svc::decode_hello("").has_value());
}

TEST(SvcProtocol, EvalRequestRoundTripsEveryField) {
  svc::EvalRequest request = tiny_request(42, 137, "S-3");
  request.ac.points_per_decade = 24;
  request.ac.check_stability = false;
  request.behavioral.gm_hi *= 1.5;
  const auto decoded =
      svc::decode_eval_request(svc::encode_eval_request(request));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->request_id, 42u);
  EXPECT_EQ(decoded->topology_index, 137u);
  EXPECT_EQ(decoded->spec.name, "S-3");
  EXPECT_EQ(decoded->ac.points_per_decade, 24u);
  EXPECT_FALSE(decoded->ac.check_stability);
  EXPECT_EQ(decoded->behavioral.gm_hi, request.behavioral.gm_hi);
  EXPECT_EQ(decoded->sizing.init_points, request.sizing.init_points);
  // The decoded request builds the same evaluation key — the property the
  // warm tiers rely on.
  const core::EvalKeyContext a(request.eval_context(), request.sizing);
  const core::EvalKeyContext b(decoded->eval_context(), decoded->sizing);
  EXPECT_EQ(a.prefix(), b.prefix());
}

TEST(SvcProtocol, DecodersRejectTruncationAndTrailingBytes) {
  const std::string payload =
      svc::encode_eval_request(tiny_request(1, 2));
  for (const std::size_t cut : {std::size_t{0}, std::size_t{3},
                                payload.size() / 2, payload.size() - 1}) {
    EXPECT_FALSE(
        svc::decode_eval_request(payload.substr(0, cut)).has_value())
        << "cut=" << cut;
  }
  EXPECT_FALSE(svc::decode_eval_request(payload + "x").has_value());

  const std::string busy = svc::encode_busy({9, 250});
  EXPECT_FALSE(svc::decode_busy(busy + "x").has_value());
  const std::string error =
      svc::encode_error({9, svc::ErrorCode::Draining, "drain"});
  const auto decoded_error = svc::decode_error(error);
  ASSERT_TRUE(decoded_error.has_value());
  EXPECT_EQ(decoded_error->code, svc::ErrorCode::Draining);
  EXPECT_EQ(decoded_error->message, "drain");
}

TEST(SvcProtocol, FrameEncoderRejectsOversizedPayload) {
  EXPECT_THROW(svc::encode_frame(svc::MsgType::Error,
                                 std::string(svc::kMaxFrame + 1, 'x')),
               std::length_error);
}

TEST(SvcProtocol, AddressParsing) {
  const svc::Address unix_addr = svc::Address::parse("unix:/tmp/x.sock");
  EXPECT_EQ(unix_addr.kind, svc::Address::Kind::Unix);
  EXPECT_EQ(unix_addr.path, "/tmp/x.sock");
  const svc::Address tcp = svc::Address::parse("tcp:127.0.0.1:4815");
  EXPECT_EQ(tcp.kind, svc::Address::Kind::Tcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 4815);
  EXPECT_EQ(svc::Address::parse("localhost:80").kind,
            svc::Address::Kind::Tcp);
  EXPECT_EQ(svc::Address::parse("/tmp/y.sock").kind,
            svc::Address::Kind::Unix);
  EXPECT_THROW(svc::Address::parse(""), std::invalid_argument);
  EXPECT_THROW(svc::Address::parse("tcp:host:99999"), std::invalid_argument);
}

// ---- end-to-end -----------------------------------------------------------

TEST(SvcServer, RemoteEvaluationIsByteIdenticalToInProcess) {
  TestServer ts(base_config(fresh_unix("svc-bytes")));
  svc::Client client;
  client.connect(ts.server.config().address);

  const svc::EvalRequest request = tiny_request(1, 5);
  const svc::Reply reply = client.evaluate(request, 30'000);
  ASSERT_EQ(reply.kind, svc::Reply::Kind::Ok);
  EXPECT_EQ(reply.response.request_id, 1u);
  EXPECT_EQ(reply.response.served_from, svc::ServedFrom::Computed);
  EXPECT_EQ(reply.response.record_payload, evaluate_in_process(request));

  // Same key again: served from the shard memory cache, same bytes.
  const svc::Reply warm = client.evaluate(tiny_request(2, 5), 30'000);
  ASSERT_EQ(warm.kind, svc::Reply::Kind::Ok);
  EXPECT_EQ(warm.response.served_from, svc::ServedFrom::Memory);
  EXPECT_EQ(warm.response.record_payload, reply.response.record_payload);

  ts.stop();
  const svc::ServerStats stats = ts.server.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.responses_ok, 2u);
  EXPECT_EQ(stats.served_computed, 1u);
  EXPECT_EQ(stats.served_memory, 1u);
}

TEST(SvcServer, WarmStoreServesAcrossServerRestarts) {
  const std::string store_path = temp_path("intooa-svc-store-test.bin");
  std::filesystem::remove(store_path);
  const svc::Address address = fresh_unix("svc-warm");
  const svc::EvalRequest request = tiny_request(1, 9, "S-2");
  std::string cold_bytes;
  {
    svc::ServerConfig config = base_config(address);
    config.store = store::EvalStore::open(store_path);
    TestServer ts(std::move(config));
    svc::Client client;
    client.connect(address);
    const svc::Reply reply = client.evaluate(request, 30'000);
    ASSERT_EQ(reply.kind, svc::Reply::Kind::Ok);
    EXPECT_EQ(reply.response.served_from, svc::ServedFrom::Computed);
    cold_bytes = reply.response.record_payload;
  }
  {
    // Fresh server process-equivalent: empty memory cache, same store file.
    svc::ServerConfig config = base_config(address);
    config.store = store::EvalStore::open(store_path);
    TestServer ts(std::move(config));
    svc::Client client;
    client.connect(address);
    const svc::Reply reply = client.evaluate(request, 30'000);
    ASSERT_EQ(reply.kind, svc::Reply::Kind::Ok);
    EXPECT_EQ(reply.response.served_from, svc::ServedFrom::Store);
    EXPECT_EQ(reply.response.record_payload, cold_bytes);
    ts.stop();
    EXPECT_EQ(ts.server.stats().served_store, 1u);
  }
  std::filesystem::remove(store_path);
}

TEST(SvcServer, RejectsProtocolVersionMismatch) {
  TestServer ts(base_config(fresh_unix("svc-version")));
  svc::Fd fd = svc::connect_to(ts.server.config().address);
  ASSERT_TRUE(svc::write_all(
      fd.get(),
      svc::encode_frame(svc::MsgType::Hello, svc::encode_hello(99))));
  svc::Frame frame;
  ASSERT_EQ(svc::read_frame(fd.get(), frame, 10'000), svc::ReadStatus::Ok);
  ASSERT_EQ(frame.type, svc::MsgType::Error);
  const auto error = svc::decode_error(frame.payload);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, svc::ErrorCode::VersionMismatch);
  // The server closes the connection after rejecting the handshake.
  EXPECT_EQ(svc::read_frame(fd.get(), frame, 10'000),
            svc::ReadStatus::Closed);
}

TEST(SvcServer, RejectsOversizedFrames) {
  TestServer ts(base_config(fresh_unix("svc-oversized")));
  svc::Fd fd = svc::connect_to(ts.server.config().address);
  // Hand-rolled header announcing a payload over the cap.
  const std::uint32_t huge = svc::kMaxFrame + 1;
  std::string header(4, '\0');
  std::memcpy(header.data(), &huge, 4);
  header.push_back(static_cast<char>(svc::MsgType::Hello));
  ASSERT_TRUE(svc::write_all(fd.get(), header));
  svc::Frame frame;
  ASSERT_EQ(svc::read_frame(fd.get(), frame, 10'000), svc::ReadStatus::Ok);
  ASSERT_EQ(frame.type, svc::MsgType::Error);
  const auto error = svc::decode_error(frame.payload);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, svc::ErrorCode::OversizedFrame);
  EXPECT_EQ(svc::read_frame(fd.get(), frame, 10'000),
            svc::ReadStatus::Closed);
  EXPECT_EQ(ts.server.stats().errors, 1u);  // handshake errors are counted
}

TEST(SvcServer, ReassemblesDribbledFramesAndSurvivesTornOnes) {
  TestServer ts(base_config(fresh_unix("svc-partial")));
  const svc::Address& address = ts.server.config().address;

  {
    // A torn frame: half a Ping header, then a hard close. The server must
    // treat it as a broken peer, not wedge or crash.
    svc::Fd torn = svc::connect_to(address);
    ASSERT_TRUE(svc::write_all(torn.get(), std::string("\x03\x00", 2)));
  }

  // A peer that dribbles the handshake and a Ping a few bytes at a time
  // still gets served: read_frame reassembles across short reads.
  svc::Fd fd = svc::connect_to(address);
  const std::string hello =
      svc::encode_frame(svc::MsgType::Hello, svc::encode_hello());
  const std::string ping =
      svc::encode_frame(svc::MsgType::Ping, svc::encode_ping(0xA11CE));
  const std::string bytes = hello + ping;
  for (std::size_t i = 0; i < bytes.size(); i += 3) {
    ASSERT_TRUE(svc::write_all(fd.get(), bytes.substr(i, 3)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  svc::Frame frame;
  ASSERT_EQ(svc::read_frame(fd.get(), frame, 10'000), svc::ReadStatus::Ok);
  EXPECT_EQ(frame.type, svc::MsgType::HelloOk);
  ASSERT_EQ(svc::read_frame(fd.get(), frame, 10'000), svc::ReadStatus::Ok);
  EXPECT_EQ(frame.type, svc::MsgType::Pong);
  EXPECT_EQ(svc::decode_ping(frame.payload), 0xA11CEu);
}

TEST(SvcServer, BusyUnderSaturation) {
  svc::ServerConfig config = base_config(fresh_unix("svc-busy"));
  config.max_inflight = 1;
  config.test_eval_delay_ms = 700;
  config.busy_retry_ms = 123;
  TestServer ts(std::move(config));
  svc::Client client;
  client.connect(ts.server.config().address);

  // Two pipelined requests on one connection: the first takes the only
  // in-flight slot (and holds it for test_eval_delay_ms), so the second is
  // rejected Busy immediately — explicit backpressure, not buffering.
  client.send_request(tiny_request(1, 3));
  client.send_request(tiny_request(2, 4));

  const svc::Reply first = client.read_reply(30'000);
  ASSERT_EQ(first.kind, svc::Reply::Kind::Busy);
  EXPECT_EQ(first.busy.request_id, 2u);
  EXPECT_EQ(first.busy.retry_after_ms, 123u);

  const svc::Reply second = client.read_reply(30'000);
  ASSERT_EQ(second.kind, svc::Reply::Kind::Ok);
  EXPECT_EQ(second.response.request_id, 1u);

  // With the slot free again, the retry path succeeds.
  const svc::Reply retried =
      client.evaluate_with_retry(tiny_request(3, 4), 8, 30'000);
  EXPECT_EQ(retried.kind, svc::Reply::Kind::Ok);

  ts.stop();
  EXPECT_GE(ts.server.stats().busy_rejections, 1u);
}

TEST(SvcServer, GracefulDrainFinishesInflightAndRefusesNewWork) {
  svc::ServerConfig config = base_config(fresh_unix("svc-drain"));
  config.test_eval_delay_ms = 600;
  TestServer ts(std::move(config));
  const std::string socket_path = ts.server.config().address.path;
  svc::Client client;
  client.connect(ts.server.config().address);

  client.send_request(tiny_request(1, 6));
  // Let the request get admitted before the drain begins.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ts.server.begin_drain();
  client.send_request(tiny_request(2, 7));

  // The post-drain request is refused with Error(draining); the admitted
  // one still completes and flushes before the connection closes.
  bool saw_ok = false, saw_draining = false;
  for (int i = 0; i < 2; ++i) {
    const svc::Reply reply = client.read_reply(30'000);
    if (reply.kind == svc::Reply::Kind::Ok) {
      EXPECT_EQ(reply.response.request_id, 1u);
      saw_ok = true;
    } else {
      ASSERT_EQ(reply.kind, svc::Reply::Kind::Error);
      EXPECT_EQ(reply.error.request_id, 2u);
      EXPECT_EQ(reply.error.code, svc::ErrorCode::Draining);
      saw_draining = true;
    }
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_draining);

  // run() returns (the TestServer join would hang otherwise), the stats
  // show exactly one served evaluation, and the socket file is gone.
  ts.stop();
  const svc::ServerStats stats = ts.server.stats();
  EXPECT_EQ(stats.responses_ok, 1u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

TEST(SvcServer, IdleConnectionsAreClosed) {
  svc::ServerConfig config = base_config(fresh_unix("svc-idle"));
  config.idle_timeout_ms = 200;
  TestServer ts(std::move(config));
  svc::Client client;
  client.connect(ts.server.config().address);
  // Say nothing: the server hangs up after the idle timeout.
  svc::Fd probe = svc::connect_to(ts.server.config().address);
  ASSERT_TRUE(svc::write_all(
      probe.get(), svc::encode_frame(svc::MsgType::Hello,
                                     svc::encode_hello())));
  svc::Frame frame;
  ASSERT_EQ(svc::read_frame(probe.get(), frame, 10'000), svc::ReadStatus::Ok);
  EXPECT_EQ(frame.type, svc::MsgType::HelloOk);
  EXPECT_EQ(svc::read_frame(probe.get(), frame, 10'000),
            svc::ReadStatus::Closed);
}

TEST(SvcServer, ConnectionThreadsAreReapedNotAccumulated) {
  // Regression: the accept loop must reap finished connection-handler
  // threads as it goes (sched::JobService's announce-and-reap hygiene),
  // not accumulate one joinable thread per connection until drain.
  TestServer ts(base_config(fresh_unix("svc-reap")));
  constexpr int kConnections = 40;
  for (int i = 0; i < kConnections; ++i) {
    svc::Client client;
    client.connect(ts.server.config().address);
    EXPECT_TRUE(client.ping(static_cast<std::uint64_t>(i) + 1, 10'000));
    client.close();
  }
  // Every connection above is closed; the tracked-thread count must stay
  // far below the total served (finished handlers linger only until the
  // next accept-loop tick).
  EXPECT_LE(ts.server.connection_thread_count(),
            static_cast<std::size_t>(8));
  ts.stop();
  EXPECT_EQ(ts.server.stats().connections,
            static_cast<std::uint64_t>(kConnections));
  EXPECT_EQ(ts.server.connection_thread_count(), 0u);
}

TEST(SvcServer, ConcurrentClientsDeduplicateIdenticalKeys) {
  svc::ServerConfig config = base_config(fresh_unix("svc-dedup"));
  config.threads = 4;
  TestServer ts(std::move(config));

  // Four connections hammering the same evaluation concurrently: the shard
  // in-progress set must collapse them to one compute, and every reply must
  // carry identical bytes.
  std::vector<std::string> payloads(4);
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      svc::Client client;
      client.connect(ts.server.config().address);
      const svc::Reply reply = client.evaluate(
          tiny_request(static_cast<std::uint64_t>(w + 1), 8), 60'000);
      if (reply.kind == svc::Reply::Kind::Ok) {
        payloads[static_cast<std::size_t>(w)] = reply.response.record_payload;
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (const auto& payload : payloads) {
    ASSERT_FALSE(payload.empty());
    EXPECT_EQ(payload, payloads[0]);
  }

  ts.stop();
  const svc::ServerStats stats = ts.server.stats();
  EXPECT_EQ(stats.responses_ok, 4u);
  // Exactly one physical compute; the rest came from dedup + memory cache.
  EXPECT_EQ(stats.served_computed +
                stats.served_memory + stats.served_store,
            4u);
  EXPECT_EQ(stats.served_computed, 1u);
}

TEST(SvcServer, TcpLoopbackRoundTrip) {
  // Port 0 is not supported by Address (explicit ports only), so probe a
  // high port and skip gracefully if it is taken.
  svc::ServerConfig config = base_config(
      svc::Address::parse("tcp:127.0.0.1:38471"));
  try {
    TestServer ts(std::move(config));
    svc::Client client;
    client.connect(ts.server.config().address);
    EXPECT_TRUE(client.ping(77, 10'000));
    const svc::Reply reply = client.evaluate(tiny_request(1, 2), 30'000);
    ASSERT_EQ(reply.kind, svc::Reply::Kind::Ok);
    EXPECT_EQ(reply.response.record_payload,
              evaluate_in_process(tiny_request(1, 2)));
  } catch (const std::runtime_error& error) {
    GTEST_SKIP() << "tcp endpoint unavailable: " << error.what();
  }
}

// ---- protocol minor revision 1: stats, trace context, timings -------------

TEST(SvcProtocol, HelloOkMinorEchoStaysCompatible) {
  // A 1.0-shaped HelloOk (no trailing minor) decodes with minor 0 — and a
  // 1.1 HelloOk round-trips the minor. Anything beyond is rejected.
  const auto legacy = svc::decode_hello_ok(svc::encode_hello_ok(1));
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->version, 1u);
  EXPECT_EQ(legacy->minor, 0u);
  const auto modern = svc::decode_hello_ok(svc::encode_hello_ok(1, 4));
  ASSERT_TRUE(modern.has_value());
  EXPECT_EQ(modern->minor, 4u);
  EXPECT_FALSE(svc::decode_hello_ok(svc::encode_hello_ok(1, 4) + "x"));
}

TEST(SvcProtocol, StatsCodecRoundTrip) {
  const std::string request_payload =
      svc::encode_stats_request({77, /*include_flight=*/true});
  const auto request = svc::decode_stats_request(request_payload);
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->request_id, 77u);
  EXPECT_TRUE(request->include_flight);
  EXPECT_FALSE(svc::decode_stats_request(request_payload + "x").has_value());
  EXPECT_FALSE(svc::decode_stats_request("").has_value());

  svc::StatsResponse response;
  response.request_id = 77;
  response.stats_json = R"({"uptime_seconds":1.5})";
  const std::string response_payload = svc::encode_stats_response(response);
  const auto decoded = svc::decode_stats_response(response_payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->request_id, 77u);
  EXPECT_EQ(decoded->stats_json, response.stats_json);
  EXPECT_FALSE(svc::decode_stats_response(response_payload + "x").has_value());
}

TEST(SvcProtocol, EvalRequestTraceTailIsAdditiveAndValidated) {
  svc::EvalRequest request = tiny_request(5, 7);
  const std::string legacy = svc::encode_eval_request(request);
  request.trace = svc::TraceContext{0xABCu, 0xDEFu};
  const std::string traced = svc::encode_eval_request(request);
  // The trace tail is strictly appended: untraced requests are
  // byte-identical to the 1.0 encoding.
  EXPECT_EQ(traced.size(), legacy.size() + 17);
  EXPECT_EQ(traced.substr(0, legacy.size()), legacy);

  const auto decoded = svc::decode_eval_request(traced);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->trace.has_value());
  EXPECT_EQ(decoded->trace->trace_id, 0xABCu);
  EXPECT_EQ(decoded->trace->parent_span_id, 0xDEFu);
  const auto plain = svc::decode_eval_request(legacy);
  ASSERT_TRUE(plain.has_value());
  EXPECT_FALSE(plain->trace.has_value());

  std::string bad_flag = traced;
  bad_flag[legacy.size()] = 2;
  EXPECT_FALSE(svc::decode_eval_request(bad_flag).has_value());
  EXPECT_FALSE(
      svc::decode_eval_request(traced.substr(0, traced.size() - 1))
          .has_value());
}

TEST(SvcProtocol, EvalResponseTimingsTrailerIsAdditiveAndValidated) {
  svc::EvalResponse response;
  response.request_id = 9;
  response.served_from = svc::ServedFrom::Memory;
  response.record_payload = "record-bytes";
  const std::string legacy = svc::encode_eval_response(response);
  response.timings = svc::ServerTimings{1, 2, 3, 4, 5, 6};
  const std::string traced = svc::encode_eval_response(response);
  EXPECT_EQ(traced.size(), legacy.size() + 49);
  EXPECT_EQ(traced.substr(0, legacy.size()), legacy);

  const auto decoded = svc::decode_eval_response(traced);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->timings.has_value());
  EXPECT_EQ(*decoded->timings, (svc::ServerTimings{1, 2, 3, 4, 5, 6}));
  const auto plain = svc::decode_eval_response(legacy);
  ASSERT_TRUE(plain.has_value());
  EXPECT_FALSE(plain->timings.has_value());
  EXPECT_FALSE(
      svc::decode_eval_response(traced.substr(0, traced.size() - 1))
          .has_value());
  EXPECT_FALSE(svc::decode_eval_response(traced + "x").has_value());
}

// ---- live stats, tracing and the flight recorder --------------------------

TEST(SvcServer, StatsOverProtocolReportsCountsQuantilesAndFlight) {
  obs::set_enabled(true);
  TestServer ts(base_config(fresh_unix("svc-stats")));
  svc::Client client;
  client.connect(ts.server.config().address);
  EXPECT_EQ(client.server_minor(), svc::kProtocolMinorVersion);

  ASSERT_EQ(client.evaluate(tiny_request(1, 3), 30'000).kind,
            svc::Reply::Kind::Ok);
  ASSERT_EQ(client.evaluate(tiny_request(2, 4), 30'000).kind,
            svc::Reply::Kind::Ok);
  ASSERT_EQ(client.evaluate(tiny_request(3, 3), 30'000).kind,
            svc::Reply::Kind::Ok);

  const obs::Json root =
      obs::Json::parse(client.stats_json(/*include_flight=*/true, 30'000));
  EXPECT_EQ(root.at("protocol_minor").as_number(),
            static_cast<double>(svc::kProtocolMinorVersion));
  EXPECT_GE(root.at("uptime_seconds").as_number(), 0.0);
  const obs::Json& counters = root.at("metrics").at("counters");
  EXPECT_GE(counters.at("svc.requests").as_number(), 3.0);
  EXPECT_GE(counters.at("svc.stats_requests").as_number(), 1.0);
  const obs::Json& gauges = root.at("metrics").at("gauges");
  EXPECT_GE(gauges.at("svc.connections").as_number(), 1.0);

  const obs::Json& latency = root.at("quantiles").at("svc.request_ns");
  EXPECT_GE(latency.at("count").as_number(), 3.0);
  EXPECT_GT(latency.at("p50").as_number(), 0.0);
  EXPECT_GE(latency.at("p99").as_number(), latency.at("p50").as_number());

  const obs::Json& flight = root.at("flight");
  ASSERT_EQ(flight.items().size(), 3u);
  EXPECT_EQ(root.at("flight_total").as_number(), 3.0);
  // Oldest-first: request ids in completion order for a serial client.
  EXPECT_EQ(flight.items().front().at("request_id").as_number(), 1.0);
  EXPECT_EQ(flight.items().back().at("request_id").as_number(), 3.0);
  for (const obs::Json& record : flight.items()) {
    EXPECT_GT(record.at("total_ns").as_number(), 0.0);
    EXPECT_GT(record.at("bytes_in").as_number(), 0.0);
    EXPECT_GT(record.at("bytes_out").as_number(), 0.0);
    EXPECT_EQ(record.at("peer").as_string(), "unix");
    EXPECT_TRUE(record.at("ok").as_bool());
  }
  // The repeat of topology 3 was served from memory.
  EXPECT_EQ(flight.items().back().at("served_from").as_string(), "memory");
}

TEST(SvcServer, TraceContextMergesClientAndServerSpans) {
  obs::set_enabled(true);
  obs::start_trace();
  const std::string trace_path = temp_path("intooa-svc-trace-test.json");
  std::filesystem::remove(trace_path);
  {
    TestServer ts(base_config(fresh_unix("svc-trace")));
    svc::Client client;
    client.connect(ts.server.config().address);
    const svc::Reply reply = client.evaluate(tiny_request(1, 6), 30'000);
    ASSERT_EQ(reply.kind, svc::Reply::Kind::Ok);
    // Tracing was on and the server speaks minor >= 1, so the reply must
    // carry the stage-timing trailer with a real span id.
    ASSERT_TRUE(reply.response.timings.has_value());
    EXPECT_NE(reply.response.timings->trace_id, 0u);
    EXPECT_NE(reply.response.timings->server_span_id, 0u);
    EXPECT_GT(reply.response.timings->eval_ns, 0u);
  }
  ASSERT_TRUE(obs::write_trace(trace_path));
  const obs::Json trace = obs::Json::parse(slurp(trace_path));
  std::filesystem::remove(trace_path);

  bool saw_client_span = false, saw_remote_evaluate = false;
  bool saw_flow_start = false, saw_flow_end = false;
  for (const obs::Json& event : trace.at("traceEvents").items()) {
    const std::string& ph = event.at("ph").as_string();
    const std::string& name = event.at("name").as_string();
    if (ph == "X" && name == "svc.client.request") {
      saw_client_span = true;
      EXPECT_EQ(event.at("pid").as_number(), obs::kLocalPid);
    }
    if (ph == "X" && name == "svc.server.evaluate") {
      saw_remote_evaluate = true;
      EXPECT_EQ(event.at("pid").as_number(), obs::kRemotePid);
    }
    if (ph == "s") saw_flow_start = true;
    if (ph == "f") {
      saw_flow_end = true;
      EXPECT_EQ(event.at("bp").as_string(), "e");
    }
  }
  EXPECT_TRUE(saw_client_span);
  EXPECT_TRUE(saw_remote_evaluate);
  EXPECT_TRUE(saw_flow_start);
  EXPECT_TRUE(saw_flow_end);
}

TEST(SvcServer, WakeByteTwoDumpsFlightWithoutDraining) {
  TestServer ts(base_config(fresh_unix("svc-usr1")));
  svc::Client client;
  client.connect(ts.server.config().address);
  ASSERT_EQ(client.evaluate(tiny_request(1, 2), 30'000).kind,
            svc::Reply::Kind::Ok);
  // Byte 2 on the self-pipe (the SIGUSR1 spelling) dumps the flight
  // recorder but must not start a drain.
  const char byte = 2;
  ASSERT_EQ(::write(ts.server.wake_fd(), &byte, 1), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(ts.server.draining());
  EXPECT_TRUE(client.ping(42, 10'000));
}

TEST(SvcServer, AccessLogAndStatsFileAreWritten) {
  const std::string access_path = temp_path("intooa-svc-access-test.log");
  const std::string stats_path = temp_path("intooa-svc-stats-test.prom");
  std::filesystem::remove(access_path);
  std::filesystem::remove(stats_path);
  {
    svc::ServerConfig config = base_config(fresh_unix("svc-files"));
    config.access_log = access_path;
    config.stats_file = stats_path;
    config.stats_interval_s = 0.05;
    TestServer ts(std::move(config));
    svc::Client client;
    client.connect(ts.server.config().address);
    ASSERT_EQ(client.evaluate(tiny_request(1, 8), 30'000).kind,
              svc::Reply::Kind::Ok);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  const std::string access = slurp(access_path);
  EXPECT_NE(access.find("id=1 "), std::string::npos);
  EXPECT_NE(access.find("key="), std::string::npos);
  EXPECT_NE(access.find("served=computed"), std::string::npos);
  // The drain wrote a final snapshot even if the timer never fired.
  const std::string prom = slurp(stats_path);
  EXPECT_NE(prom.find("# TYPE intooa_svc_requests_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("intooa_svc_request_ns_count"), std::string::npos);
  std::filesystem::remove(access_path);
  std::filesystem::remove(stats_path);
}

TEST(Determinism, ServedResponsesIdenticalWithTelemetryOnAndOff) {
  const svc::EvalRequest request = tiny_request(1, 11, "S-2");
  const std::string baseline = evaluate_in_process(request);

  // Fully instrumented: metrics on, span collection on (so the client
  // attaches trace context and the server returns a timings trailer).
  obs::set_enabled(true);
  obs::start_trace();
  std::string instrumented;
  {
    TestServer ts(base_config(fresh_unix("svc-det-on")));
    svc::Client client;
    client.connect(ts.server.config().address);
    const svc::Reply reply = client.evaluate(request, 30'000);
    ASSERT_EQ(reply.kind, svc::Reply::Kind::Ok);
    EXPECT_TRUE(reply.response.timings.has_value());
    instrumented = reply.response.record_payload;
  }
  obs::stop_trace();

  // Telemetry fully off: the request carries no trace context and the
  // reply no trailer — and the record bytes are identical.
  obs::set_enabled(false);
  std::string dark;
  {
    TestServer ts(base_config(fresh_unix("svc-det-off")));
    svc::Client client;
    client.connect(ts.server.config().address);
    const svc::Reply reply = client.evaluate(request, 30'000);
    EXPECT_EQ(reply.kind, svc::Reply::Kind::Ok);
    EXPECT_FALSE(reply.response.timings.has_value());
    dark = reply.response.record_payload;
  }
  obs::set_enabled(true);

  EXPECT_EQ(instrumented, baseline);
  EXPECT_EQ(dark, baseline);
}

// ---- socket deadline + frame-type validation ------------------------------

// A signal storm delivering EINTR every couple of milliseconds must not
// extend read_frame's idle timeout: the deadline is computed once and each
// re-poll waits only the remaining time. The pre-fix behavior re-armed the
// full timeout on every EINTR, so the read would only time out after the
// storm subsided.
TEST(SvcSocket, EintrStormDoesNotExtendReadDeadline) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  struct sigaction action {};
  struct sigaction old_action {};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: poll must observe EINTR
  ASSERT_EQ(::sigaction(SIGUSR2, &action, &old_action), 0);

  std::atomic<bool> storming{true};
  const pthread_t reader = ::pthread_self();
  // Bounded storm (1.5 s max) so even a regression terminates: the buggy
  // deadline would then show up as elapsed > storm duration.
  std::thread storm([&] {
    const auto storm_end =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(1500);
    while (storming.load() && std::chrono::steady_clock::now() < storm_end) {
      ::pthread_kill(reader, SIGUSR2);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  svc::Frame frame;
  const auto start = std::chrono::steady_clock::now();
  const svc::ReadStatus status = svc::read_frame(sv[0], frame, 300);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  storming.store(false);
  storm.join();
  ::sigaction(SIGUSR2, &old_action, nullptr);
  ::close(sv[0]);
  ::close(sv[1]);

  EXPECT_EQ(status, svc::ReadStatus::Timeout);
  EXPECT_GE(elapsed_ms, 290);
  EXPECT_LT(elapsed_ms, 1200);  // well inside the storm window
}

// A frame whose header type byte names no MsgType is rejected up front
// (BadType), never cast into the enum.
TEST(SvcSocket, UnknownFrameTypeIsRejectedBeforeDecode) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::string bogus(svc::kFrameHeaderSize, '\0');  // payload_len 0 ...
  bogus[4] = static_cast<char>(0xEE);              // ... unknown type
  ASSERT_TRUE(svc::write_all(sv[1], bogus));
  svc::Frame frame;
  EXPECT_EQ(svc::read_frame(sv[0], frame, 2000), svc::ReadStatus::BadType);
  // Type 0 (below the enum range) is equally rejected.
  bogus[4] = 0;
  ASSERT_TRUE(svc::write_all(sv[1], bogus));
  EXPECT_EQ(svc::read_frame(sv[0], frame, 2000), svc::ReadStatus::BadType);
  ::close(sv[0]);
  ::close(sv[1]);
}

// Server side of the same defect: an unknown frame type after the
// handshake earns an Error(bad-frame) reply, then the connection closes.
TEST(SvcServer, UnknownFrameTypeGetsBadFrameError) {
  TestServer ts(base_config(fresh_unix("svc-badtype")));
  svc::Fd fd = svc::connect_to(ts.server.config().address);
  ASSERT_TRUE(svc::write_all(
      fd.get(), svc::encode_frame(svc::MsgType::Hello, svc::encode_hello())));
  svc::Frame frame;
  ASSERT_EQ(svc::read_frame(fd.get(), frame, 5000), svc::ReadStatus::Ok);
  ASSERT_EQ(frame.type, svc::MsgType::HelloOk);

  std::string bogus(svc::kFrameHeaderSize, '\0');
  bogus[4] = 0x7F;
  ASSERT_TRUE(svc::write_all(fd.get(), bogus));
  ASSERT_EQ(svc::read_frame(fd.get(), frame, 5000), svc::ReadStatus::Ok);
  ASSERT_EQ(frame.type, svc::MsgType::Error);
  const auto error = svc::decode_error(frame.payload);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, svc::ErrorCode::BadFrame);
  EXPECT_EQ(svc::read_frame(fd.get(), frame, 5000), svc::ReadStatus::Closed);
}

// ---- Busy retry backoff ---------------------------------------------------

// The Busy backoff clamps the server hint in uint32 space: a hint above
// INT_MAX lands at the 2 s ceiling (the pre-fix int cast overflowed
// negative and hit the 10 ms floor instead), jittered ±25%.
TEST(SvcClient, RetryBackoffClampsHugeHintsToCeiling) {
  for (std::uint64_t id = 0; id < 64; ++id) {
    const std::uint32_t backoff =
        svc::retry_backoff_ms(UINT32_MAX, id);
    EXPECT_GE(backoff, 1500u) << "id " << id;
    EXPECT_LE(backoff, 2500u) << "id " << id;
  }
  // INT_MAX + 1 is the exact boundary the int cast used to overflow at.
  const std::uint32_t boundary = svc::retry_backoff_ms(
      static_cast<std::uint32_t>(INT_MAX) + 1u, 7);
  EXPECT_GE(boundary, 1500u);
  EXPECT_LE(boundary, 2500u);
}

TEST(SvcClient, RetryBackoffIsDeterministicAndJittered) {
  // Pure function of (hint, id, attempt)...
  EXPECT_EQ(svc::retry_backoff_ms(100, 42, 1), svc::retry_backoff_ms(100, 42, 1));
  // ...honors the floor...
  for (std::uint64_t id = 0; id < 64; ++id) {
    const std::uint32_t backoff = svc::retry_backoff_ms(0, id);
    EXPECT_GE(backoff, 7u);
    EXPECT_LE(backoff, 13u);
  }
  // ...and actually spreads: a fleet of ids must not back off in lockstep.
  std::vector<std::uint32_t> seen;
  for (std::uint64_t id = 0; id < 64; ++id) {
    seen.push_back(svc::retry_backoff_ms(1000, id));
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_GT(std::unique(seen.begin(), seen.end()) - seen.begin(), 8);
}

// ---- client pool ----------------------------------------------------------

TEST(SvcClientPool, PipelinedRequestsAreByteIdentical) {
  TestServer ts(base_config(fresh_unix("pool-pipe")));
  svc::ClientPoolConfig config;
  config.max_inflight = 4;
  svc::ClientPool pool({ts.server.config().address}, config);

  constexpr int kRequests = 8;
  std::vector<std::optional<svc::EvalResponse>> responses(kRequests);
  std::vector<std::thread> callers;
  for (int i = 0; i < kRequests; ++i) {
    callers.emplace_back([&pool, &responses, i] {
      responses[static_cast<std::size_t>(i)] = pool.evaluate(
          tiny_request(0, static_cast<std::uint64_t>(100 + i)),
          static_cast<std::uint64_t>(i));
    });
  }
  for (auto& t : callers) t.join();

  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(responses[static_cast<std::size_t>(i)].has_value()) << i;
    EXPECT_EQ(responses[static_cast<std::size_t>(i)]->record_payload,
              evaluate_in_process(
                  tiny_request(0, static_cast<std::uint64_t>(100 + i))))
        << i;
  }
  const auto stats = pool.stats();
  EXPECT_EQ(stats.requests(), static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.replays(), 0u);
}

TEST(SvcClientPool, ShardsAcrossEndpointsByDigest) {
  TestServer a(base_config(fresh_unix("pool-shard-a")));
  TestServer b(base_config(fresh_unix("pool-shard-b")));
  svc::ClientPool pool(
      {a.server.config().address, b.server.config().address});
  ASSERT_EQ(pool.endpoint_count(), 2u);
  EXPECT_EQ(pool.shard_of(4), 0u);
  EXPECT_EQ(pool.shard_of(7), 1u);

  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    const auto request = tiny_request(0, static_cast<std::uint64_t>(120 + i));
    const auto response =
        pool.evaluate(request, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(response.has_value()) << i;
    EXPECT_EQ(response->record_payload, evaluate_in_process(request)) << i;
  }
  const auto stats = pool.stats();
  ASSERT_EQ(stats.endpoints.size(), 2u);
  EXPECT_EQ(stats.endpoints[0].requests, 3u);  // digests 0, 2, 4
  EXPECT_EQ(stats.endpoints[1].requests, 3u);  // digests 1, 3, 5
}

TEST(SvcClientPool, AbsorbsBusyBackpressure) {
  svc::ServerConfig server_config = base_config(fresh_unix("pool-busy"));
  server_config.max_inflight = 1;  // everything beyond one eval gets Busy
  server_config.test_eval_delay_ms = 30;
  server_config.busy_retry_ms = 10;
  TestServer ts(std::move(server_config));
  svc::ClientPoolConfig config;
  config.max_inflight = 4;
  svc::ClientPool pool({ts.server.config().address}, config);

  constexpr int kRequests = 6;
  std::vector<std::optional<svc::EvalResponse>> responses(kRequests);
  std::vector<std::thread> callers;
  for (int i = 0; i < kRequests; ++i) {
    callers.emplace_back([&pool, &responses, i] {
      responses[static_cast<std::size_t>(i)] = pool.evaluate(
          tiny_request(0, static_cast<std::uint64_t>(140 + i)), 0);
    });
  }
  for (auto& t : callers) t.join();

  std::uint64_t busy = 0;
  for (const auto& ep : pool.stats().endpoints) busy += ep.busy;
  EXPECT_GE(busy, 1u);  // the saturated server must have pushed back
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(responses[static_cast<std::size_t>(i)].has_value()) << i;
    EXPECT_EQ(responses[static_cast<std::size_t>(i)]->record_payload,
              evaluate_in_process(
                  tiny_request(0, static_cast<std::uint64_t>(140 + i))))
        << i;
  }
}

// Kill the server mid-flight, restart it on the same address: the pool
// reconnects and replays what was outstanding, and every caller still gets
// the byte-exact result.
TEST(SvcClientPool, ReconnectsAndReplaysAcrossServerRestart) {
  const svc::Address address = fresh_unix("pool-restart");
  svc::ClientPoolConfig config;
  config.max_inflight = 4;
  config.max_connect_attempts = 200;  // keep probing through the restart
  svc::ClientPool pool({address}, config);

  svc::ServerConfig slow = base_config(address);
  slow.test_eval_delay_ms = 200;
  auto first = std::make_unique<TestServer>(std::move(slow));
  const auto warmup = pool.evaluate(tiny_request(0, 160), 0);
  ASSERT_TRUE(warmup.has_value());

  // r1 is admitted and evaluating (200 ms) when the drain begins; r2
  // arrives after it and is refused with Error(draining). Both replay.
  std::optional<svc::EvalResponse> r1, r2;
  std::thread t1([&] { r1 = pool.evaluate(tiny_request(0, 161), 0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  first->server.begin_drain();
  std::thread t2([&] { r2 = pool.evaluate(tiny_request(0, 162), 0); });
  first->stop();
  first.reset();

  TestServer second(base_config(address));
  t1.join();
  t2.join();
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r1->record_payload, evaluate_in_process(tiny_request(0, 161)));
  EXPECT_EQ(r2->record_payload, evaluate_in_process(tiny_request(0, 162)));

  const auto stats = pool.stats();
  EXPECT_GE(stats.reconnects(), 1u);
  EXPECT_GE(stats.replays(), 1u);
  EXPECT_FALSE(stats.endpoints[0].down);
}

TEST(SvcClientPool, UnreachableEndpointFailsSoftAndFast) {
  const svc::Address address = fresh_unix("pool-dead");  // nobody listens
  svc::ClientPoolConfig config;
  config.max_connect_attempts = 2;
  config.reconnect_base_ms = 10;
  svc::ClientPool pool({address}, config);

  EXPECT_FALSE(pool.evaluate(tiny_request(0, 170), 0).has_value());
  EXPECT_TRUE(pool.stats().endpoints[0].down);
  // Once down, callers fail fast instead of queueing behind the probe.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(pool.evaluate(tiny_request(0, 171), 0).has_value());
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_LT(elapsed_ms, 500);
}

// ---- evaluator remote tier ------------------------------------------------

TEST(SvcRemoteBackend, EvaluatorRemoteTierMatchesLocalByteForByte) {
  TestServer ts(base_config(fresh_unix("remote-tier")));
  const circuit::Spec& spec = circuit::spec_by_name("S-1");
  core::TopologyEvaluator remote_eval(sizing::EvalContext(spec),
                                      tiny_sizing());
  core::TopologyEvaluator local_eval(sizing::EvalContext(spec), tiny_sizing());
  auto pool = std::make_shared<svc::ClientPool>(
      std::vector<svc::Address>{ts.server.config().address});
  svc::attach(remote_eval, pool);

  const std::size_t indices[] = {180, 181, 182};
  for (const std::size_t index : indices) {
    const circuit::Topology topology = circuit::Topology::from_index(index);
    remote_eval.evaluate(topology);
    local_eval.evaluate(topology);
  }
  EXPECT_EQ(remote_eval.remote_hits(), 3u);
  EXPECT_EQ(remote_eval.total_simulations(), local_eval.total_simulations());
  ASSERT_EQ(remote_eval.history().size(), local_eval.history().size());
  for (std::size_t i = 0; i < remote_eval.history().size(); ++i) {
    const core::EvalRecord& served = remote_eval.history()[i];
    const core::EvalRecord& sized = local_eval.history()[i];
    EXPECT_EQ(store::encode_record(
                  remote_eval.key_context().key_for(served.topology), served),
              store::encode_record(
                  local_eval.key_context().key_for(sized.topology), sized))
        << i;
  }
}

TEST(SvcRemoteBackend, FallsBackToLocalSizerWhenNoEndpointReachable) {
  const svc::Address address = fresh_unix("remote-dead");
  svc::ClientPoolConfig config;
  config.max_connect_attempts = 2;
  config.reconnect_base_ms = 10;
  const circuit::Spec& spec = circuit::spec_by_name("S-1");
  core::TopologyEvaluator fallback_eval(sizing::EvalContext(spec),
                                        tiny_sizing());
  core::TopologyEvaluator local_eval(sizing::EvalContext(spec), tiny_sizing());
  svc::attach(fallback_eval,
              std::make_shared<svc::ClientPool>(
                  std::vector<svc::Address>{address}, config));

  const circuit::Topology topology = circuit::Topology::from_index(190);
  fallback_eval.evaluate(topology);
  local_eval.evaluate(topology);
  EXPECT_EQ(fallback_eval.remote_hits(), 0u);
  ASSERT_EQ(fallback_eval.history().size(), 1u);
  EXPECT_EQ(
      store::encode_record(fallback_eval.key_context().key_for(topology),
                           fallback_eval.history()[0]),
      store::encode_record(local_eval.key_context().key_for(topology),
                           local_eval.history()[0]));
}

}  // namespace
