// Tests for intooa::gateway — the dependency-free HTTP/1.1 layer. The
// parser torture section drives HttpParser as a pure byte machine (torn
// byte-by-byte delivery, pipelined requests in one buffer, malformed
// request lines and headers, oversized heads and bodies, chunked-coding
// rejection); the routing section exercises Gateway::route() without
// sockets (error→HTTP-status→JSON round trip for every taxonomy code,
// 404/405 shapes); and the end-to-end section runs a real Gateway over a
// TCP socket against a live intooa-served — including the slowloris 408
// grace bound, keep-alive pipelining on the wire, and the drain contract
// (503 + Retry-After on new work).

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/error.hpp"
#include "api/json.hpp"
#include "circuit/spec.hpp"
#include "gateway/gateway.hpp"
#include "gateway/http.hpp"
#include "obs/json.hpp"
#include "svc/server.hpp"
#include "svc/socket.hpp"

namespace {

using namespace intooa;
using gateway::HttpParser;

svc::Address fresh_unix(const std::string& name) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("intooa-" + name + "-" + std::to_string(::getpid()) + ".sock"))
          .string();
  std::filesystem::remove(path);
  return svc::Address::parse("unix:" + path);
}

// ---- parser: the happy path -------------------------------------------------

TEST(HttpParser, ParsesASimpleGet) {
  HttpParser parser;
  ASSERT_EQ(parser.feed("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"),
            HttpParser::Status::Ready);
  const gateway::HttpRequest request = parser.take_request();
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.path, "/healthz");
  EXPECT_EQ(request.version_minor, 1);
  ASSERT_NE(request.header("host"), nullptr);
  EXPECT_EQ(*request.header("host"), "x");
  EXPECT_TRUE(request.keep_alive);
  EXPECT_TRUE(request.body.empty());
  EXPECT_EQ(parser.status(), HttpParser::Status::NeedMore);
  EXPECT_FALSE(parser.mid_request());
}

TEST(HttpParser, ParsesBodyByContentLength) {
  HttpParser parser;
  ASSERT_EQ(parser.feed("POST /v1/jobs HTTP/1.1\r\nContent-Length: 11\r\n"
                        "Content-Type: application/json\r\n\r\n{\"a\": true}"),
            HttpParser::Status::Ready);
  const gateway::HttpRequest request = parser.take_request();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.body, "{\"a\": true}");
}

TEST(HttpParser, QueryStringSplitsAndDecodes) {
  HttpParser parser;
  ASSERT_EQ(parser.feed("GET /v1/jobs?tenant=a%20b&watch=1&flag HTTP/1.1\r\n"
                        "\r\n"),
            HttpParser::Status::Ready);
  const gateway::HttpRequest request = parser.take_request();
  EXPECT_EQ(request.path, "/v1/jobs");
  EXPECT_EQ(request.query, "tenant=a%20b&watch=1&flag");
  const auto params = request.query_params();
  EXPECT_EQ(params.at("tenant"), "a b");
  EXPECT_EQ(params.at("watch"), "1");
  EXPECT_EQ(params.at("flag"), "");
}

TEST(HttpParser, HeaderNamesLowercasedValuesTrimmed) {
  HttpParser parser;
  ASSERT_EQ(parser.feed("GET / HTTP/1.1\r\nX-ThInG:   padded \t\r\n\r\n"),
            HttpParser::Status::Ready);
  const gateway::HttpRequest request = parser.take_request();
  ASSERT_NE(request.header("x-thing"), nullptr);
  EXPECT_EQ(*request.header("x-thing"), "padded");
}

TEST(HttpParser, BareLfLineEndingsAreTolerated) {
  HttpParser parser;
  ASSERT_EQ(parser.feed("GET /x HTTP/1.1\nHost: y\n\n"),
            HttpParser::Status::Ready);
  EXPECT_EQ(parser.take_request().path, "/x");
}

TEST(HttpParser, Http10DefaultsToClose) {
  HttpParser parser;
  ASSERT_EQ(parser.feed("GET / HTTP/1.0\r\n\r\n"), HttpParser::Status::Ready);
  EXPECT_FALSE(parser.take_request().keep_alive);
  ASSERT_EQ(parser.feed("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"),
            HttpParser::Status::Ready);
  EXPECT_TRUE(parser.take_request().keep_alive);
  ASSERT_EQ(parser.feed("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"),
            HttpParser::Status::Ready);
  EXPECT_FALSE(parser.take_request().keep_alive);
}

// ---- parser torture ---------------------------------------------------------

TEST(HttpParserTorture, TornDeliveryByteByByte) {
  const std::string wire =
      "POST /v1/evaluations HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
  HttpParser parser;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    ASSERT_EQ(parser.feed(std::string_view(&wire[i], 1)),
              HttpParser::Status::NeedMore)
        << "byte " << i;
    EXPECT_TRUE(parser.mid_request());
  }
  ASSERT_EQ(parser.feed(std::string_view(&wire.back(), 1)),
            HttpParser::Status::Ready);
  const gateway::HttpRequest request = parser.take_request();
  EXPECT_EQ(request.body, "hello");
  EXPECT_FALSE(parser.mid_request());
}

TEST(HttpParserTorture, PipelinedRequestsInOneFeed) {
  HttpParser parser;
  ASSERT_EQ(parser.feed("GET /a HTTP/1.1\r\n\r\n"
                        "POST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"
                        "GET /c HTTP/1.1\r\n\r\n"),
            HttpParser::Status::Ready);
  EXPECT_EQ(parser.take_request().path, "/a");
  ASSERT_EQ(parser.status(), HttpParser::Status::Ready);
  const gateway::HttpRequest second = parser.take_request();
  EXPECT_EQ(second.path, "/b");
  EXPECT_EQ(second.body, "hi");
  ASSERT_EQ(parser.status(), HttpParser::Status::Ready);
  EXPECT_EQ(parser.take_request().path, "/c");
  EXPECT_EQ(parser.status(), HttpParser::Status::NeedMore);
}

TEST(HttpParserTorture, MalformedRequestLinesAre400) {
  for (const char* wire :
       {"GARBAGE\r\n\r\n", "GET /\r\n\r\n", "GET  / HTTP/1.1\r\n\r\n",
        "GET / HTTP/1.1 extra\r\n\r\n", "G=T / HTTP/1.1\r\n\r\n"}) {
    HttpParser parser;
    ASSERT_EQ(parser.feed(wire), HttpParser::Status::Error) << wire;
    EXPECT_EQ(parser.error_status(), 400) << wire;
    // Poisoned: further bytes never resurrect it.
    EXPECT_EQ(parser.feed("GET / HTTP/1.1\r\n\r\n"),
              HttpParser::Status::Error);
  }
}

TEST(HttpParserTorture, BadVersionIs505) {
  HttpParser parser;
  ASSERT_EQ(parser.feed("GET / HTTP/2.0\r\n\r\n"), HttpParser::Status::Error);
  EXPECT_EQ(parser.error_status(), 505);
}

TEST(HttpParserTorture, MalformedHeadersAre400) {
  for (const char* wire :
       {"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
        "GET / HTTP/1.1\r\n: empty-name\r\n\r\n",
        "GET / HTTP/1.1\r\nBad Name: x\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: 12x\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n"}) {
    HttpParser parser;
    ASSERT_EQ(parser.feed(wire), HttpParser::Status::Error) << wire;
    EXPECT_EQ(parser.error_status(), 400) << wire;
  }
}

TEST(HttpParserTorture, OversizedHeadIs431) {
  HttpParser parser(HttpParser::Limits{128, 1024});
  std::string wire = "GET / HTTP/1.1\r\nX-Big: ";
  wire += std::string(200, 'a');
  ASSERT_EQ(parser.feed(wire), HttpParser::Status::Error);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParserTorture, OversizedBodyIs413BeforeTheBodyArrives) {
  HttpParser parser(HttpParser::Limits{1024, 64});
  // The declared length alone trips the limit — the server never buffers
  // the oversized body.
  ASSERT_EQ(parser.feed("POST / HTTP/1.1\r\nContent-Length: 65\r\n\r\n"),
            HttpParser::Status::Error);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParserTorture, TransferEncodingIs501) {
  HttpParser parser;
  ASSERT_EQ(parser.feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                        "\r\n"),
            HttpParser::Status::Error);
  EXPECT_EQ(parser.error_status(), 501);
}

TEST(HttpParserTorture, GarbageBeyondHeadCapWithoutBlankLineIs431) {
  HttpParser parser(HttpParser::Limits{64, 1024});
  // No terminating blank line ever arrives; the buffer cap bounds memory.
  ASSERT_EQ(parser.feed(std::string(100, 'x')), HttpParser::Status::Error);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpRender, ResponseCarriesContentLengthAndClose) {
  gateway::HttpResponse response;
  response.status = 404;
  response.body = "{}";
  const std::string keep = gateway::render_response(response, true);
  EXPECT_NE(keep.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos);
  EXPECT_NE(keep.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_EQ(keep.find("Connection: close"), std::string::npos);
  const std::string close = gateway::render_response(response, false);
  EXPECT_NE(close.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(close.substr(close.size() - 2), "{}");
}

TEST(HttpRender, UrlDecodeHandlesEscapesAndKeepsMalformed) {
  EXPECT_EQ(gateway::url_decode("a%20b%2Fc"), "a b/c");
  EXPECT_EQ(gateway::url_decode("a+b"), "a+b");  // '+' is not a space
  EXPECT_EQ(gateway::url_decode("bad%2"), "bad%2");
  EXPECT_EQ(gateway::url_decode("bad%zz"), "bad%zz");
}

// ---- routing without sockets ------------------------------------------------

gateway::HttpRequest make_request(const std::string& method,
                                  const std::string& target,
                                  const std::string& body = "") {
  HttpParser parser;
  std::string wire = method + " " + target + " HTTP/1.1\r\n";
  if (!body.empty()) {
    wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  wire += "\r\n" + body;
  EXPECT_EQ(parser.feed(wire), HttpParser::Status::Ready);
  return parser.take_request();
}

TEST(GatewayRoute, ErrorTaxonomyRoundTripsThroughHttpAndJson) {
  // Every api::Error code → its HTTP status → a JSON body that decodes
  // back to the same code. The wire contract of docs/GATEWAY.md.
  constexpr api::ErrorCode kCodes[] = {
      api::ErrorCode::InvalidArgument, api::ErrorCode::NotFound,
      api::ErrorCode::Busy,            api::ErrorCode::QueueFull,
      api::ErrorCode::Draining,        api::ErrorCode::Unavailable,
      api::ErrorCode::Timeout,         api::ErrorCode::Protocol,
      api::ErrorCode::Unsupported,     api::ErrorCode::Internal,
  };
  for (const api::ErrorCode code : kCodes) {
    const api::Error error{code, "synthetic", 0};
    const obs::Json body = api::error_to_json(error);
    const api::Error back = api::error_from_json(
        obs::Json::parse(body.dump()));
    EXPECT_EQ(back.code, code) << api::error_code_name(code);
    EXPECT_EQ(api::error_http_status(back.code),
              api::error_http_status(code));
  }
}

TEST(GatewayRoute, UnknownRouteAndWrongMethodShapes) {
  gateway::GatewayConfig config;
  config.listen = fresh_unix("gw-route");
  gateway::Gateway gw(std::move(config));

  const gateway::HttpResponse missing = gw.route(make_request("GET", "/nope"));
  EXPECT_EQ(missing.status, 404);
  EXPECT_EQ(api::error_from_json(obs::Json::parse(missing.body)).code,
            api::ErrorCode::NotFound);

  const gateway::HttpResponse wrong =
      gw.route(make_request("PUT", "/v1/jobs"));
  EXPECT_EQ(wrong.status, 405);
  ASSERT_TRUE(wrong.headers.count("Allow"));
  EXPECT_EQ(wrong.headers.at("Allow"), "GET, POST");

  const gateway::HttpResponse bad_id =
      gw.route(make_request("GET", "/v1/jobs/not-a-number"));
  EXPECT_EQ(bad_id.status, 404);

  const gateway::HttpResponse health = gw.route(make_request("GET", "/healthz"));
  EXPECT_EQ(health.status, 200);
  const obs::Json doc = obs::Json::parse(health.body);
  EXPECT_EQ(doc.at("status").as_string(), "ok");

  const gateway::HttpResponse metrics = gw.route(make_request("GET", "/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.content_type.find("text/plain"), std::string::npos);
}

TEST(GatewayRoute, MalformedJsonBodiesAre400) {
  gateway::GatewayConfig config;
  config.listen = fresh_unix("gw-badjson");
  gateway::Gateway gw(std::move(config));
  for (const char* body : {"not json", "[1]", "{\"bogus\": 1}"}) {
    const gateway::HttpResponse response =
        gw.route(make_request("POST", "/v1/evaluations", body));
    EXPECT_EQ(response.status, 400) << body;
    EXPECT_EQ(api::error_from_json(obs::Json::parse(response.body)).code,
              api::ErrorCode::InvalidArgument)
        << body;
  }
}

TEST(GatewayRoute, UnconfiguredBackendsSurfaceTaxonomyCodes) {
  gateway::GatewayConfig config;
  config.listen = fresh_unix("gw-nobackend");
  gateway::Gateway gw(std::move(config));
  // No evaluator: a valid evaluation body is answered with the
  // InvalidArgument → 400 mapping from the facade.
  const gateway::HttpResponse eval = gw.route(make_request(
      "POST", "/v1/evaluations", "{\"spec\": \"S-1\", \"topology\": 0}"));
  EXPECT_EQ(eval.status, 400);
  // No scheduler: the jobs routes answer the same way.
  const gateway::HttpResponse jobs = gw.route(make_request("GET", "/v1/jobs"));
  EXPECT_EQ(jobs.status, 400);
}

// ---- end to end over a real socket ------------------------------------------

/// Gateway running on its own thread over TCP; drains on destruction.
struct TestGateway {
  gateway::Gateway gw;
  std::thread thread;

  explicit TestGateway(gateway::GatewayConfig config)
      : gw(std::move(config)) {
    gw.bind();
    thread = std::thread([this] { gw.run(); });
  }
  ~TestGateway() { stop(); }
  void stop() {
    if (thread.joinable()) {
      gw.begin_drain();
      thread.join();
    }
  }
};

/// Minimal blocking HTTP client for the tests: one request, whole reply.
struct RawConnection {
  svc::Fd fd;

  explicit RawConnection(const svc::Address& address)
      : fd(svc::connect_to(address)) {}

  void send(const std::string& bytes) {
    ASSERT_TRUE(svc::write_all(fd.get(), bytes));
  }

  /// Reads until the connection closes or `expect_bytes` of body per
  /// Content-Length have arrived (keep-alive replies don't close).
  std::string read_reply() {
    std::string buffer;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd.get(), chunk, sizeof chunk, 0);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      const std::size_t head_end = buffer.find("\r\n\r\n");
      if (head_end == std::string::npos) continue;
      const std::size_t cl = buffer.find("Content-Length: ");
      if (cl == std::string::npos || cl > head_end) continue;
      const std::size_t body_len = static_cast<std::size_t>(
          std::stoul(buffer.substr(cl + 16, buffer.find('\r', cl) - cl - 16)));
      if (buffer.size() >= head_end + 4 + body_len) break;
    }
    return buffer;
  }
};

svc::Address gateway_tcp_address() {
  // Bind port 0 to find a free port, close it, and hand the address to the
  // gateway. Races are possible but vanishingly rare in CI.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  socklen_t len = sizeof addr;
  ::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len);
  const int port = ntohs(addr.sin_port);
  ::close(probe);
  return svc::Address::parse("tcp:127.0.0.1:" + std::to_string(port));
}

TEST(GatewayEndToEnd, HealthzAndPipeliningOverTheWire) {
  gateway::GatewayConfig config;
  config.listen = gateway_tcp_address();
  TestGateway gw(std::move(config));

  RawConnection conn(gw.gw.config().listen);
  // Two pipelined requests in one write; both answered in order on the
  // same connection.
  conn.send("GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n");
  std::string reply = conn.read_reply();
  ASSERT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos);
  ASSERT_NE(reply.find("\"status\":\"ok\""), std::string::npos);
  // Keep reading until the second reply's Prometheus payload shows up.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (reply.find("intooa_gateway_requests_total") == std::string::npos &&
         std::chrono::steady_clock::now() < deadline) {
    char chunk[4096];
    const ssize_t n = ::recv(conn.fd.get(), chunk, sizeof chunk, MSG_DONTWAIT);
    if (n > 0) {
      reply.append(chunk, static_cast<std::size_t>(n));
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_NE(reply.find("intooa_gateway_requests_total"), std::string::npos);
}

TEST(GatewayEndToEnd, EvaluationMatchesBinaryProtocolDigest) {
  // An evaluation served over HTTP reports the same record digest as the
  // bytes served over the binary protocol — the transport-independence
  // contract the CI smoke checks with curl.
  svc::ServerConfig server_config;
  server_config.address = fresh_unix("gw-e2e-svc");
  server_config.threads = 2;
  svc::Server server(std::move(server_config));
  server.bind();
  std::thread server_thread([&] { server.run(); });

  gateway::GatewayConfig config;
  config.listen = gateway_tcp_address();
  config.evaluators = {server.config().address};
  TestGateway gw(std::move(config));

  const std::string body =
      "{\"spec\": \"S-1\", \"topology\": 2, \"sizing\": "
      "{\"init_points\": 2, \"iterations\": 2, \"candidates\": 16, "
      "\"refit_hyper_every\": 1}}";
  RawConnection conn(gw.gw.config().listen);
  conn.send("POST /v1/evaluations HTTP/1.1\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
            body);
  const std::string reply = conn.read_reply();
  ASSERT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos) << reply;
  const obs::Json doc =
      obs::Json::parse(reply.substr(reply.find("\r\n\r\n") + 4));

  // Recompute through the facade (the binary path) and compare digests.
  api::SessionConfig session_config;
  session_config.evaluators = {server.config().address};
  api::Session session(std::move(session_config));
  svc::EvalRequest request;
  request.spec = circuit::spec_by_name("S-1");
  request.topology_index = 2;
  request.sizing.init_points = 2;
  request.sizing.iterations = 2;
  request.sizing.candidates = 16;
  request.sizing.refit_hyper_every = 1;
  const auto outcome = session.evaluations().evaluate(request);
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  EXPECT_EQ(doc.at("record_fnv1a").as_string(),
            api::fnv1a_hex(outcome.value().record_payload));

  gw.stop();
  server.begin_drain();
  server_thread.join();
}

TEST(GatewayEndToEnd, SlowlorisGetsA408WithinTheGrace) {
  gateway::GatewayConfig config;
  config.listen = gateway_tcp_address();
  config.request_grace_ms = 300;
  TestGateway gw(std::move(config));

  RawConnection conn(gw.gw.config().listen);
  conn.send("GET /healthz HTT");  // starts a request, never finishes it
  const auto started = std::chrono::steady_clock::now();
  const std::string reply = conn.read_reply();
  const auto waited = std::chrono::steady_clock::now() - started;
  EXPECT_NE(reply.find("HTTP/1.1 408 Request Timeout"), std::string::npos)
      << reply;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            5000);
  const auto stats = gw.gw.stats();
  EXPECT_EQ(stats.timeouts, 1u);
}

TEST(GatewayEndToEnd, TricklingBytesDoNotExtendTheGrace) {
  gateway::GatewayConfig config;
  config.listen = gateway_tcp_address();
  config.request_grace_ms = 400;
  TestGateway gw(std::move(config));

  RawConnection conn(gw.gw.config().listen);
  std::atomic<bool> done{false};
  std::thread trickler([&] {
    // One byte every ~30ms keeps every poll slice non-idle, so an
    // idle-slice accounting of the grace would never fire; only the
    // wall-clock window can terminate this request.
    const std::string head = "GET /healthz HTTP/1.1\r\nX-Slow: ";
    std::size_t i = 0;
    while (!done.load()) {
      const char byte = i < head.size() ? head[i] : 'a';
      ++i;
      if (!svc::write_all(conn.fd.get(), std::string_view(&byte, 1))) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  });
  const auto started = std::chrono::steady_clock::now();
  const std::string reply = conn.read_reply();
  const auto waited = std::chrono::steady_clock::now() - started;
  done.store(true);
  trickler.join();
  EXPECT_NE(reply.find("HTTP/1.1 408 Request Timeout"), std::string::npos)
      << reply;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            5000);
  EXPECT_EQ(gw.gw.stats().timeouts, 1u);
}

TEST(GatewayEndToEnd, DrainLingerBoundsChattyKeepAliveClients) {
  gateway::GatewayConfig config;
  config.listen = gateway_tcp_address();
  config.drain_linger_ms = 500;
  gateway::Gateway gw(std::move(config));
  gw.bind();
  std::thread thread([&] { gw.run(); });
  gw.begin_drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // A client that keeps sending keep-alive requests throughout the linger
  // gets one 503 (Connection: close) and is cut loose — it cannot pin its
  // handler past the linger deadline, so run() returns on time.
  const auto started = std::chrono::steady_clock::now();
  std::thread chatty([&] {
    svc::Fd fd;
    try {
      fd = svc::connect_to(gw.config().listen);
    } catch (const std::exception&) {
      return;  // lost the race with the end of the linger window
    }
    for (int i = 0; i < 200; ++i) {
      if (!svc::write_all(fd.get(), "GET /healthz HTTP/1.1\r\n\r\n")) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  thread.join();
  const auto waited = std::chrono::steady_clock::now() - started;
  chatty.join();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            5000);
}

TEST(GatewayEndToEnd, AccessLogEscapesControlBytes) {
  const std::string log_path =
      (std::filesystem::temp_directory_path() /
       ("intooa-gw-log-" + std::to_string(::getpid()) + ".txt"))
          .string();
  std::filesystem::remove(log_path);
  gateway::GatewayConfig config;
  config.listen = gateway_tcp_address();
  config.access_log = log_path;
  TestGateway gw(std::move(config));

  // The parser strips \r only immediately before \n, so a bare carriage
  // return rides through in the target; the access log must escape it
  // instead of letting one request forge extra key=value fields.
  RawConnection conn(gw.gw.config().listen);
  conn.send("GET /a\rstatus=200 HTTP/1.1\r\nConnection: close\r\n\r\n");
  conn.read_reply();
  gw.stop();

  std::ifstream log(log_path);
  const std::string contents((std::istreambuf_iterator<char>(log)),
                             std::istreambuf_iterator<char>());
  std::filesystem::remove(log_path);
  EXPECT_NE(contents.find("target=/a%0Dstatus=200"), std::string::npos)
      << contents;
  EXPECT_EQ(contents.find('\r'), std::string::npos) << contents;
}

TEST(GatewayEndToEnd, ParserErrorsAnswerTheFailureStatus) {
  gateway::GatewayConfig config;
  config.listen = gateway_tcp_address();
  TestGateway gw(std::move(config));
  {
    RawConnection conn(gw.gw.config().listen);
    conn.send("GARBAGE\r\n\r\n");
    EXPECT_NE(conn.read_reply().find("HTTP/1.1 400"), std::string::npos);
  }
  {
    RawConnection conn(gw.gw.config().listen);
    conn.send("GET / HTTP/2.0\r\n\r\n");
    EXPECT_NE(conn.read_reply().find("HTTP/1.1 505"), std::string::npos);
  }
  {
    RawConnection conn(gw.gw.config().listen);
    conn.send("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
    EXPECT_NE(conn.read_reply().find("HTTP/1.1 501"), std::string::npos);
  }
  EXPECT_GE(gw.gw.stats().parse_errors, 3u);
}

TEST(GatewayEndToEnd, DrainAnswers503WithRetryAfterDuringLinger) {
  gateway::GatewayConfig config;
  config.listen = gateway_tcp_address();
  config.drain_linger_ms = 2000;
  config.retry_after_s = 7;
  gateway::Gateway gw(std::move(config));
  gw.bind();
  std::thread thread([&] { gw.run(); });

  {
    RawConnection conn(gw.config().listen);
    conn.send("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    EXPECT_NE(conn.read_reply().find("HTTP/1.1 200 OK"), std::string::npos);
  }
  gw.begin_drain();
  // During the linger window new connections are accepted and answered
  // 503 with the configured Retry-After.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    RawConnection conn(gw.config().listen);
    conn.send("GET /healthz HTTP/1.1\r\n\r\n");
    const std::string reply = conn.read_reply();
    EXPECT_NE(reply.find("HTTP/1.1 503 Service Unavailable"),
              std::string::npos)
        << reply;
    EXPECT_NE(reply.find("Retry-After: 7"), std::string::npos) << reply;
    const obs::Json doc =
        obs::Json::parse(reply.substr(reply.find("\r\n\r\n") + 4));
    EXPECT_EQ(api::error_from_json(doc).code, api::ErrorCode::Draining);
  }
  thread.join();
}

TEST(GatewayEndToEnd, ConnectionThreadsAreReaped) {
  gateway::GatewayConfig config;
  config.listen = gateway_tcp_address();
  TestGateway gw(std::move(config));
  for (int i = 0; i < 20; ++i) {
    RawConnection conn(gw.gw.config().listen);
    conn.send("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    conn.read_reply();
  }
  // One extra round makes the accept loop reap the finished handlers.
  RawConnection last(gw.gw.config().listen);
  last.send("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
  last.read_reply();
  EXPECT_EQ(gw.gw.stats().connections, 21u);
  EXPECT_LE(gw.gw.connection_thread_count(), 8u);
}

TEST(GatewayEndToEnd, DrainLingerAdmissionIsBounded) {
  // Regression: the drain linger used to spawn a handler thread for every
  // connection it accepted, with no max_connections check. The cap now
  // holds in the linger too: connections past it get an immediate 503 on
  // the acceptor thread and never cost a thread.
  gateway::GatewayConfig config;
  config.listen = gateway_tcp_address();
  config.max_connections = 2;
  config.drain_linger_ms = 1500;
  gateway::Gateway gw(std::move(config));
  gw.bind();
  std::thread thread([&] { gw.run(); });
  gw.begin_drain();

  constexpr std::size_t kConnections = 40;
  constexpr std::size_t kRefused = kConnections - 2;
  std::vector<std::unique_ptr<RawConnection>> conns;
  for (std::size_t i = 0; i < kConnections; ++i) {
    conns.push_back(std::make_unique<RawConnection>(gw.config().listen));
  }
  // Silent peers: wait (bounded) until every refused one has its answer.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  for (std::size_t answered = 0;
       answered < kRefused && std::chrono::steady_clock::now() < deadline;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    answered = 0;
    for (const auto& conn : conns) {
      struct pollfd p{conn->fd.get(), POLLIN, 0};
      if (::poll(&p, 1, 0) > 0) ++answered;
    }
  }
  EXPECT_LE(gw.connection_thread_count(), 2u);

  std::size_t refused = 0;
  for (const auto& conn : conns) {
    if (conn->read_reply().rfind("HTTP/1.1 503", 0) == 0) ++refused;
  }
  EXPECT_EQ(refused, kRefused);
  thread.join();
}

}  // namespace
