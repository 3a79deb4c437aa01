// intooa-gateway — the HTTP/JSON front door to an intooa deployment.
// Speaks plain HTTP/1.1 (no TLS, no external dependencies) so dashboards,
// scripts and non-C++ services drive evaluations and campaign jobs with
// curl instead of linking the binary-protocol clients:
//
//   intooa-gateway --listen tcp:127.0.0.1:8080 --evaluator unix:/tmp/i.sock
//       --scheduler unix:/tmp/sched.sock
//
//   curl -s localhost:8080/healthz
//   curl -s -X POST localhost:8080/v1/jobs -d @job.json
//   curl -s localhost:8080/v1/jobs/1?watch=1
//
// docs/GATEWAY.md documents every route, the JSON shapes and the error
// taxonomy mapping. Options:
//
//   --listen ADDR            HTTP endpoint (tcp:HOST:PORT | unix:PATH,
//                            default tcp:127.0.0.1:8080)
//   --evaluator ADDR[,ADDR]  intooa-served endpoints for /v1/evaluations
//                            and /v1/stats (sharded by EvalKey digest)
//   --scheduler ADDR         intooa-schedd endpoint for the /v1/jobs routes
//   --inflight N             pipelined evaluations per endpoint (default 4)
//   --max-connections N      concurrent HTTP connections (default 64)
//   --idle-timeout-ms MS     keep-alive idle limit (default 60000)
//   --request-grace-ms MS    slowloris bound: a request must finish
//                            arriving within this budget (default 10000)
//   --drain-linger-ms MS     after SIGTERM, keep answering 503+Retry-After
//                            this long before exiting (default 0)
//   --retry-after-s S        Retry-After advertised on 503 (default 1)
//   --watch-cap-ms MS        per-request long-poll cap (default 30000)
//   --access-log FILE        one key=value line per request
//   plus the standard telemetry flags (--trace --metrics --log-level).
//
// SIGTERM/SIGINT drain: in-flight requests finish, the listener answers
// 503 + Retry-After for --drain-linger-ms, then the process exits 0. A
// second signal force-exits.

#include <cstdio>
#include <exception>
#include <string>

#include "gateway/gateway.hpp"
#include "obs/telemetry.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/version.hpp"

namespace {

std::vector<intooa::svc::Address> parse_address_list(const std::string& text) {
  std::vector<intooa::svc::Address> out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(start, comma - start);
    if (!item.empty()) out.push_back(intooa::svc::Address::parse(item));
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace intooa;
  try {
    const util::Cli cli(argc, argv);
    cli.reject_unknown({"listen", "evaluator", "scheduler", "inflight",
                        "max-connections", "idle-timeout-ms",
                        "request-grace-ms", "drain-linger-ms", "retry-after-s",
                        "watch-cap-ms", "access-log", "trace", "metrics",
                        "log-level"});
    obs::BenchTelemetry telemetry(
        obs::TelemetryOptions::from_cli(cli, util::LogLevel::Info));

    gateway::GatewayConfig config;
    config.listen = svc::Address::parse(cli.get("listen", "tcp:127.0.0.1:8080"));
    config.evaluators = parse_address_list(cli.get("evaluator", ""));
    if (const std::string scheduler = cli.get("scheduler", "");
        !scheduler.empty()) {
      config.scheduler = svc::Address::parse(scheduler);
    }
    config.pool.max_inflight = cli.get_size("inflight", 4);
    config.max_connections = cli.get_size("max-connections", 64);
    config.idle_timeout_ms =
        static_cast<int>(cli.get_int("idle-timeout-ms", 60'000));
    config.request_grace_ms =
        static_cast<int>(cli.get_int("request-grace-ms", 10'000));
    config.drain_linger_ms =
        static_cast<int>(cli.get_int("drain-linger-ms", 0));
    config.retry_after_s = static_cast<int>(cli.get_int("retry-after-s", 1));
    config.watch_cap_ms =
        static_cast<int>(cli.get_int("watch-cap-ms", 30'000));
    config.access_log = cli.get("access-log", "");

    gateway::Gateway gateway(std::move(config));
    gateway.bind();
    svc::install_drain_signals(gateway.wake_fd());

    gateway.run();  // returns once drained (plus the linger window)
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "intooa-gateway: %s\n", error.what());
    return 1;
  }
}
