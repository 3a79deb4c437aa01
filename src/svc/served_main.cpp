// intooa-served — the long-lived evaluation daemon. Listens on a Unix or
// TCP endpoint, serves EvalRequest frames from the warm tiers (memory
// cache, persistent --store file) or computes them on a thread pool, and
// drains gracefully on SIGTERM/SIGINT: in-flight evaluations finish and
// flush, new work is refused, and the process exits 0 with every store
// append fsync'd. docs/SERVICE.md walks through the protocol; run
//
//   intooa-served --listen unix:/tmp/intooa.sock --store eval-store.bin
//
// and point intooa-svc-client (or any api::Session) at the same address.
//
// Options: --listen ADDR (unix:PATH | tcp:HOST:PORT, default
//          unix:intooa-svc.sock) --threads N --max-inflight N
//          --max-connections N --idle-timeout-ms MS --busy-retry-ms MS
//          --store FILE --mem-cache-mb N (LRU byte budget per response
//          cache shard, 0 = unlimited) --flight-recorder N --access-log FILE
//          --stats-file FILE --stats-interval SEC   plus the standard
//          telemetry flags (--trace FILE --metrics FILE --log-level LEVEL).
//
// SIGUSR1 dumps the request flight recorder (the last N completed
// requests) to the log without disturbing service; SIGTERM/SIGINT drain.

#include <cstdio>
#include <exception>
#include <string>

#include "obs/telemetry.hpp"
#include "store/store.hpp"
#include "svc/server.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

int main(int argc, char** argv) {
  using namespace intooa;
  try {
    const util::Cli cli(argc, argv);
    cli.reject_unknown({"listen", "threads", "max-inflight",
                        "max-connections", "idle-timeout-ms", "busy-retry-ms",
                        "store", "mem-cache-mb", "test-eval-delay-ms",
                        "flight-recorder", "access-log", "stats-file",
                        "stats-interval", "trace", "metrics", "log-level"});
    obs::BenchTelemetry telemetry(
        obs::TelemetryOptions::from_cli(cli, util::LogLevel::Info));

    svc::ServerConfig config;
    config.address =
        svc::Address::parse(cli.get("listen", "unix:intooa-svc.sock"));
    config.threads = cli.get_size("threads", 0);
    config.max_inflight = cli.get_size("max-inflight", 64);
    config.max_connections = cli.get_size("max-connections", 64);
    config.idle_timeout_ms =
        static_cast<int>(cli.get_int("idle-timeout-ms", 60'000));
    config.busy_retry_ms =
        static_cast<std::uint32_t>(cli.get_size("busy-retry-ms", 250));
    // Undocumented test hook used by the CI backpressure smoke.
    config.test_eval_delay_ms =
        static_cast<int>(cli.get_int("test-eval-delay-ms", 0));
    config.flight_recorder_capacity = cli.get_size("flight-recorder", 256);
    config.access_log = cli.get("access-log", "");
    config.stats_file = cli.get("stats-file", "");
    config.stats_interval_s =
        cli.get_double("stats-interval", config.stats_interval_s);
    const std::string store_path = cli.get("store", "");
    if (!store_path.empty()) config.store = store::EvalStore::open(store_path);
    // Byte budget of the in-memory response caches; 0 (default) keeps
    // everything, which is fine for bounded campaigns but not for a
    // daemon serving many tenants indefinitely.
    config.mem_cache_bytes = cli.get_size("mem-cache-mb", 0) * (1u << 20);

    svc::Server server(std::move(config));
    server.bind();
    // A second SIGTERM/SIGINT force-exits (the escape hatch when an
    // evaluation wedges); SIGUSR1 dumps the flight recorder and never
    // escalates.
    svc::install_drain_signals(server.wake_fd(), /*dump_on_usr1=*/true);

    if (!store_path.empty()) {
      util::log_info("intooa-served: warm store attached",
                     {{"store", store_path}});
    }
    server.run();  // returns after a graceful drain
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "intooa-served: %s\n", error.what());
    return 1;
  }
}
