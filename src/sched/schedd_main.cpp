// intooa-schedd — the multi-tenant campaign scheduler daemon. Accepts
// campaign jobs over the svc protocol (SubmitJob/JobStatus/CancelJob/
// ListJobs, protocol minor 2), journals every accepted job to an append-
// only CRC-checked journal, and dispatches campaign runs onto a bounded
// worker pool under weighted fair share across tenants with strict-
// priority preemption at checkpoint boundaries. Kill it — even SIGKILL
// mid-run — and a restarted daemon replays the journal, requeues every
// non-terminal job minus its proven-done units, and finishes them to
// byte-identical campaign CSVs. docs/SCHEDULER.md has the full model; run
//
//   intooa-schedd --listen unix:/tmp/intooa-sched.sock --jobs-dir sched-jobs
//
// and drive it with `intooa-svc-client jobs ...`.
//
// Options: --listen ADDR (unix:PATH | tcp:HOST:PORT, default
//          unix:intooa-sched.sock) --workers N (campaign runs in flight,
//          default 2) --queue-depth N (jobs admitted before QueueFull,
//          default 64) --retry-hint-ms MS --jobs-dir DIR (per-job
//          checkpoints + CSVs, default sched-jobs) --journal FILE (default
//          <jobs-dir>/journal.bin) --store FILE (shared warm evaluation
//          store) --remote ADDR[,ADDR...] (evaluation tier)
//          --tenant-weights a=3,b=1 (fair-share weights, default 1)
//          --tenant-quotas a=2 (max concurrent runs per tenant, default
//          unlimited) --max-connections N --idle-timeout-ms MS   plus the
//          standard telemetry flags (--trace --metrics --log-level).
//
// SIGTERM/SIGINT drain: the listener refuses new work, in-flight campaign
// runs finish and journal their UnitDone, queued work stays journaled for
// the next process, and the daemon exits 0. A second signal force-exits.

#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "campaign/campaign.hpp"
#include "obs/telemetry.hpp"
#include "sched/campaign_workload.hpp"
#include "sched/scheduler.hpp"
#include "sched/service.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/version.hpp"

namespace {

/// Parses "a=3,b=1.5" into a map; throws std::invalid_argument on junk.
std::map<std::string, double> parse_assignments(const std::string& text,
                                                const char* flag) {
  std::map<std::string, double> out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(start, comma - start);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument(std::string("--") + flag +
                                  ": expected NAME=VALUE, got \"" + item +
                                  "\"");
    }
    try {
      out[item.substr(0, eq)] = std::stod(item.substr(eq + 1));
    } catch (const std::exception&) {
      throw std::invalid_argument(std::string("--") + flag +
                                  ": bad value in \"" + item + "\"");
    }
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace intooa;
  try {
    const util::Cli cli(argc, argv);
    cli.reject_unknown({"listen", "workers", "queue-depth", "retry-hint-ms",
                        "jobs-dir", "journal", "store", "remote",
                        "remote-inflight", "tenant-weights", "tenant-quotas",
                        "max-connections", "idle-timeout-ms", "trace",
                        "metrics", "log-level"});
    obs::BenchTelemetry telemetry(
        obs::TelemetryOptions::from_cli(cli, util::LogLevel::Info));

    sched::CampaignWorkloadConfig workload_config;
    workload_config.jobs_dir = cli.get("jobs-dir", "sched-jobs");
    workload_config.store = campaign::open_store_from_cli(cli);
    workload_config.remote = campaign::open_pool_from_cli(cli);

    sched::SchedulerConfig sched_config;
    sched_config.workers = cli.get_size("workers", 2);
    sched_config.max_queued_jobs = cli.get_size("queue-depth", 64);
    sched_config.retry_after_ms =
        static_cast<std::uint32_t>(cli.get_size("retry-hint-ms", 1000));
    sched_config.journal_path =
        cli.get("journal", workload_config.jobs_dir + "/journal.bin");
    sched_config.tenant_weights =
        parse_assignments(cli.get("tenant-weights", ""), "tenant-weights");
    for (const auto& [tenant, quota] :
         parse_assignments(cli.get("tenant-quotas", ""), "tenant-quotas")) {
      if (quota < 0) {
        throw std::invalid_argument("--tenant-quotas: negative quota for " +
                                    tenant);
      }
      sched_config.tenant_quotas[tenant] = static_cast<std::size_t>(quota);
    }

    sched::ServiceConfig svc_config;
    svc_config.address =
        svc::Address::parse(cli.get("listen", "unix:intooa-sched.sock"));
    svc_config.max_connections = cli.get_size("max-connections", 64);
    svc_config.idle_timeout_ms =
        static_cast<int>(cli.get_int("idle-timeout-ms", 60'000));

    util::log_info("intooa-schedd starting",
                   {{"jobs_dir", workload_config.jobs_dir},
                    {"journal", sched_config.journal_path},
                    {"build", util::version_string()}});

    // Construction replays the journal and resumes recovered jobs at once.
    sched::Scheduler scheduler(
        std::move(sched_config),
        std::make_shared<sched::CampaignWorkload>(std::move(workload_config)));
    sched::JobService service(std::move(svc_config), scheduler);
    service.bind();
    svc::install_drain_signals(service.wake_fd());

    service.run();  // returns once the listener drained
    // Finish the in-flight campaign runs (their UnitDone is journaled);
    // queued units stay in the journal for the next process.
    scheduler.stop();
    util::log_info("intooa-schedd drained");
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "intooa-schedd: %s\n", error.what());
    return 1;
  }
}
