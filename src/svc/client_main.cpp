// intooa-svc-client — CLI front end for the evaluation service, built on
// the api::Session facade (api/session.hpp). Three modes sharing one
// request vocabulary:
//
//   single (default): one request for (--spec, --topology), one reply
//   --batch FILE:     one request per file line ("SPEC TOPOLOGY_INDEX";
//                     '#' starts a comment)
//   --hammer N:       N concurrent sessions splitting the request list
//                     (the list is the batch file when given, otherwise
//                     --count consecutive topologies starting at
//                     --topology); Busy backoff is handled by the pool
//
// --verify re-runs every evaluation in-process and byte-compares the local
// store::encode_record bytes against the server's record payload — the
// end-to-end determinism check used by the CI smoke.
//
// A fourth mode queries a live server's telemetry instead of evaluating:
//
//   stats [--watch N] [--prometheus | --json] [--flight]
//
// prints the server's metrics snapshot (human table by default, Prometheus
// text exposition with --prometheus, the raw StatsResponse JSON with
// --json; --flight appends the request flight recorder; --watch N repeats
// every N seconds until interrupted). Requires a minor >= 1 server.
//
// A fifth mode drives an intooa-schedd campaign scheduler (minor >= 2):
//
//   jobs submit --specs S-1,S-2 [--tenant T --priority N --method NAME
//               --runs N --init N --iters N --pool N --sizing-init N
//               --sizing-iters N --seed N] [--watch]
//   jobs status --job ID
//   jobs cancel --job ID
//   jobs list [--tenant T]
//   jobs watch [--job ID] [--interval SEC]
//
// submit prints the assigned job id; watch polls until the job — or with
// no --job, every job — is terminal, exiting 0 only if everything
// completed.
//
// --json switches every subcommand to machine-readable output: one JSON
// document per result line (the same shapes the HTTP gateway serves;
// docs/GATEWAY.md), errors as {"error": {...}} on stdout.
//
// Exit codes, derived from the api::Error taxonomy:
//   0  every request ok (and verified, when asked)
//   2  usage error (unknown flag/subcommand, invalid argument)
//   3  retryable failure (endpoint down, queue full, draining, timeout)
//   4  permanent failure (unknown job, protocol error, verify mismatch,
//      watched job canceled/failed)
//
// Options: --connect ADDR --spec S-1 --topology N --count N --batch FILE
//          --hammer N --timeout-ms MS --verify --json
//          --sizing-init N --sizing-iters N --candidates N --refit-every N
//          plus the standard telemetry flags (--trace --metrics
//          --log-level). --timeout-ms bounds only the stats reply read;
//          evaluations wait for the pool (Busy backoff and reconnects are
//          its own).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/error.hpp"
#include "api/json.hpp"
#include "api/session.hpp"
#include "core/eval_key.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/telemetry.hpp"
#include "sizing/sizer.hpp"
#include "store/record_io.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace intooa;

/// One request to issue: the spec name plus the topology index.
struct Job {
  std::string spec;
  std::uint64_t topology_index = 0;
};

std::vector<Job> read_batch(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open batch file " + path);
  std::vector<Job> jobs;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    Job job;
    if (!(fields >> job.spec)) continue;  // blank / comment-only line
    if (!(fields >> job.topology_index)) {
      throw std::invalid_argument(path + ":" + std::to_string(line_no) +
                                  ": expected 'SPEC TOPOLOGY_INDEX'");
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

svc::EvalRequest make_request(const Job& job, const sizing::SizingConfig& cfg,
                              std::uint64_t request_id) {
  svc::EvalRequest request;
  request.request_id = request_id;
  request.spec = circuit::spec_by_name(job.spec);
  request.sizing = cfg;
  request.topology_index = job.topology_index;
  return request;
}

/// Recomputes the evaluation in-process and byte-compares against the
/// server's record payload. Returns true when identical.
bool verify_reply(const svc::EvalRequest& request,
                  const api::EvaluationOutcome& outcome) {
  const sizing::EvalContext context = request.eval_context();
  const core::EvalKeyContext keys(context, request.sizing);
  const circuit::Topology topology =
      circuit::Topology::from_index(request.topology_index);
  const core::EvalKey key = keys.key_for(topology);
  util::Rng sizing_rng(key.digest);
  const sizing::Sizer sizer(context, request.sizing);
  core::EvalRecord record;
  record.topology = topology;
  record.sized = sizer.size(topology, sizing_rng);
  return store::encode_record(key, record) == outcome.record_payload;
}

struct Tally {
  std::mutex mutex;
  std::size_t ok = 0, failed = 0, verified = 0, mismatched = 0;
  int worst_exit = 0;  ///< escalated api exit code across failures
};

/// Runs `jobs` sequentially over one api::Session; updates `tally`.
void run_eval_jobs(const svc::Address& address, const std::vector<Job>& jobs,
                   std::uint64_t id_base, const sizing::SizingConfig& cfg,
                   bool verify, bool print, bool json, Tally& tally) {
  api::SessionConfig config;
  config.evaluators = {address};
  api::Session session(std::move(config));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    svc::EvalRequest request;
    try {
      request = make_request(jobs[i], cfg, id_base + i + 1);
    } catch (const std::exception& error) {
      const api::Error mapped = api::error_from_exception(error);
      std::lock_guard<std::mutex> lock(tally.mutex);
      ++tally.failed;
      tally.worst_exit = std::max(tally.worst_exit, mapped.exit_code());
      if (json) {
        std::printf("%s\n", api::error_to_json(mapped).dump().c_str());
      } else {
        std::fprintf(stderr, "request %llu (%s topo %llu): %s\n",
                     (unsigned long long)(id_base + i + 1),
                     jobs[i].spec.c_str(),
                     (unsigned long long)jobs[i].topology_index,
                     mapped.message.c_str());
      }
      continue;
    }
    const api::Expected<api::EvaluationOutcome> outcome =
        session.evaluations().evaluate(request);
    if (!outcome.ok()) {
      std::lock_guard<std::mutex> lock(tally.mutex);
      ++tally.failed;
      tally.worst_exit =
          std::max(tally.worst_exit, outcome.error().exit_code());
      if (json) {
        std::printf("%s\n", api::error_to_json(outcome.error()).dump().c_str());
      } else {
        std::fprintf(stderr, "request %llu (%s topo %llu): %s: %s\n",
                     (unsigned long long)(id_base + i + 1),
                     jobs[i].spec.c_str(),
                     (unsigned long long)jobs[i].topology_index,
                     std::string(api::error_code_name(outcome.error().code))
                         .c_str(),
                     outcome.error().message.c_str());
      }
      continue;
    }
    const api::EvaluationOutcome& result = outcome.value();
    const bool identical = verify && verify_reply(request, result);
    std::lock_guard<std::mutex> lock(tally.mutex);
    ++tally.ok;
    if (verify) ++(identical ? tally.verified : tally.mismatched);
    if (json) {
      obs::Json doc = api::evaluation_to_json(request, result);
      if (verify) doc["verify"] = obs::Json(identical ? "ok" : "mismatch");
      std::printf("%s\n", doc.dump().c_str());
    } else if (print) {
      std::printf("%s topo %llu: served=%s feasible=%d fom=%.4f sims=%zu%s\n",
                  jobs[i].spec.c_str(),
                  (unsigned long long)jobs[i].topology_index,
                  svc::served_from_name(result.served_from).data(),
                  result.record.record.sized.best.feasible ? 1 : 0,
                  result.record.record.sized.best.fom,
                  result.record.record.sized.simulations,
                  !verify ? "" : identical ? " verify=ok"
                                           : " verify=MISMATCH");
    }
  }
}

/// Human rendering of one StatsResponse document: uptime header, counter
/// and gauge tables, then per-histogram quantiles.
void print_stats_human(const obs::Json& root) {
  std::printf("uptime=%.1fs protocol=%d.%d\n",
              root.at("uptime_seconds").as_number(),
              static_cast<int>(root.at("protocol_version").as_number()),
              static_cast<int>(root.at("protocol_minor").as_number()));
  const obs::Json& metrics = root.at("metrics");
  if (metrics.contains("counters")) {
    for (const auto& [name, value] : metrics.at("counters").members()) {
      std::printf("  %-28s %.0f\n", name.c_str(), value.as_number());
    }
  }
  if (metrics.contains("gauges")) {
    for (const auto& [name, value] : metrics.at("gauges").members()) {
      std::printf("  %-28s %g\n", name.c_str(), value.as_number());
    }
  }
  if (root.contains("quantiles")) {
    for (const auto& [name, q] : root.at("quantiles").members()) {
      std::printf("  %-28s count=%.0f p50=%.0f p90=%.0f p99=%.0f\n",
                  name.c_str(), q.at("count").as_number(),
                  q.at("p50").as_number(), q.at("p90").as_number(),
                  q.at("p99").as_number());
    }
  }
  if (root.contains("flight")) {
    std::printf("flight (%zu of %.0f recorded):\n", root.at("flight").size(),
                root.at("flight_total").as_number());
    for (const auto& record : root.at("flight").items()) {
      std::printf("  id=%.0f served=%s total_ns=%.0f peer=%s\n",
                  record.at("request_id").as_number(),
                  record.at("served_from").as_string().c_str(),
                  record.at("total_ns").as_number(),
                  record.at("peer").as_string().c_str());
    }
  }
}

/// Prints an api::Error the mode-appropriate way and returns its exit code.
int report_error(const api::Error& error, bool json) {
  if (json) {
    std::printf("%s\n", api::error_to_json(error).dump().c_str());
  } else {
    std::fprintf(stderr, "intooa-svc-client: %s\n", error.message.c_str());
  }
  return error.exit_code();
}

/// The `stats` subcommand: query a live server's telemetry over the
/// facade, optionally repeating with --watch.
int run_stats(const util::Cli& cli, const svc::Address& address,
              int timeout_ms) {
  const bool prometheus = cli.has("prometheus");
  const bool raw_json = cli.has("json");
  const std::size_t watch_s = cli.get_size("watch", 0);
  api::SessionConfig config;
  config.evaluators = {address};
  config.stats_timeout_ms = timeout_ms;
  api::Session session(std::move(config));
  for (;;) {
    const api::Expected<std::string> text =
        session.stats().fetch_json(cli.has("flight"));
    if (!text.ok()) return report_error(text.error(), raw_json);
    if (raw_json) {
      std::printf("%s\n", text.value().c_str());
    } else {
      const obs::Json root = obs::Json::parse(text.value());
      if (prometheus) {
        const auto snapshot =
            obs::MetricsSnapshot::from_json(root.at("metrics"));
        std::fputs(obs::render_prometheus(snapshot).c_str(), stdout);
      } else {
        print_stats_human(root);
      }
    }
    std::fflush(stdout);
    if (watch_s == 0) break;
    std::this_thread::sleep_for(std::chrono::seconds(watch_s));
  }
  return 0;
}

/// One line per job: stable, grep-friendly, used by the CI smoke.
void print_job(const sched::JobInfo& info) {
  std::string specs;
  for (const auto& name : info.spec.specs) {
    if (!specs.empty()) specs += ',';
    specs += name;
  }
  std::printf(
      "job %llu tenant=%s priority=%u method=%s specs=%s state=%s "
      "units=%u/%u sims=%llu preemptions=%u%s%s\n",
      (unsigned long long)info.id, info.spec.tenant.c_str(),
      info.spec.priority, info.spec.method.c_str(), specs.c_str(),
      std::string(sched::job_state_name(info.state)).c_str(),
      info.units_done, info.units_total, (unsigned long long)info.simulations,
      info.preemptions, info.message.empty() ? "" : " msg=",
      info.message.c_str());
}

/// Prints one job the mode-appropriate way.
void emit_job(const sched::JobInfo& info, bool json) {
  if (json) {
    std::printf("%s\n", api::job_info_to_json(info).dump().c_str());
  } else {
    print_job(info);
  }
}

/// Polls until the watched job(s) are terminal. Exit 0 only when
/// everything completed (canceled/failed jobs fail the watch).
int watch_jobs(api::Jobs& jobs_api, std::optional<std::uint64_t> job_id,
               std::size_t interval_s, bool json) {
  for (;;) {
    std::vector<sched::JobInfo> jobs;
    if (job_id) {
      const api::Expected<sched::JobInfo> info = jobs_api.status(*job_id);
      if (!info.ok()) return report_error(info.error(), json);
      jobs.push_back(info.value());
    } else {
      api::Expected<std::vector<sched::JobInfo>> all = jobs_api.list();
      if (!all.ok()) return report_error(all.error(), json);
      jobs = std::move(all).take();
    }
    bool all_terminal = true, all_completed = true;
    for (const auto& info : jobs) {
      if (!sched::job_state_terminal(info.state)) all_terminal = false;
      if (info.state != sched::JobState::Completed) all_completed = false;
    }
    if (all_terminal) {
      for (const auto& info : jobs) emit_job(info, json);
      return all_completed && !jobs.empty()
                 ? 0
                 : api::error_exit_code(api::ErrorCode::Internal);
    }
    std::this_thread::sleep_for(std::chrono::seconds(interval_s));
  }
}

/// The `jobs` subcommand: drive a live intooa-schedd through the facade.
int run_jobs_control(const util::Cli& cli, const svc::Address& address) {
  const auto& pos = cli.positional();
  const std::string action = pos.size() >= 2 ? pos[1] : "list";
  const bool json = cli.has("json");
  const std::size_t interval_s = std::max<std::size_t>(
      1, cli.get_size("interval", 2));
  api::SessionConfig config;
  config.scheduler = address;
  api::Session session(std::move(config));
  api::Jobs& jobs = session.jobs();

  if (action == "submit") {
    sched::JobSpec spec;
    spec.tenant = cli.get("tenant", "default");
    spec.priority = static_cast<std::uint32_t>(cli.get_size("priority", 0));
    spec.method = cli.get("method", "INTO-OA");
    std::string specs_arg = cli.get("specs", "S-1");
    std::size_t start = 0;
    while (start < specs_arg.size()) {
      std::size_t comma = specs_arg.find(',', start);
      if (comma == std::string::npos) comma = specs_arg.size();
      if (comma > start) {
        spec.specs.push_back(specs_arg.substr(start, comma - start));
      }
      start = comma + 1;
    }
    spec.params.runs = cli.get_size("runs", spec.params.runs);
    spec.params.init_topologies = cli.get_size("init", spec.params.init_topologies);
    spec.params.iterations = cli.get_size("iters", spec.params.iterations);
    spec.params.pool = cli.get_size("pool", spec.params.pool);
    spec.params.sizing_init =
        cli.get_size("sizing-init", spec.params.sizing_init);
    spec.params.sizing_iterations =
        cli.get_size("sizing-iters", spec.params.sizing_iterations);
    spec.params.seed = cli.get_size("seed", spec.params.seed);
    const api::Expected<std::uint64_t> submitted = jobs.submit(spec);
    if (!submitted.ok()) {
      if (!json && submitted.error().code == api::ErrorCode::QueueFull) {
        std::fprintf(stderr, "queue full; retry after %u ms\n",
                     submitted.error().retry_after_ms);
        return submitted.error().exit_code();
      }
      return report_error(submitted.error(), json);
    }
    if (json) {
      obs::Json doc = obs::Json::object();
      doc["id"] =
          obs::Json(static_cast<unsigned long long>(submitted.value()));
      doc["state"] = obs::Json("queued");
      std::printf("%s\n", doc.dump().c_str());
    } else {
      std::printf("submitted job %llu\n",
                  (unsigned long long)submitted.value());
    }
    if (cli.has("watch")) {
      return watch_jobs(jobs, submitted.value(), interval_s, json);
    }
    return 0;
  }
  if (action == "status" || action == "cancel") {
    if (!cli.has("job")) {
      std::fprintf(stderr, "jobs %s requires --job ID\n", action.c_str());
      return api::error_exit_code(api::ErrorCode::InvalidArgument);
    }
    const std::uint64_t job_id = cli.get_size("job", 0);
    const api::Expected<sched::JobInfo> info =
        action == "status" ? jobs.status(job_id) : jobs.cancel(job_id);
    if (!info.ok()) {
      if (!json && info.error().code == api::ErrorCode::NotFound) {
        std::fprintf(stderr, "unknown job %llu\n", (unsigned long long)job_id);
        return info.error().exit_code();
      }
      return report_error(info.error(), json);
    }
    emit_job(info.value(), json);
    return 0;
  }
  if (action == "list") {
    const api::Expected<std::vector<sched::JobInfo>> all =
        jobs.list(cli.get("tenant", ""));
    if (!all.ok()) return report_error(all.error(), json);
    if (json) {
      obs::Json list = obs::Json::array();
      for (const auto& info : all.value()) {
        list.push_back(api::job_info_to_json(info));
      }
      obs::Json doc = obs::Json::object();
      doc["jobs"] = std::move(list);
      std::printf("%s\n", doc.dump().c_str());
    } else {
      for (const auto& info : all.value()) print_job(info);
    }
    return 0;
  }
  if (action == "watch") {
    std::optional<std::uint64_t> job_id;
    if (cli.has("job")) job_id = cli.get_size("job", 0);
    return watch_jobs(jobs, job_id, interval_s, json);
  }
  std::fprintf(stderr,
               "intooa-svc-client jobs: unknown action '%s' "
               "(submit|status|cancel|list|watch)\n",
               action.c_str());
  return api::error_exit_code(api::ErrorCode::InvalidArgument);
}

}  // namespace

int main(int argc, char** argv) {
  bool json_mode = false;
  try {
    const util::Cli cli(argc, argv);
    json_mode = cli.has("json");
    const bool jobs_mode =
        !cli.positional().empty() && cli.positional().front() == "jobs";
    if (jobs_mode) {
      // The scheduler subcommand has its own flag vocabulary (campaign
      // protocol + job control) disjoint from the evaluation modes'.
      cli.reject_unknown({"connect", "tenant", "priority", "method", "specs",
                          "runs", "init", "iters", "pool", "sizing-init",
                          "sizing-iters", "seed", "job", "interval", "watch",
                          "json", "trace", "metrics", "log-level"});
    } else {
      cli.reject_unknown({"connect", "spec", "topology", "count", "batch",
                          "hammer", "timeout-ms", "verify",
                          "sizing-init", "sizing-iters", "candidates",
                          "refit-every", "watch", "prometheus", "json",
                          "flight", "trace", "metrics", "log-level"});
    }
    obs::BenchTelemetry telemetry(
        obs::TelemetryOptions::from_cli(cli, util::LogLevel::Warn));

    const svc::Address address = svc::Address::parse(cli.get(
        "connect", jobs_mode ? "unix:intooa-sched.sock" : "unix:intooa-svc.sock"));
    if (jobs_mode) return run_jobs_control(cli, address);
    if (!cli.positional().empty()) {
      const std::string& mode = cli.positional().front();
      if (mode != "stats") {
        std::fprintf(stderr, "intooa-svc-client: unknown subcommand '%s'\n",
                     mode.c_str());
        return api::error_exit_code(api::ErrorCode::InvalidArgument);
      }
      return run_stats(cli, address,
                       static_cast<int>(cli.get_int("timeout-ms", -1)));
    }
    sizing::SizingConfig cfg;
    cfg.init_points = cli.get_size("sizing-init", cfg.init_points);
    cfg.iterations = cli.get_size("sizing-iters", cfg.iterations);
    cfg.candidates = cli.get_size("candidates", cfg.candidates);
    cfg.refit_hyper_every =
        static_cast<int>(cli.get_int("refit-every", cfg.refit_hyper_every));
    const bool verify = cli.has("verify");
    const bool json = cli.has("json");

    // Build the request list: batch file, or --count consecutive
    // topologies starting at --topology.
    std::vector<Job> jobs;
    const std::string batch_path = cli.get("batch", "");
    if (!batch_path.empty()) {
      jobs = read_batch(batch_path);
    } else {
      const std::string spec = cli.get("spec", "S-1");
      const std::uint64_t base = cli.get_size("topology", 0);
      const std::size_t count = cli.get_size("count", 1);
      for (std::size_t i = 0; i < count; ++i) {
        jobs.push_back({spec, base + i});
      }
    }
    if (jobs.empty()) {
      std::fprintf(stderr, "intooa-svc-client: nothing to request\n");
      return api::error_exit_code(api::ErrorCode::InvalidArgument);
    }

    Tally tally;
    const std::size_t hammer = cli.get_size("hammer", 0);
    if (hammer <= 1) {
      run_eval_jobs(address, jobs, 0, cfg, verify, /*print=*/true, json,
                    tally);
    } else {
      // Split the list round-robin across `hammer` sessions, one thread
      // each. Ids are disjoint per worker so replies are attributable.
      std::vector<std::vector<Job>> split(hammer);
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        split[i % hammer].push_back(jobs[i]);
      }
      std::vector<std::thread> workers;
      for (std::size_t w = 0; w < hammer; ++w) {
        workers.emplace_back([&, w] {
          try {
            run_eval_jobs(address, split[w], (w + 1) << 32, cfg, verify,
                          /*print=*/true, json, tally);
          } catch (const std::exception& error) {
            const api::Error mapped = api::error_from_exception(error);
            std::lock_guard<std::mutex> lock(tally.mutex);
            ++tally.failed;
            tally.worst_exit = std::max(tally.worst_exit, mapped.exit_code());
            std::fprintf(stderr, "worker %zu: %s\n", w, error.what());
          }
        });
      }
      for (auto& worker : workers) worker.join();
    }

    if (json) {
      obs::Json doc = obs::Json::object();
      doc["ok"] = obs::Json(static_cast<unsigned long long>(tally.ok));
      doc["failed"] = obs::Json(static_cast<unsigned long long>(tally.failed));
      if (verify) {
        doc["verified"] =
            obs::Json(static_cast<unsigned long long>(tally.verified));
        doc["mismatched"] =
            obs::Json(static_cast<unsigned long long>(tally.mismatched));
      }
      std::printf("%s\n", doc.dump().c_str());
    } else {
      std::printf("ok=%zu failed=%zu", tally.ok, tally.failed);
      if (verify) {
        std::printf(" verified=%zu mismatched=%zu", tally.verified,
                    tally.mismatched);
      }
      std::printf("\n");
    }
    const bool success =
        tally.failed == 0 && tally.ok == jobs.size() && tally.mismatched == 0;
    if (success) return 0;
    return tally.worst_exit != 0
               ? tally.worst_exit
               : api::error_exit_code(api::ErrorCode::Internal);
  } catch (const std::exception& error) {
    // Usage mistakes (bad flag values, unparsable addresses) exit 2 via
    // the taxonomy; unexpected failures exit as their mapped class.
    const api::Error mapped = api::error_from_exception(error);
    if (json_mode) {
      std::printf("%s\n", api::error_to_json(mapped).dump().c_str());
    }
    std::fprintf(stderr, "intooa-svc-client: %s\n", error.what());
    return mapped.exit_code();
  }
}
