#include "campaign/campaign.hpp"

#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>

#include "baselines/fega.hpp"
#include "baselines/vgae_bo.hpp"
#include "campaign/drain.hpp"
#include "core/optimizer.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "runtime/campaign_runner.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/executor.hpp"
#include "svc/remote_backend.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace intooa::campaign {

const std::vector<Method>& all_methods() {
  static const std::vector<Method> methods = {
      Method::FeGa, Method::VgaeBo, Method::IntoOaR, Method::IntoOaM,
      Method::IntoOa};
  return methods;
}

std::string method_name(Method method) {
  switch (method) {
    case Method::FeGa: return "FE-GA";
    case Method::VgaeBo: return "VGAE-BO";
    case Method::IntoOaR: return "INTO-OA-r";
    case Method::IntoOaM: return "INTO-OA-m";
    case Method::IntoOa: return "INTO-OA";
  }
  return "?";
}

std::optional<Method> method_from_name(std::string_view name) {
  for (Method method : all_methods()) {
    if (method_name(method) == name) return method;
  }
  return std::nullopt;
}

std::string CampaignParams::cache_token() const {
  // The leading "v2" stamps the deterministic-sizing protocol (the inner
  // sizing BO is seeded from the evaluation key, not the campaign stream):
  // campaign CSVs and checkpoints produced before that change are not
  // comparable and must never be silently reused.
  std::ostringstream out;
  out << "v2_r" << runs << "_i" << init_topologies << "x" << iterations
      << "_p" << pool << "_s" << sizing_init << "x" << sizing_iterations
      << "_seed" << seed;
  return out.str();
}

int CampaignSet::successes() const {
  int count = 0;
  for (const auto& run : runs) count += run.success;
  return count;
}

double CampaignSet::mean_final_fom() const {
  std::vector<double> foms;
  for (const auto& run : runs) {
    if (run.success) foms.push_back(run.final_fom);
  }
  return foms.empty() ? 0.0 : util::mean(foms);
}

std::vector<double> CampaignSet::mean_curve() const {
  std::vector<double> mean(params.budget(), 0.0);
  if (runs.empty()) return mean;
  for (const auto& run : runs) {
    for (std::size_t i = 0; i < mean.size() && i < run.curve.size(); ++i) {
      mean[i] += run.curve[i];
    }
  }
  for (auto& v : mean) v /= static_cast<double>(runs.size());
  return mean;
}

double CampaignSet::mean_sims_to_reach(double fom) const {
  if (runs.empty()) return static_cast<double>(params.budget());
  double total = 0.0;
  for (const auto& run : runs) {
    std::size_t sims = params.budget();
    for (std::size_t i = 0; i < run.curve.size(); ++i) {
      if (run.curve[i] >= fom) {
        sims = i + 1;
        break;
      }
    }
    total += static_cast<double>(sims);
  }
  return total / static_cast<double>(runs.size());
}

std::optional<std::size_t> CampaignSet::best_run() const {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (!runs[i].success) continue;
    if (!best || runs[i].final_fom > runs[*best].final_fom) best = i;
  }
  return best;
}

std::string campaign_csv_path(const std::string& cache_dir,
                              const std::string& spec, Method method,
                              const CampaignParams& params) {
  return cache_dir + "/campaign_" + spec + "_" + method_name(method) + "_" +
         params.cache_token() + ".csv";
}

void save_campaign_csv(const std::string& path, const CampaignSet& set) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  if (!out) {
    util::log_warn("cannot write campaign cache " + path);
    return;
  }
  out.precision(12);
  for (const auto& run : set.runs) {
    out << "run," << run.success << "," << run.final_fom << ","
        << run.best_topology_index << "," << run.gain_db << "," << run.gbw_hz
        << "," << run.pm_deg << "," << run.power_w << ",\"" << run.best_topology
        << "\"\n";
    out << "values";
    for (double v : run.best_values) out << "," << v;
    out << "\ncurve";
    for (double v : run.curve) out << "," << v;
    out << "\n";
  }
}

std::optional<CampaignSet> load_campaign_csv(const std::string& path,
                                             const std::string& spec,
                                             Method method,
                                             const CampaignParams& params) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  CampaignSet set;
  set.spec = spec;
  set.method = method;
  set.params = params;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("run,", 0) != 0) return std::nullopt;  // corrupt
    RunResult run;
    {
      std::istringstream ss(line.substr(4));
      std::string field;
      std::getline(ss, field, ',');
      run.success = field == "1";
      std::getline(ss, field, ',');
      run.final_fom = std::stod(field);
      std::getline(ss, field, ',');
      run.best_topology_index = static_cast<std::size_t>(std::stoull(field));
      std::getline(ss, field, ',');
      run.gain_db = std::stod(field);
      std::getline(ss, field, ',');
      run.gbw_hz = std::stod(field);
      std::getline(ss, field, ',');
      run.pm_deg = std::stod(field);
      std::getline(ss, field, ',');
      run.power_w = std::stod(field);
      std::getline(ss, field);
      if (field.size() >= 2 && field.front() == '"' && field.back() == '"') {
        field = field.substr(1, field.size() - 2);
      }
      run.best_topology = field;
    }
    if (!std::getline(in, line) || line.rfind("values", 0) != 0) {
      return std::nullopt;
    }
    {
      std::istringstream ss(line.substr(6));
      std::string field;
      while (std::getline(ss, field, ',')) {
        if (!field.empty()) run.best_values.push_back(std::stod(field));
      }
    }
    if (!std::getline(in, line) || line.rfind("curve", 0) != 0) {
      return std::nullopt;
    }
    {
      std::istringstream ss(line.substr(5));
      std::string field;
      while (std::getline(ss, field, ',')) {
        if (!field.empty()) run.curve.push_back(std::stod(field));
      }
    }
    set.runs.push_back(std::move(run));
  }
  if (set.runs.size() != params.runs) return std::nullopt;
  return set;
}

namespace {

/// One trained VAE per process, shared by every VGAE-BO campaign (the
/// autoencoder is trained offline on unlabeled topologies, independent of
/// spec and run). The first caller trains under the mutex; parallel
/// campaign runs then copy the trained instance (see run_single).
baselines::Vae& shared_vae(const baselines::VaeConfig& config) {
  static std::mutex vae_mutex;
  static std::unique_ptr<baselines::Vae> vae;
  std::lock_guard<std::mutex> lock(vae_mutex);
  if (!vae) {
    INTOOA_SPAN("baselines.vae_train");
    util::log_info("training shared VGAE autoencoder (once per process)...");
    util::Rng rng(0xAEDC0DEULL);
    vae = std::make_unique<baselines::Vae>(config, rng);
    vae->train(rng);
    util::log_info("VGAE reconstruction accuracy: " +
                   std::to_string(vae->reconstruction_accuracy(500, rng)));
  }
  return *vae;
}

}  // namespace

std::uint64_t run_seed(const CampaignParams& params, Method method,
                       const std::string& spec_name, std::size_t run_index) {
  return params.seed * 1000003ULL +
         static_cast<std::uint64_t>(method) * 7919ULL +
         std::hash<std::string>{}(spec_name) % 104729ULL + run_index * 31ULL;
}

std::string run_token(const std::string& spec, Method method,
                      const CampaignParams& params, std::size_t run_index,
                      std::uint64_t seed) {
  std::ostringstream out;
  out << spec << "|" << method_name(method) << "|" << params.cache_token()
      << "|run" << run_index << "|seed" << seed;
  return out.str();
}

std::string run_checkpoint_path(const std::string& cache_dir,
                                const std::string& spec, Method method,
                                const CampaignParams& params,
                                std::size_t run_index) {
  return cache_dir + "/checkpoints/campaign_" + spec + "_" +
         method_name(method) + "_" + params.cache_token() + "_run" +
         std::to_string(run_index) + ".ckpt";
}

RunResult run_single(const std::string& spec_name, Method method,
                     const CampaignParams& params, std::uint64_t seed,
                     const std::string& checkpoint_path,
                     const std::string& checkpoint_token,
                     const std::shared_ptr<store::EvalStore>& store,
                     const std::shared_ptr<svc::ClientPool>& remote) {
  INTOOA_SPAN("campaign.run");
  const circuit::Spec& spec = circuit::spec_by_name(spec_name);
  sizing::SizingConfig sizing_config;
  sizing_config.init_points = params.sizing_init;
  sizing_config.iterations = params.sizing_iterations;
  core::TopologyEvaluator evaluator(sizing::EvalContext(spec), sizing_config);
  // Persistent tier below the in-memory cache: all runs of the sweep (and
  // any concurrent process on the same file) share one store. Attached
  // before checkpoint restore so restored records also populate the store.
  store::attach(evaluator, store);
  // Distributed tier below the store: store misses are sharded across the
  // --remote endpoints, with local sizing as the byte-identical fallback.
  if (remote) svc::attach(evaluator, remote);

  if (!checkpoint_path.empty() &&
      runtime::load_evaluator_checkpoint(checkpoint_path, checkpoint_token,
                                         evaluator)) {
    util::log_info("resumed " + checkpoint_token + " from checkpoint (" +
                   std::to_string(evaluator.total_simulations()) +
                   " simulations saved)");
    return run_result_from_evaluator(evaluator, params);
  }

  util::Rng rng(seed);
  switch (method) {
    case Method::IntoOa:
    case Method::IntoOaR:
    case Method::IntoOaM: {
      core::OptimizerConfig config;
      config.init_topologies = params.init_topologies;
      config.iterations = params.iterations;
      config.candidates.pool_size = params.pool;
      config.candidates.mutation_fraction =
          method == Method::IntoOa ? 0.5
          : method == Method::IntoOaM ? 1.0
                                      : 0.0;
      core::IntoOaOptimizer optimizer(config);
      optimizer.run(evaluator, rng);
      break;
    }
    case Method::FeGa: {
      baselines::FeGaConfig config;
      config.population = params.init_topologies;
      config.max_evaluations = params.init_topologies + params.iterations;
      baselines::FeGa(config).run(evaluator, rng);
      break;
    }
    case Method::VgaeBo: {
      baselines::VgaeBoConfig config;
      config.init_topologies = params.init_topologies;
      config.iterations = params.iterations;
      config.candidates = params.pool;
      // Copy the shared trained VAE: its forward passes cache per-layer
      // activations, so concurrent runs must not share one instance.
      baselines::Vae vae = shared_vae(config.vae);
      baselines::VgaeBo(config).run(evaluator, rng, vae);
      break;
    }
  }

  if (!checkpoint_path.empty()) {
    runtime::save_evaluator_checkpoint(checkpoint_path, checkpoint_token,
                                       evaluator);
  }
  return run_result_from_evaluator(evaluator, params);
}

RunResult run_result_from_evaluator(const core::TopologyEvaluator& evaluator,
                                    const CampaignParams& params) {
  // Mirrors how every method builds its OptimizationOutcome: feasible-first
  // best selection straight from the evaluator history.
  const auto best_feasible = evaluator.best_feasible();
  const auto best_any =
      best_feasible ? best_feasible : evaluator.best_overall();

  RunResult run;
  run.success = best_feasible.has_value();
  run.curve = evaluator.fom_curve();
  run.curve.resize(params.budget(), run.curve.empty() ? 0.0 : run.curve.back());
  if (best_any && run.success) {
    const auto& record = evaluator.history()[*best_any];
    run.final_fom = record.sized.best.fom;
    run.best_topology_index = record.topology.index();
    run.best_topology = record.topology.to_string();
    run.gain_db = record.sized.best.perf.gain_db;
    run.gbw_hz = record.sized.best.perf.gbw_hz;
    run.pm_deg = record.sized.best.perf.pm_deg;
    run.power_w = record.sized.best.perf.power_w;
    run.best_values = record.sized.best_values;
  }
  return run;
}

CampaignSet run_or_load(const std::string& spec_name, Method method,
                        const CampaignParams& params,
                        const std::string& cache_dir,
                        std::shared_ptr<store::EvalStore> store,
                        std::shared_ptr<svc::ClientPool> remote) {
  install_drain_handler();
  const std::string path =
      cache_dir.empty()
          ? ""
          : campaign_csv_path(cache_dir, spec_name, method, params);
  if (!path.empty()) {
    if (auto cached = load_campaign_csv(path, spec_name, method, params)) {
      util::log_info("loaded cached campaign " + path);
      return *cached;
    }
  }

  CampaignSet set;
  set.spec = spec_name;
  set.method = method;
  set.params = params;

  // Independent (seed x method) runs fan across the global pool; each job
  // depends only on its own derived seed, so the result vector is identical
  // for any thread count (and for a checkpoint-interrupt-resume sequence).
  std::vector<runtime::CampaignJob> jobs(params.runs);
  for (std::size_t r = 0; r < params.runs; ++r) {
    jobs[r].name = method_name(method) + " on " + spec_name + ": run " +
                   std::to_string(r + 1) + "/" + std::to_string(params.runs);
    jobs[r].seed = run_seed(params, method, spec_name, r);
    jobs[r].index = r;
  }
  // Campaign-level cache accounting: the sets of one bench run sequentially,
  // so the counter deltas across this campaign are exactly its own lookups.
  obs::Counter& hit_counter = obs::registry().counter("evaluator.cache_hit");
  obs::Counter& miss_counter = obs::registry().counter("evaluator.cache_miss");
  const std::uint64_t hits_before = hit_counter.value();
  const std::uint64_t misses_before = miss_counter.value();

  const runtime::CampaignRunner runner(runtime::global_pool());
  set.runs = runner.run<RunResult>(jobs, [&](const runtime::CampaignJob& job) {
    // Drain discipline (see campaign/drain.hpp): runs not yet started when
    // a SIGINT/SIGTERM arrives are skipped; runs already in flight finish
    // and checkpoint below.
    if (draining()) return RunResult{};
    const std::string ckpt_path =
        cache_dir.empty() ? ""
                          : run_checkpoint_path(cache_dir, spec_name, method,
                                                params, job.index);
    return run_single(spec_name, method, params, job.seed, ckpt_path,
                      run_token(spec_name, method, params, job.index,
                                job.seed),
                      store, remote);
  });
  // A drained campaign exits 128+signal here — after every in-flight run
  // has published its checkpoint, but before the campaign CSV is written
  // (a partial set must not be mistaken for a finished one).
  exit_if_draining();
  if (!path.empty()) save_campaign_csv(path, set);

  util::log_info(
      "campaign " + method_name(method) + " on " + spec_name + " done",
      {{"runs", set.runs.size()},
       {"successes", set.successes()},
       {"cache_hits", hit_counter.value() - hits_before},
       {"cache_misses", miss_counter.value() - misses_before}});
  if (remote) {
    const svc::ClientPoolStats pool_stats = remote->stats();
    util::log_info("remote pool totals",
                   {{"endpoints", pool_stats.endpoints.size()},
                    {"requests", pool_stats.requests()},
                    {"reconnects", pool_stats.reconnects()},
                    {"replays", pool_stats.replays()}});
  }
  return set;
}

std::shared_ptr<store::EvalStore> open_store_from_cli(const util::Cli& cli) {
  const std::string path = cli.get("store", "");
  if (path.empty()) return nullptr;
  return store::EvalStore::open(path);
}

std::shared_ptr<svc::ClientPool> open_pool_from_cli(const util::Cli& cli) {
  const std::string spec = cli.get("remote", "");
  if (spec.empty()) return nullptr;
  std::vector<svc::Address> endpoints;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string token = spec.substr(begin, end - begin);
    if (!token.empty()) endpoints.push_back(svc::Address::parse(token));
    begin = end + 1;
  }
  if (endpoints.empty()) {
    throw std::invalid_argument("--remote: no endpoints in \"" + spec + "\"");
  }
  svc::ClientPoolConfig config;
  config.max_inflight = cli.get_size("remote-inflight", config.max_inflight);
  auto pool =
      std::make_shared<svc::ClientPool>(std::move(endpoints), config);
  util::log_info("remote evaluation pool",
                 {{"endpoints", pool->endpoint_count()},
                  {"inflight", config.max_inflight}});
  return pool;
}

void reject_unknown_flags(const util::Cli& cli,
                          std::initializer_list<std::string_view> extra) {
  std::vector<std::string_view> known = {
      "quick",     "runs",     "iters",    "init",   "pool",
      "seed",      "cache-dir", "no-cache", "store",  "threads",
      "remote",    "remote-inflight",       "trace",  "metrics",
      "log-level"};
  known.insert(known.end(), extra.begin(), extra.end());
  cli.reject_unknown(std::span<const std::string_view>(known));
}

BenchOptions BenchOptions::from_cli(const util::Cli& cli) {
  BenchOptions options;
  if (cli.has("quick")) {
    options.params.runs = 3;
    options.params.iterations = 20;
    options.params.pool = 100;
    options.params.sizing_init = 5;
    options.params.sizing_iterations = 15;
  }
  options.params.runs = static_cast<std::size_t>(
      cli.get_int("runs", static_cast<long>(options.params.runs)));
  options.params.init_topologies = static_cast<std::size_t>(cli.get_int(
      "init", static_cast<long>(options.params.init_topologies)));
  options.params.iterations = static_cast<std::size_t>(
      cli.get_int("iters", static_cast<long>(options.params.iterations)));
  options.params.pool = static_cast<std::size_t>(
      cli.get_int("pool", static_cast<long>(options.params.pool)));
  options.params.seed = static_cast<std::uint64_t>(
      cli.get_int("seed", static_cast<long>(options.params.seed)));
  options.cache_dir = cli.get("cache-dir", options.cache_dir);
  if (cli.has("no-cache")) options.cache_dir.clear();
  options.store = open_store_from_cli(cli);
  options.remote = open_pool_from_cli(cli);
  options.threads = cli.get_size("threads", 0);  // 0 = hardware concurrency
  runtime::set_thread_count(options.threads);
  options.threads = runtime::thread_count();
  return options;
}

double reference_fom(const std::vector<CampaignSet>& sets_for_spec) {
  double weakest = 0.0;
  bool any = false;
  for (const auto& set : sets_for_spec) {
    if (set.successes() == 0) continue;
    const double fom = set.mean_final_fom();
    if (!any || fom < weakest) {
      weakest = fom;
      any = true;
    }
  }
  return any ? 0.9 * weakest : 0.0;
}

}  // namespace intooa::campaign
