// `perfbench-tool campaign`: the campaign_quick workload in one fresh
// process. Runs the quick Table II protocol (every requested spec x method,
// campaign::run_or_load with no cache, no store and no remote), then prints
// one JSON line with the wall and CPU time, the registry snapshots before
// and after, and the per-set timings. The CSVs are written after the timed part so run.py can
// digest them.
//
// Set-up handshake: the process prints "ready" once initialised and waits
// for a line on stdin before the first timed operation, so the caller can
// time launch-to-ready as set-up.
//
// `perfbench-tool vae` times baselines::Vae construction and training with
// the configuration and seed the campaign's shared VGAE uses.

#include <sys/resource.h>

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/vae.hpp"
#include "baselines/vgae_bo.hpp"
#include "campaign/campaign.hpp"
#include "circuit/circuit_graph.hpp"
#include "circuit/spec.hpp"
#include "circuit/topology.hpp"
#include "common.hpp"
#include "gp/wlgp.hpp"
#include "graph/wl.hpp"
#include "obs/metrics.hpp"
#include "runtime/executor.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using intooa::campaign::Method;

std::vector<std::string> split(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

}  // namespace

int run_campaign(const intooa::util::Cli& cli) {
  namespace campaign = intooa::campaign;
  cli.reject_unknown({"threads", "csv-dir", "specs", "methods", "runs",
                      "iters", "init", "pool", "sizing-init", "sizing-iters",
                      "seed", "spans", "featurize-probe", "setup-only"});
  intooa::util::set_log_level(intooa::util::LogLevel::Warn);
  SpanRecorder spans(cli.get("spans", ""));

  campaign::CampaignParams params;  // --quick protocol
  params.runs = cli.get_size("runs", 3);
  params.iterations = cli.get_size("iters", 20);
  params.init_topologies = cli.get_size("init", 10);
  params.pool = cli.get_size("pool", 100);
  params.sizing_init = cli.get_size("sizing-init", 5);
  params.sizing_iterations = cli.get_size("sizing-iters", 15);
  params.seed = static_cast<std::uint64_t>(cli.get_size("seed", 2025));
  intooa::runtime::set_thread_count(cli.get_size("threads", 0));

  std::vector<std::string> specs = split(cli.get("specs", ""));
  if (specs.empty()) {
    for (const auto& spec : intooa::circuit::paper_specs()) {
      specs.push_back(spec.name);
    }
  }
  std::vector<Method> methods;
  for (const std::string& name : split(cli.get("methods", ""))) {
    const auto method = campaign::method_from_name(name);
    if (!method) throw std::invalid_argument("unknown method " + name);
    methods.push_back(*method);
  }
  if (methods.empty()) methods = campaign::all_methods();
  const std::string csv_dir = cli.get("csv-dir", "campaign-csv");

  const intooa::obs::MetricsSnapshot before = intooa::obs::snapshot();
  rusage usage0{};
  getrusage(RUSAGE_SELF, &usage0);
  std::printf("ready\n");
  std::fflush(stdout);
  if (cli.has("setup-only")) return 0;
  std::string go;
  std::getline(std::cin, go);

  // The timed part: every set in Table II order, one span per set under
  // one root span.
  struct SetTiming {
    campaign::CampaignSet set;
    std::uint64_t start_ns, end_ns;
  };
  std::vector<SetTiming> sets;
  const std::uint64_t root_id = spans.reserve();
  const std::uint64_t t0 = now_ns();
  for (const std::string& spec : specs) {
    for (const Method method : methods) {
      const std::uint64_t start = now_ns();
      campaign::CampaignSet set =
          campaign::run_or_load(spec, method, params, "", nullptr, nullptr);
      const std::uint64_t end = now_ns();
      spans.record("campaign.set." + campaign::method_name(method), start,
                   end, root_id, sets.size() + 1);
      sets.push_back(SetTiming{std::move(set), start, end});
    }
  }
  const std::uint64_t t1 = now_ns();
  spans.record_with_id(root_id, "campaign", t0, t1, 0, 0);

  rusage usage1{};
  getrusage(RUSAGE_SELF, &usage1);
  const intooa::obs::MetricsSnapshot after = intooa::obs::snapshot();
  const auto tv = [](const timeval& v) {
    return static_cast<double>(v.tv_sec) + static_cast<double>(v.tv_usec) / 1e6;
  };
  const double cpu_s = tv(usage1.ru_utime) - tv(usage0.ru_utime) +
                       tv(usage1.ru_stime) - tv(usage0.ru_stime);

  std::ostringstream out;
  out.precision(12);
  out << "{\"wall_s\":" << seconds(t1 - t0) << ",\"cpu_s\":" << cpu_s
      << ",\"maxrss_kb\":" << usage1.ru_maxrss
      << ",\"threads\":" << intooa::runtime::thread_count() << ",\"sets\":[";
  std::vector<std::size_t> best_topologies;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const campaign::CampaignSet& set = sets[i].set;
    const std::string path =
        campaign::campaign_csv_path(csv_dir, set.spec, set.method, params);
    campaign::save_campaign_csv(path, set);
    for (const auto& run : set.runs) {
      best_topologies.push_back(run.best_topology_index);
    }
    out << (i ? "," : "") << "{\"spec\":" << json_string(set.spec)
        << ",\"method\":" << json_string(campaign::method_name(set.method))
        << ",\"seconds\":" << seconds(sets[i].end_ns - sets[i].start_ns)
        << ",\"csv\":" << json_string(path) << "}";
  }
  out << "],\"registry_before\":" << before.to_json().dump()
      << ",\"registry_after\":" << after.to_json().dump();

  // WL featurization on a fresh featurizer over the campaign's best
  // topologies: the per-graph cost before the shared dictionary is warm.
  if (cli.has("featurize-probe")) {
    const int h = intooa::gp::WlGpConfig{}.max_h;
    intooa::graph::WlFeaturizer fresh(h);
    std::vector<double> micros;
    for (const std::size_t index : best_topologies) {
      const intooa::graph::Graph g = intooa::circuit::build_circuit_graph(
          intooa::circuit::Topology::from_index(index));
      const std::uint64_t start = now_ns();
      const auto features = fresh.features(g, h);
      micros.push_back(static_cast<double>(now_ns() - start) / 1e3);
      if (features.nnz() == 0) throw std::runtime_error("empty WL features");
    }
    out << ",\"featurize_fresh_us\":" << quantile(micros, 0.5)
        << ",\"featurize_fresh_graphs\":" << micros.size();
  }
  out << "}";
  spans.write();
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int run_vae(const intooa::util::Cli& cli) {
  cli.reject_unknown({});
  intooa::util::set_log_level(intooa::util::LogLevel::Warn);
  const intooa::baselines::VaeConfig config =
      intooa::baselines::VgaeBoConfig{}.vae;
  const std::uint64_t start = now_ns();
  intooa::util::Rng rng(0xAEDC0DEULL);  // the campaign's shared-VAE seed
  intooa::baselines::Vae vae(config, rng);
  const double loss = vae.train(rng);
  const std::uint64_t end = now_ns();
  std::printf("{\"vae_train_s\":%.6f,\"final_loss\":%.9g}\n", seconds(end - start),
              loss);
  return 0;
}

}  // namespace perfbench
