// Regenerates Table III: the performance of the best behavior-level
// op-amps (best successful run per method and spec) — Gain, GBW, PM,
// Power and FoM — plus the winning topology strings.
//
// Options: --quick | --runs N --iters N --init N --pool N --seed S
//          --cache-dir DIR | --no-cache   --spec S-3 (restrict to one spec)
//          --store FILE (persistent cross-campaign evaluation store)

#include <cstdio>

#include "campaign/campaign.hpp"
#include "obs/telemetry.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace intooa;
  using namespace intooa::campaign;

  const util::Cli cli(argc, argv);
  campaign::reject_unknown_flags(cli, {"spec"});
  obs::BenchTelemetry telemetry(
      obs::TelemetryOptions::from_cli(cli, util::LogLevel::Info));
  const BenchOptions options = BenchOptions::from_cli(cli);
  const std::string only_spec = cli.get("spec", "");

  // The paper's Table III compares FE-GA, VGAE-BO and INTO-OA.
  const std::vector<Method> methods = {Method::FeGa, Method::VgaeBo,
                                       Method::IntoOa};

  std::printf("TABLE III: Behavior-level Op-amp Performance (best of %zu runs)\n\n",
              options.params.runs);
  util::Table table({"Specs", "Method", "Gain(dB)", "GBW(MHz)", "PM(deg)",
                     "Power(uW)", "FoM"});
  std::vector<std::pair<std::string, std::string>> winners;

  for (const auto& spec : circuit::paper_specs()) {
    if (!only_spec.empty() && spec.name != only_spec) continue;
    for (Method method : methods) {
      const CampaignSet set =
          run_or_load(spec.name, method, options.params, options.cache_dir,
                      options.store, options.remote);
      const auto best = set.best_run();
      if (!best) {
        table.add_row({spec.name, method_name(method), "-", "-", "-", "-",
                       "no feasible design"});
        continue;
      }
      const RunResult& run = set.runs[*best];
      table.add_row({spec.name, method_name(method),
                     util::fmt_fixed(run.gain_db, 2),
                     util::fmt_fixed(run.gbw_hz / 1e6, 2),
                     util::fmt_fixed(run.pm_deg, 2),
                     util::fmt_fixed(run.power_w / 1e-6, 2),
                     util::fmt_fixed(run.final_fom, 2)});
      if (method == Method::IntoOa) {
        winners.emplace_back(spec.name, run.best_topology);
      }
    }
  }
  std::printf("%s\n", table.to_ascii().c_str());

  std::printf("Best INTO-OA topologies:\n");
  for (const auto& [spec, topo] : winners) {
    std::printf("  %s: %s\n", spec.c_str(), topo.c_str());
  }
  return 0;
}
