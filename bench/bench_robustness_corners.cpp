// Extension bench (DESIGN.md): variation robustness of the campaign
// winners. The best INTO-OA design for each spec is re-evaluated across
// the standard process-corner set with its sizes frozen; a trustworthy
// topology should hold its spec at every corner (or degrade gracefully).
//
// Options: --quick | --runs/--iters/... --cache-dir DIR | --no-cache
//          --store FILE --spec S-3 (restrict)

#include <cstdio>

#include "campaign/campaign.hpp"
#include "sizing/corners.hpp"
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

  std::printf(
      "ROBUSTNESS: best INTO-OA designs across process corners "
      "(+-20%% A0/fT/C0, +-10%% gm/Id)\n\n");
  util::Table table({"Spec", "corner", "Gain(dB)", "GBW(MHz)", "PM(deg)",
                     "Power(uW)", "FoM", "meets spec"});

  for (const auto& spec : circuit::paper_specs()) {
    if (!only_spec.empty() && spec.name != only_spec) continue;
    const CampaignSet set =
        run_or_load(spec.name, Method::IntoOa, options.params,
                    options.cache_dir, options.store, options.remote);
    const auto best = set.best_run();
    if (!best) {
      table.add_row({spec.name, "-", "-", "-", "-", "-", "-",
                     "no feasible design"});
      continue;
    }
    const RunResult& run = set.runs[*best];
    const auto topology = circuit::Topology::from_index(run.best_topology_index);
    const sizing::EvalContext ctx{spec};
    const auto sweep =
        sizing::evaluate_corners(topology, run.best_values, ctx);
    for (const auto& r : sweep.results) {
      const auto& p = r.point;
      table.add_row({spec.name, r.corner.name,
                     p.perf.valid ? util::fmt_fixed(p.perf.gain_db, 2) : "-",
                     p.perf.valid ? util::fmt_fixed(p.perf.gbw_hz / 1e6, 2)
                                  : "-",
                     p.perf.valid ? util::fmt_fixed(p.perf.pm_deg, 2) : "-",
                     util::fmt_fixed(p.perf.power_w / 1e-6, 2),
                     util::fmt_fixed(p.fom, 1),
                     p.feasible ? "yes" : "NO"});
    }
    table.add_row({spec.name, "=> all corners",
                   "", "", "", "",
                   "min " + util::fmt_fixed(sweep.min_fom, 1),
                   sweep.all_feasible ? "ROBUST" : "fails some corner"});
  }
  std::printf("%s", table.to_ascii().c_str());
  return 0;
}
