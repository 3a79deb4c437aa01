// Regenerates Table V: transistor-level validation (Sec. IV-D). The best
// behavior-level designs of FE-GA, VGAE-BO and INTO-OA for every spec are
// mapped to the transistor level via the gm/Id flow and re-simulated; the
// refined designs R1/R2 are mapped for S-5 as in the paper.
//
// Options: --quick | --runs/--iters/... --cache-dir DIR | --no-cache
//          --store FILE --spec S-3 (restrict) --skip-refined

#include <cstdio>

#include "campaign/campaign.hpp"
#include "common/refine_flow.hpp"
#include "sizing/evaluate.hpp"
#include "obs/telemetry.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "xtor/mapping.hpp"

int main(int argc, char** argv) {
  using namespace intooa;
  using namespace intooa::campaign;

  const util::Cli cli(argc, argv);
  campaign::reject_unknown_flags(cli, {"spec", "skip-refined"});
  obs::BenchTelemetry telemetry(
      obs::TelemetryOptions::from_cli(cli, util::LogLevel::Info));
  const BenchOptions options = BenchOptions::from_cli(cli);
  const std::string only_spec = cli.get("spec", "");

  const std::vector<Method> methods = {Method::FeGa, Method::VgaeBo,
                                       Method::IntoOa};

  std::printf("TABLE V: Transistor-level Op-amp Performance\n\n");
  util::Table table({"Specs", "Method/Circuit", "Gain(dB)", "GBW(MHz)",
                     "PM(deg)", "Power(uW)", "FoM"});

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
      const auto topology =
          circuit::Topology::from_index(run.best_topology_index);
      intooa::sizing::EvalContext ctx{spec};
      const auto perf = xtor::evaluate_transistor(topology, run.best_values,
                                                  ctx.behavioral);
      if (!perf.valid) {
        table.add_row({spec.name, method_name(method), "-", "-", "-", "-",
                       "mapping failed: " + perf.failure});
        continue;
      }
      table.add_row({spec.name, method_name(method),
                     util::fmt_fixed(perf.gain_db, 2),
                     util::fmt_fixed(perf.gbw_hz / 1e6, 2),
                     util::fmt_fixed(perf.pm_deg, 2),
                     util::fmt_fixed(perf.power_w / 1e-6, 2),
                     util::fmt_fixed(circuit::fom(perf, spec.load_cap), 2)});
    }
  }

  // Refined designs (S-5 rows at the bottom of the paper's Table V).
  if (!cli.has("skip-refined") && (only_spec.empty() || only_spec == "S-5")) {
    const bench::RefinementFlow flow = bench::run_refinement_flow(
        options.params, options.store, options.remote);
    sizing::EvalContext ctx(circuit::spec_by_name("S-5"));
    for (const auto& [name, result] :
         {std::pair<const char*, const core::RefineResult*>{"R1", &flow.c1},
          std::pair<const char*, const core::RefineResult*>{"R2", &flow.c2}}) {
      if (result->refined_values.empty()) {
        table.add_row({"S-5", name, "-", "-", "-", "-", "refinement failed"});
        continue;
      }
      const auto perf = xtor::evaluate_transistor(
          result->refined, result->refined_values, ctx.behavioral);
      if (!perf.valid) {
        table.add_row({"S-5", name, "-", "-", "-", "-",
                       "mapping failed: " + perf.failure});
        continue;
      }
      table.add_row({"S-5", name, util::fmt_fixed(perf.gain_db, 2),
                     util::fmt_fixed(perf.gbw_hz / 1e6, 2),
                     util::fmt_fixed(perf.pm_deg, 2),
                     util::fmt_fixed(perf.power_w / 1e-6, 2),
                     util::fmt_fixed(circuit::fom(perf, 10e-9), 2)});
    }
  }

  std::printf("%s", table.to_ascii().c_str());
  std::printf(
      "\n(FoM typically drops versus Table III: device parasitics and bias\n"
      "overheads are now modeled — the Sec. IV-D trend.)\n");
  return 0;
}
